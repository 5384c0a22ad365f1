"""The regularized upper incomplete gamma function and its inverse.

``Q(a, x) = Gamma(a, x) / Gamma(a)`` decreases from 1 to 0 in ``x``.
These two functions are the package's one route to Q and Q^{-1}, built
on ``scipy.special``; both take a scalar or an array in their second
argument.
"""

from __future__ import annotations

import numpy as np
from scipy import special

__all__ = ["q", "q_inv"]


def q(
    a: float, x: float | np.ndarray, out: np.ndarray | None = None
) -> float | np.ndarray:
    """``Q(a, x)`` for ``a > 0`` and ``x >= 0``.  The shapes ``a = 1`` and
    ``a = 1/2`` reduce to ``exp(-x)`` and ``erfc(sqrt(x))``.  ``out``
    (which may be ``x`` itself) receives the result without a temporary.
    """
    if a <= 0.0:
        raise ValueError(f"q requires a > 0, got {a!r}")
    if np.asarray(x).min(initial=0.0) < 0.0:
        raise ValueError("q requires x >= 0")
    if a == 1.0:
        return np.exp(np.negative(x, out=out), out=out)
    if a == 0.5:
        return special.erfc(np.sqrt(x, out=out), out=out)
    return special.gammaincc(a, x, out=out)


def q_inv(a: float, y: float | np.ndarray) -> float | np.ndarray:
    """Inverse of :func:`q` in its second argument, extended by
    ``q_inv(a, y) = 0`` for ``y >= 1`` and ``inf`` for ``y <= 0``.  The
    shapes ``a = 1`` and ``a = 1/2`` invert their closed forms of
    :func:`q`: ``-log(y)`` and ``erfcinv(y)**2``.
    """
    if a <= 0.0:
        raise ValueError(f"q_inv requires a > 0, got {a!r}")
    y = np.minimum(np.maximum(y, 0.0), 1.0)
    if a == 1.0:
        # 0.0 - log(1) is +0.0, where -log(1) would be -0.0.
        with np.errstate(divide="ignore"):
            return 0.0 - np.log(y)
    if a == 0.5:
        return special.erfcinv(y) ** 2
    return special.gammainccinv(a, y)
