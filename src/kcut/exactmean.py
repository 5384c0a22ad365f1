"""Exact and asymptotic moments of record counts.

The probability that a fixed node is an ``r``-record is a
one-dimensional integral: with ``g_r`` the Gamma(r, 1) density and
``Q(k, x)`` the survival function of a Gamma(k, 1) clock,

    P(record) = integral_0^y g_r(x) * Q(k, x)**ancestors dx,

where ``ancestors`` counts the independent clocks that must outlast the
node's ``r``-th clock and ``y`` caps the node's clock when the root's
removal time is conditioned on.  ``record_prob`` evaluates this by
adaptive quadrature; ``expected_records`` sums it over the exact
per-height node counts of a complete binary tree, from
:meth:`kcut.cutsim.CompleteTree.size_classes`; ``asymptotic_mean``
evaluates the closed-form approximation the sums converge to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import integrate

from . import series
from .cutsim import CompleteTree, _check_k

__all__ = [
    "MeanQuery",
    "QuadratureError",
    "record_prob",
    "expected_records",
    "asymptotic_mean",
]

# Absolute error demanded of every quadrature result.
_QUAD_TOL = 1.0e-11
# Integrand values below exp(_LOG_CUTOFF) are treated as tail.
_LOG_CUTOFF = math.log(1.0e-17)


class QuadratureError(ArithmeticError):
    """Raised when adaptive quadrature cannot certify the target error."""

    def __init__(self, achieved: float, target: float) -> None:
        super().__init__(
            f"quadrature error bound {achieved:.3e} exceeds target "
            f"{target:.3e}"
        )
        self.achieved = achieved
        self.target = target


@dataclass(frozen=True)
class MeanQuery:
    """Parameters of one expected-record-count computation.

    ``y`` is the root's removal time; ``math.inf`` means unconditional.
    ``variant`` is ``"node"`` or ``"edge"``; the edge variant treats the
    root's clock as infinite and only supports ``y = inf``.
    """

    n: int
    k: int
    r: int
    y: float = math.inf
    variant: str = "node"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n!r}")
        _check_k(self.k)
        series._check_r(self.r, self.k)
        if not self.y > 0.0:
            raise ValueError(f"y must be positive, got {self.y!r}")
        if self.variant not in ("node", "edge"):
            raise ValueError(f"variant must be node or edge, got {self.variant!r}")
        if self.variant == "edge" and not math.isinf(self.y):
            raise ValueError(
                "edge variant fixes the root clock at infinity; "
                "a finite y is contradictory"
            )


def _log_q_int(k: int, x: float) -> float:
    """``log Q(k, x)`` for integer ``k``, stable for all ``x >= 0``.

    Uses ``Q(k, x) = exp(-x) * sum_{i<k} x**i / i!`` so the logarithm is
    ``-x + log(sum)`` with a sum of positive terms (no cancellation).
    """
    if x == 0.0:
        return 0.0
    total = 1.0
    term = 1.0
    for i in range(1, k):
        term *= x / i
        total += term
    return -x + math.log(total)


def _log_integrand(r: int, k: int, ancestors: int, lgamma_r: float, x: float) -> float:
    out = -x - lgamma_r
    if r > 1:
        out += (r - 1) * math.log(x)
    if ancestors:
        out += ancestors * _log_q_int(k, x)
    return out


def record_prob(r: int, k: int, ancestors: int, y: float) -> float:
    """Probability that a node with the given ancestor count is an
    ``r``-record, with its own clock capped at ``y``.

    Evaluates ``integral_0^y x**(r-1) e**(-x) / (r-1)! * Q(k, x)**ancestors
    dx``
    by adaptive quadrature on ``[0, min(y, X)]``, where ``X`` is chosen
    beyond the integrand's exponential tail.  The absolute error bound
    reported by the integrator must be below 1e-11.
    """
    _check_k(k)
    series._check_r(r, k)
    if ancestors < 0:
        raise ValueError(f"ancestors must be >= 0, got {ancestors!r}")
    if not y > 0.0:
        raise ValueError(f"y must be positive, got {y!r}")

    lgamma_r = math.lgamma(r)

    # Push the cutoff past the integrand's mode and into the tail.
    x_max = float(max(2 * r, 2))
    while _log_integrand(r, k, ancestors, lgamma_r, x_max) > _LOG_CUTOFF:
        x_max *= 2.0
        if x_max > 1.0e6:  # pragma: no cover - tail always wins sooner
            break
    upper = min(y, x_max)

    def integrand(x: float) -> float:
        if x <= 0.0:
            return 0.0 if r > 1 else math.exp(-lgamma_r)
        return math.exp(_log_integrand(r, k, ancestors, lgamma_r, x))

    value, abserr = integrate.quad(
        integrand, 0.0, upper, epsabs=1.0e-13, epsrel=1.0e-13, limit=200
    )
    if abserr > _QUAD_TOL:
        raise QuadratureError(abserr, _QUAD_TOL)
    return value


def expected_records(query: MeanQuery) -> float:
    """Expected number of ``r``-records in a complete binary tree.

    Sums ``record_prob`` over heights with the exact per-height node
    counts:

    - node variant, unconditional (``y = inf``): the root contributes 1
      and a height-``i`` node has ``i`` ancestors (root included);
    - node variant, conditional on the root's removal time ``y``: the
      root is excluded, a height-``i`` node has ``i - 1`` free ancestor
      clocks, and its own clock is capped at ``y``;
    - edge variant: like the conditional form with ``y = inf`` (the
      root's clock never rings).
    """
    levels = CompleteTree(query.n).size_classes()
    unconditional = query.variant == "node" and math.isinf(query.y)
    total = 1.0 if unconditional else 0.0  # the root is always a record
    for i in range(1, len(levels)):
        count = sum(c for _, c in levels[i])
        ancestors, y = (i, math.inf) if unconditional else (i - 1, query.y)
        total += count * record_prob(query.r, query.k, ancestors, y)
    return total


def asymptotic_mean(
    n: int, k: int, r: int, table: series.ConstantTable | None = None
) -> float:
    """Closed-form approximation of the unconditional node-variant mean.

    With ``lg = lg n``, ``m = floor(lg)``, ``alpha = lg - m`` and the
    centering sequence ``mu``:

        E X ~ C2(r) * n / lg**(r/k + 1) * (mu(r, n) - lg lg n + alpha)
              + C2(r) * 2**(m+1) / lg**(r/k + 1).

    The ``alpha`` term keeps the constant order exact; at full trees
    (``alpha -> 1``) the ``k = r`` case then reproduces the harmonic-sum
    expansion ``2**(m+1) * (1/m + 2/m**3 + O(m**-4))`` through its
    ``1/m**2`` term.
    """
    if n < 4:
        raise ValueError(f"asymptotic mean needs n >= 4, got {n!r}")
    if table is None:
        table = series.constants(k, r)
    if table.k != k or table.r != r:
        raise ValueError(
            f"table is for (k={table.k}, r={table.r}), got (k={k}, r={r})"
        )
    lg = math.log2(n)
    m = n.bit_length() - 1
    alpha = lg - m
    scale = table.c2 / lg ** (r / k + 1.0)
    centered = series.mu(r, k, n) - math.log2(lg) + alpha
    return scale * (n * centered + float(2 ** (m + 1)))
