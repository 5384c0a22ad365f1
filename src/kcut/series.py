"""Exact truncated power-series expansions and derived constants.

The record counts of the k-cut process have moment expansions whose
coefficients come from one bivariate power series: the function
``(exp(x**k/k!) * Q(k, x))**m`` expanded jointly in ``x`` (small) and the
symbolic exponent ``m``.  With ``Q(k, x) = exp(-x) * P(x)``,
``P(x) = sum_{i<k} x**i / i!``, the base has the logarithm
``L(x) = x**k/k! - x + log P(x)``, which vanishes through ``x**k``, and
the formal identity ``weight * base**m = sum_j m**j * weight * L**j / j!``
gives every coefficient of ``m**j * x**b`` in exact rational arithmetic
(``L**j`` starts at ``x**(j*(k+1))``).  From it this module builds:

- ``expand_core(k)``  -- the table C5(j, b) of coefficients of
  ``m**j * x**b`` in ``(exp(x**k/k!) * Q(k, x))**m`` (weight 1).
- ``expand_h0(k)``    -- the table C6(j, b) for the same product
  multiplied by the weight ``h0(x) = exp(-x) / (2*Q(k, x) - 1)``.
- ``constants(k, r)`` -- scale constants C2, C3 and the centering
  coefficients C1(r, i) built from C7/C8 and the C6 table.
- ``mu(r, k, n)``     -- the centering sequence
  ``(k/r)*lg n + sum_i C1(r, i) * lg(n)**(1 - i/k) + lg lg n``.

All series coefficients are `fractions.Fraction`; floating point enters
only in `constants` where gamma-function values are required.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .cutsim import _int_in


__all__ = [
    "BiSeries",
    "ConstantTable",
    "expand_core",
    "expand_h0",
    "c5_table",
    "c6_table",
    "constants",
    "mu",
    "MAX_K",
]

# Practical cap on k: the x-truncation order grows like k**2 and the
# tables beyond this are never exercised.
MAX_K = 8

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Typed, so that a cached entry for k = 1 cannot answer a call with
# k = True, which the argument checks reject.
_cached = lru_cache(maxsize=None, typed=True)


def _x_cap(k: int) -> int:
    """Truncation order in x: large enough to cover every window
    coefficient (b <= k*k + k) with one extra band of slack."""
    return k * k + 2 * k


@dataclass(frozen=True)
class BiSeries:
    """Truncated bivariate table ``sum c[(j, b)] * m**j * x**b``.

    ``j`` indexes powers of the symbolic exponent ``m`` and ``b`` powers
    of ``x``.  ``coeff`` holds the nonzero exact rationals with
    ``j <= j_cap`` and ``b <= b_cap``; every entry within those caps is
    exact.
    """

    j_cap: int
    b_cap: int
    coeff: dict[tuple[int, int], Fraction]

    def get(self, j: int, b: int) -> Fraction:
        return self.coeff.get((j, b), _ZERO)


def _mul(u: list[Fraction], v: list[Fraction]) -> list[Fraction]:
    """Truncated product of two coefficient lists of one length (entry
    ``b`` of a list is the coefficient of ``x**b``)."""
    n = len(u)
    out = [_ZERO] * n
    nonzero_v = [(j, c) for j, c in enumerate(v) if c]
    for i, ui in enumerate(u):
        if ui:
            for j, vj in nonzero_v:
                if i + j >= n:
                    break
                out[i + j] += ui * vj
    return out


def _reciprocal(u: list[Fraction]) -> list[Fraction]:
    """Series of ``1 / u``; ``u[0]`` must be 1."""
    inv = [_ONE]
    for b in range(1, len(u)):
        acc = sum((u[i] * inv[b - i] for i in range(1, b + 1) if u[i]), _ZERO)
        inv.append(-acc)
    return inv


def _log(u: list[Fraction]) -> list[Fraction]:
    """Series of ``log u``; ``u[0]`` must be 1.  Matching the
    coefficients of ``x**(b-1)`` in ``u * (log u)' = u'`` gives
    ``b*g[b] = b*u[b] - sum_{0<i<b} i*g[i]*u[b-i]``."""
    g = [_ZERO]
    for b in range(1, len(u)):
        acc = sum((i * g[i] * u[b - i] for i in range(1, b) if g[i]), _ZERO)
        g.append(u[b] - acc / b)
    return g


def _expand(k: int, weight: list[Fraction]) -> BiSeries:
    """Table of ``weight(x) * (exp(x**k/k!) * Q(k, x))**m`` through
    ``x**b_cap``, ``b_cap = len(weight) - 1``, as
    ``sum_j m**j * weight * L**j / j!`` with ``L`` the log of the base."""
    b_cap = len(weight) - 1
    partial = [
        Fraction(1, math.factorial(b)) if b < k else _ZERO
        for b in range(b_cap + 1)
    ]
    log_base = _log(partial)
    log_base[1] -= 1
    log_base[k] += Fraction(1, math.factorial(k))
    if any(log_base[: k + 1]):
        raise ArithmeticError("log of the base must vanish through order k")
    j_cap = b_cap // (k + 1)
    coeff: dict[tuple[int, int], Fraction] = {}
    term = weight
    for j in range(j_cap + 1):
        if j:
            term = [c / j for c in _mul(term, log_base)]
        coeff.update({(j, b): c for b, c in enumerate(term) if c})
    return BiSeries(j_cap, b_cap, coeff)


@_cached
def expand_core(k: int) -> BiSeries:
    """Bivariate expansion of ``(exp(x**k/k!) * Q(k, x))**m``.

    The result's ``(j, b)`` entry is the exact coefficient of
    ``m**j * x**b``.  Within the window ``1 <= j <= k``,
    ``j*k + j <= b <= j*k + k`` these are the C5 coefficients; entries
    beyond the window are still exact but belong to higher-order bands.
    """
    k = _int_in("k", k, 1, MAX_K)
    return _expand(k, [_ONE] + [_ZERO] * _x_cap(k))


@_cached
def expand_h0(k: int) -> BiSeries:
    """Bivariate expansion of ``h0(x) * (exp(x**k/k!) * Q(k, x))**m``.

    ``h0(x) = exp(-x) / (2*Q(k, x) - 1)`` is the conditional weight that
    appears when the root's k-th clock is fixed.  The ``(j, b)`` entries
    with ``j >= 1`` in the window are the C6 coefficients.
    """
    k = _int_in("k", k, 1, MAX_K)
    # h0 = 1 / (2 P(x) - exp(x)); the x**b coefficient of 2 P - exp is
    # 1/b! for b < k and -1/b! from b = k on.
    sign = [1 if b < k else -1 for b in range(_x_cap(k) + 1)]
    den = [Fraction(c, math.factorial(b)) for b, c in enumerate(sign)]
    return _expand(k, _reciprocal(den))


def _window(k: int) -> list[tuple[int, int]]:
    return [
        (j, b)
        for j in range(1, k + 1)
        for b in range(j * k + j, j * k + k + 1)
    ]


def c5_table(k: int) -> dict[tuple[int, int], Fraction]:
    """C5 coefficients on their index window (zeros included)."""
    series = expand_core(k)
    return {(j, b): series.get(j, b) for j, b in _window(k)}


def c6_table(k: int) -> dict[tuple[int, int], Fraction]:
    """C6 coefficients on their index window (zeros included)."""
    series = expand_h0(k)
    return {(j, b): series.get(j, b) for j, b in _window(k)}


@dataclass(frozen=True)
class ConstantTable:
    """All scale/centering constants for record order ``r`` on ``k``-cuts.

    ``c2`` rescales the mean (``E X ~ n * c2 / lg(n)**(r/k + 1) * ...``),
    ``c3`` scales the limit variable, ``c1[i]`` are the centering
    coefficients of ``lg(n)**(1 - i/k)``, and ``c7``/``c8`` are the raw
    pieces ``c1`` is assembled from.  ``k0`` records the exponent of the
    small-``x`` validity region ``x < m**(-k0)`` of the underlying
    expansions.
    """

    k: int
    r: int
    c5: dict[tuple[int, int], Fraction]
    c6: dict[tuple[int, int], Fraction]
    c1: dict[int, float]
    c2: float
    c3: float
    c7: dict[int, float]
    c8: dict[tuple[int, int], float]
    k0: float


@_cached
def constants(k: int, r: int) -> ConstantTable:
    """Evaluate every derived constant for record order ``r``, ``1<=r<=k``.

    Closed forms (``a = r/k``, ``kf = k!``):

    - ``C2(r) = kf**a * gamma(1 + a) / (k * gamma(r))``
    - ``C3(r) = 1 / gamma(1 + a)``
    - ``C7(r, i) = (-1)**i * k * kf**(i/k) * gamma((i+r)/k)
      / (r * i! * gamma(a))``
    - ``C8(r, j, b) = k * kf**(b/k) * C6(j, b) * gamma((b+r)/k)
      / (r * gamma(a))``
    - ``C1(r, i) = C7(r, i) + sum_{j=1}^{i} C8(r, j, j*k + i)``
    """
    k = _int_in("k", k, 1, MAX_K)
    r = _int_in("r", r, 1, k)
    kf = float(math.factorial(k))
    a = r / k
    gamma_a = math.gamma(a)
    c2 = kf**a * math.gamma(1.0 + a) / (k * math.gamma(float(r)))
    c3 = 1.0 / math.gamma(1.0 + a)
    c7 = {
        i: ((-1) ** i)
        * k
        * kf ** (i / k)
        * math.gamma((i + r) / k)
        / (r * math.factorial(i) * gamma_a)
        for i in range(1, k + 1)
    }
    c6 = c6_table(k)
    c8 = {
        (j, b): k
        * kf ** (b / k)
        * float(c6[(j, b)])
        * math.gamma((b + r) / k)
        / (r * gamma_a)
        for (j, b) in c6
    }
    c1 = {
        i: c7[i] + sum(c8[(j, j * k + i)] for j in range(1, i + 1))
        for i in range(1, k + 1)
    }
    k0 = 0.5 * (1.0 / k + 1.0 / (k + 1))
    return ConstantTable(
        k=k,
        r=r,
        c5=c5_table(k),
        c6=c6,
        c1=c1,
        c2=c2,
        c3=c3,
        c7=c7,
        c8=c8,
        k0=k0,
    )


def mu(r: int, k: int, n: int) -> float:
    """Centering sequence for the ``r``-record count on ``n`` nodes.

    ``mu = (k/r) * lg n + sum_{i=1}^{k} C1(r, i) * lg(n)**(1 - i/k)
    + lg lg n``; requires ``n >= 2`` so that ``lg lg n`` is defined.
    """
    if n < 2:
        raise ValueError(f"mu requires n >= 2, got {n!r}")
    table = constants(k, r)
    k, r = table.k, table.r  # Python ints, as constants checked them
    lg = math.log2(n)
    out = (k / r) * lg + math.log2(lg)
    for i in range(1, k + 1):
        out += table.c1[i] * lg ** (1.0 - i / k)
    return out
