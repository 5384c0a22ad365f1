"""Exact truncated power-series arithmetic and derived constants.

The record counts of the k-cut process have moment expansions whose
coefficients come from one bivariate power series: the function
``(exp(x**k/k!) * Q(k, x))**m`` expanded jointly in ``x`` (small) and the
symbolic exponent ``m``.  This module performs that expansion in exact
rational arithmetic and assembles the downstream constants:

- ``expand_core(k)``  -- the table C5(j, b) of coefficients of
  ``m**j * x**b`` in ``(exp(x**k/k!) * Q(k, x))**m``.
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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache


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


def _x_cap(k: int) -> int:
    """Truncation order in x: large enough to cover every window
    coefficient (b <= k*k + k) with one extra band of slack."""
    return k * k + 2 * k


@dataclass(frozen=True)
class BiSeries:
    """Truncated bivariate polynomial ``sum c[(j, b)] * m**j * x**b``.

    ``j`` indexes powers of the symbolic exponent ``m`` and ``b`` powers
    of ``x``.  Coefficients are exact rationals.  ``j_cap`` and ``b_cap``
    are inclusive truncation orders: arithmetic drops any product term
    beyond them, and stored keys never exceed them.
    """

    j_cap: int
    b_cap: int
    coeff: dict[tuple[int, int], Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        clean = {
            key: val
            for key, val in self.coeff.items()
            if val != 0 and key[0] <= self.j_cap and key[1] <= self.b_cap
        }
        object.__setattr__(self, "coeff", clean)

    def get(self, j: int, b: int) -> Fraction:
        return self.coeff.get((j, b), _ZERO)

    def __add__(self, other: "BiSeries") -> "BiSeries":
        self._check_caps(other)
        total = dict(self.coeff)
        for key, val in other.coeff.items():
            total[key] = total.get(key, _ZERO) + val
        return BiSeries(self.j_cap, self.b_cap, total)

    def __sub__(self, other: "BiSeries") -> "BiSeries":
        return self + other.scale(Fraction(-1))

    def scale(self, factor: Fraction) -> "BiSeries":
        return BiSeries(
            self.j_cap,
            self.b_cap,
            {key: factor * val for key, val in self.coeff.items()},
        )

    def __mul__(self, other: "BiSeries") -> "BiSeries":
        self._check_caps(other)
        total: dict[tuple[int, int], Fraction] = {}
        for (j1, b1), v1 in self.coeff.items():
            for (j2, b2), v2 in other.coeff.items():
                j, b = j1 + j2, b1 + b2
                if j > self.j_cap or b > self.b_cap:
                    continue
                key = (j, b)
                total[key] = total.get(key, _ZERO) + v1 * v2
        return BiSeries(self.j_cap, self.b_cap, total)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BiSeries):
            return NotImplemented
        return (
            self.j_cap == other.j_cap
            and self.b_cap == other.b_cap
            and self.coeff == other.coeff
        )

    def _check_caps(self, other: "BiSeries") -> None:
        if self.j_cap != other.j_cap or self.b_cap != other.b_cap:
            raise ValueError("BiSeries operands must share truncation caps")

    @staticmethod
    def one(j_cap: int, b_cap: int) -> "BiSeries":
        return BiSeries(j_cap, b_cap, {(0, 0): _ONE})

    @staticmethod
    def from_x_poly(
        coeffs: dict[int, Fraction], j_cap: int, b_cap: int
    ) -> "BiSeries":
        """Embed a univariate polynomial in ``x`` (no ``m`` dependence)."""
        return BiSeries(j_cap, b_cap, {(0, b): v for b, v in coeffs.items()})


def _check_k(k: int) -> None:
    if not isinstance(k, int) or k < 1 or k > MAX_K:
        raise ValueError(f"k must be an integer in [1, {MAX_K}], got {k!r}")


def _exp_neg_x(b_cap: int) -> dict[int, Fraction]:
    """Series of exp(-x) through x**b_cap."""
    return {
        b: Fraction((-1) ** b, math.factorial(b)) for b in range(b_cap + 1)
    }


def _q_series(k: int, b_cap: int) -> dict[int, Fraction]:
    """Series of Q(k, x) = exp(-x) * sum_{i<k} x**i / i!."""
    expneg = _exp_neg_x(b_cap)
    out: dict[int, Fraction] = {}
    for i in range(k):
        w = Fraction(1, math.factorial(i))
        for b, v in expneg.items():
            if b + i <= b_cap:
                out[b + i] = out.get(b + i, _ZERO) + w * v
    return out


def _exp_xk_over_kfact(k: int, b_cap: int) -> dict[int, Fraction]:
    """Series of exp(x**k / k!) through x**b_cap."""
    kfact = math.factorial(k)
    out: dict[int, Fraction] = {}
    n = 0
    while n * k <= b_cap:
        out[n * k] = Fraction(1, kfact**n * math.factorial(n))
        n += 1
    return out


def _poly_mul(
    u: dict[int, Fraction], v: dict[int, Fraction], b_cap: int
) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for b1, c1 in u.items():
        for b2, c2 in v.items():
            b = b1 + b2
            if b <= b_cap:
                out[b] = out.get(b, _ZERO) + c1 * c2
    return {b: c for b, c in out.items() if c != 0}


def _poly_inverse(u: dict[int, Fraction], b_cap: int) -> dict[int, Fraction]:
    """Reciprocal series of ``u`` with ``u[0] == 1``."""
    if u.get(0, _ZERO) != 1:
        raise ValueError("series inversion needs constant term 1")
    inv: dict[int, Fraction] = {0: _ONE}
    for b in range(1, b_cap + 1):
        acc = _ZERO
        for i in range(1, b + 1):
            ui = u.get(i, _ZERO)
            if ui != 0:
                acc += ui * inv.get(b - i, _ZERO)
        if acc != 0:
            inv[b] = -acc
    return inv


def _binom_m_poly(t: int) -> dict[int, Fraction]:
    """Coefficients (in powers of m) of binomial(m, t) = m(m-1)...(m-t+1)/t!."""
    poly: dict[int, Fraction] = {0: _ONE}
    for s in range(t):
        nxt: dict[int, Fraction] = {}
        for j, c in poly.items():
            nxt[j + 1] = nxt.get(j + 1, _ZERO) + c
            if s:
                nxt[j] = nxt.get(j, _ZERO) - c * s
        poly = nxt
    w = Fraction(1, math.factorial(t))
    return {j: c * w for j, c in poly.items() if c != 0}


def _inner_series(k: int, b_cap: int) -> dict[int, Fraction]:
    """Series of exp(x**k/k!) * Q(k, x), the base raised to the m-th power."""
    return _poly_mul(_exp_xk_over_kfact(k, b_cap), _q_series(k, b_cap), b_cap)


def _symbolic_power(
    base: dict[int, Fraction], k: int, b_cap: int
) -> BiSeries:
    """Expand ``base(x)**m`` with ``m`` symbolic, truncated at ``b_cap``.

    ``base`` must have constant term 1; writing ``base = 1 + p`` with
    ``ord(p) >= k + 1``, the binomial series ``sum_t binom(m, t) p**t``
    terminates once ``t * (k + 1) > b_cap``.
    """
    if base.get(0, _ZERO) != 1:
        raise ValueError("symbolic power needs constant term 1")
    p = {b: c for b, c in base.items() if b > 0}
    if p and min(p) < k + 1:
        raise ValueError("perturbation must vanish through order k")
    t_max = b_cap // (k + 1)
    j_cap = t_max
    result = BiSeries(j_cap, b_cap)
    p_power: dict[int, Fraction] = {0: _ONE}
    for t in range(t_max + 1):
        if t:
            p_power = _poly_mul(p_power, p, b_cap)
        m_poly = _binom_m_poly(t)
        term = {
            (j, b): cm * cx
            for j, cm in m_poly.items()
            for b, cx in p_power.items()
        }
        result = result + BiSeries(j_cap, b_cap, term)
    return result


@lru_cache(maxsize=None)
def expand_core(k: int) -> BiSeries:
    """Bivariate expansion of ``(exp(x**k/k!) * Q(k, x))**m``.

    The result's ``(j, b)`` entry is the exact coefficient of
    ``m**j * x**b``.  Within the window ``1 <= j <= k``,
    ``j*k + j <= b <= j*k + k`` these are the C5 coefficients; entries
    beyond the window are still exact but belong to higher-order bands.
    """
    _check_k(k)
    b_cap = _x_cap(k)
    return _symbolic_power(_inner_series(k, b_cap), k, b_cap)


@lru_cache(maxsize=None)
def expand_h0(k: int) -> BiSeries:
    """Bivariate expansion of ``h0(x) * (exp(x**k/k!) * Q(k, x))**m``.

    ``h0(x) = exp(-x) / (2*Q(k, x) - 1)`` is the conditional weight that
    appears when the root's k-th clock is fixed.  The ``(j, b)`` entries
    with ``j >= 1`` in the window are the C6 coefficients.
    """
    _check_k(k)
    b_cap = _x_cap(k)
    num = _exp_neg_x(b_cap)
    den = {b: 2 * c for b, c in _q_series(k, b_cap).items()}
    den[0] = den.get(0, _ZERO) - 1
    h0 = _poly_mul(num, _poly_inverse(den, b_cap), b_cap)
    core = expand_core(k)
    return BiSeries.from_x_poly(h0, core.j_cap, core.b_cap) * core


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


@lru_cache(maxsize=None)
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
    _check_k(k)
    if not isinstance(r, int) or r < 1 or r > k:
        raise ValueError(f"r must be an integer in [1, k={k}], got {r!r}")
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
    lg = math.log2(n)
    out = (k / r) * lg + math.log2(lg)
    for i in range(1, k + 1):
        out += table.c1[i] * lg ** (1.0 - i / k)
    return out
