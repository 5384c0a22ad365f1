"""Exact and asymptotic moments of record counts.

The probability that a fixed node is an ``r``-record is a
one-dimensional integral: with ``g_r`` the Gamma(r, 1) density and
``Q(k, x)`` the survival function of a Gamma(k, 1) clock,

    P(record) = integral_0^y g_r(x) * Q(k, x)**ancestors dx,

where ``ancestors`` counts the independent clocks that must outlast the
node's ``r``-th clock and ``y`` caps the node's clock when the root's
removal time is conditioned on.  ``record_prob`` evaluates this by
``_gauss_kronrod``, adaptive Gauss--Kronrod 7--15 (the QUADPACK pair of
Piessens et al., 1983) in numpy, whose error estimate ``abserr`` must
certify 1e-11; ``expected_records`` sums it over the exact per-height
node counts of a complete binary tree, from
:meth:`kcut.cutsim.CompleteTree.size_classes`, with every height in one
call of the rule; ``asymptotic_mean`` evaluates the closed-form
approximation the sums converge to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import series
from .cutsim import CompleteTree, _as_int, _int_in

__all__ = [
    "MeanQuery",
    "QuadratureError",
    "record_prob",
    "expected_records",
    "asymptotic_mean",
]

# Absolute error every record probability must certify, and the absolute
# and relative error the rule is asked for.
_QUAD_TOL = 1.0e-11
_QUAD_EPS = 1.0e-13
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
        object.__setattr__(self, "n", _as_int("n", self.n))
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n!r}")
        object.__setattr__(self, "k", _int_in("k", self.k, 1))
        object.__setattr__(self, "r", _int_in("r", self.r, 1, self.k))
        if not self.y > 0.0:
            raise ValueError(f"y must be positive, got {self.y!r}")
        if self.variant not in ("node", "edge"):
            raise ValueError(f"variant must be node or edge, got {self.variant!r}")
        if self.variant == "edge" and not math.isinf(self.y):
            raise ValueError(
                "edge variant fixes the root clock at infinity; "
                "a finite y is contradictory"
            )


# The Gauss--Kronrod 7--15 pair on [-1, 1] (QUADPACK's qk15): Kronrod
# nodes from -1 to 1 with their weights, and the 7-point Gauss weights on
# the odd-numbered nodes (0 on the others).
_GK_X = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
])
_GK_X = np.concatenate([-_GK_X[:-1], _GK_X[::-1]])
_GK_W = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_GK_W = np.concatenate([_GK_W[:-1], _GK_W[::-1]])
_G_W = np.zeros(15)
_G_W[1::2] = [
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
    0.381830050505118944950369775488975, 0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
]
# Most subintervals one integral may be cut into.
_GK_LIMIT = 200
_EPMACH = float(np.finfo(float).eps)
_UFLOW = float(np.finfo(float).tiny)


def _gk15(f, lo: np.ndarray, hi: np.ndarray, owner: np.ndarray):
    """Value and QUADPACK error estimate of the 15-point Kronrod rule on
    each interval ``[lo[j], hi[j]]`` of integral ``owner[j]``."""
    half = 0.5 * (hi - lo)
    x = 0.5 * (hi + lo)[:, None] + half[:, None] * _GK_X
    fx = f(x, owner[:, None])
    kronrod, gauss = fx @ _GK_W, fx @ _G_W
    scale = np.abs(half)
    resabs = np.abs(fx) @ _GK_W * scale
    resasc = np.abs(fx - 0.5 * kronrod[:, None]) @ _GK_W * scale
    err = np.abs((kronrod - gauss) * half)
    with np.errstate(divide="ignore", invalid="ignore"):
        shaped = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), shaped, err)
    floor = np.where(resabs > _UFLOW / (50.0 * _EPMACH), 50.0 * _EPMACH * resabs, 0.0)
    return kronrod * half, np.maximum(err, floor)


def _gauss_kronrod(
    f, lo: np.ndarray, hi: np.ndarray, owner: np.ndarray, epsabs: float,
    epsrel: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of ``f`` by adaptive Gauss--Kronrod 7--15, all at once.

    Integral ``i`` is the sum over the intervals ``[lo[j], hi[j]]`` with
    ``owner[j] == i``; ``f(x, i)`` takes an ``(m, 15)`` array of points
    and the ``(m, 1)`` integral indices of its rows.  Each round prices
    every open interval of every open integral in one call of ``f``.  An
    integral closes once its summed error estimate is at most
    ``max(epsabs, epsrel * |value|)``; until then, each of its intervals
    whose estimate exceeds that tolerance over its interval count is
    halved.  An integral that would pass ``_GK_LIMIT`` intervals closes
    as it stands, so its ``abserr`` shows the shortfall.  Returns
    ``(values, abserrs)``, one per integral; the caller checks them.
    """
    n = int(owner.max(initial=-1)) + 1
    values, abserrs = np.zeros(n), np.zeros(n)
    val, err = _gk15(f, lo, hi, owner)
    while owner.size:
        total = np.bincount(owner, val, n)
        bound = np.bincount(owner, err, n)
        pieces = np.bincount(owner, minlength=n)
        tol = np.maximum(epsabs, epsrel * np.abs(total))
        split = err > (tol / np.maximum(pieces, 1))[owner]
        grown = pieces + np.bincount(owner, split, n)
        close = (pieces > 0) & ((bound <= tol) | (grown > _GK_LIMIT))
        values[close], abserrs[close] = total[close], bound[close]
        keep = ~close[owner]
        split &= keep
        stay = keep & ~split
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_owner = np.concatenate([owner[split], owner[split]])
        new_val, new_err = _gk15(f, new_lo, new_hi, new_owner)
        lo = np.concatenate([lo[stay], new_lo])
        hi = np.concatenate([hi[stay], new_hi])
        owner = np.concatenate([owner[stay], new_owner])
        val = np.concatenate([val[stay], new_val])
        err = np.concatenate([err[stay], new_err])
    return values, abserrs


def _log_integrand(r: int, k: int, ancestors, x: np.ndarray) -> np.ndarray:
    """``log(g_r(x) Q(k, x)**ancestors)`` for ``x > 0``, with ``log Q(k,
    x)`` from :func:`kcut.specfun.log_q_int`, which keeps its relative
    accuracy where ``Q`` is near 1."""
    # Imported here so that `kcut.cli`, which imports this module, does not
    # load specfun for the commands that never integrate.
    from . import specfun

    out = -x - math.lgamma(r)
    if r > 1:
        out += (r - 1) * np.log(x)
    return out + ancestors * specfun.log_q_int(k, x)


def _record_probs(
    r: int, k: int, ancestors: np.ndarray, y: float
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`record_prob` for every entry of ``ancestors`` (floats), in
    one call of the rule, with each one's ``abserr``; unchecked."""
    # Push each cutoff past the integrand's mode and into the tail.
    x_max = np.full(ancestors.shape, float(max(2 * r, 2)))
    while True:
        grow = (_log_integrand(r, k, ancestors, x_max) > _LOG_CUTOFF) & (
            x_max <= 1.0e6
        )
        if not grow.any():
            break
        x_max[grow] *= 2.0

    def integrand(x: np.ndarray, i: np.ndarray) -> np.ndarray:
        return np.exp(_log_integrand(r, k, ancestors[i], x))

    return _gauss_kronrod(
        integrand, np.zeros(ancestors.shape), np.minimum(y, x_max),
        np.arange(ancestors.size), _QUAD_EPS, _QUAD_EPS,
    )


def _certified(abserrs: np.ndarray) -> None:
    worst = float(abserrs.max(initial=0.0))
    if worst > _QUAD_TOL:
        raise QuadratureError(worst, _QUAD_TOL)


def record_prob(r: int, k: int, ancestors: int, y: float) -> float:
    """Probability that a node with the given ancestor count is an
    ``r``-record, with its own clock capped at ``y``.

    Evaluates ``integral_0^y x**(r-1) e**(-x) / (r-1)! * Q(k, x)**ancestors
    dx`` by adaptive Gauss--Kronrod 7--15 on ``[0, min(y, X)]``, where
    ``X`` is chosen beyond the integrand's exponential tail.  The rule's
    error estimate ``abserr`` certifies the value: above 1e-11 it raises
    :class:`QuadratureError`.
    """
    k = _int_in("k", k, 1)
    r = _int_in("r", r, 1, k)
    ancestors = _as_int("ancestors", ancestors)
    if ancestors < 0:
        raise ValueError(f"ancestors must be >= 0, got {ancestors!r}")
    if not y > 0.0:
        raise ValueError(f"y must be positive, got {y!r}")
    value, abserr = _record_probs(r, k, np.array([float(ancestors)]), y)
    _certified(abserr)
    return float(value[0])


def _expected_records(query: MeanQuery) -> tuple[float, float]:
    """:func:`expected_records` and its absolute error bound, the
    node-count-weighted sum of the record probabilities' ``abserr``."""
    levels = CompleteTree(query.n).size_classes()
    unconditional = query.variant == "node" and math.isinf(query.y)
    heights = np.arange(1.0, len(levels))
    ancestors, y = (heights, math.inf) if unconditional else (heights - 1.0, query.y)
    probs, abserrs = _record_probs(query.r, query.k, ancestors, y)
    _certified(abserrs)
    total = 1.0 if unconditional else 0.0  # the root is always a record
    bound = 0.0
    for level, prob, abserr in zip(levels[1:], probs.tolist(), abserrs.tolist()):
        count = sum(c for _, c in level)
        total += count * prob
        bound += count * abserr
    return total, bound


def expected_records(query: MeanQuery) -> float:
    """Expected number of ``r``-records in a complete binary tree.

    Sums ``record_prob`` over heights with the exact per-height node
    counts, all heights in one call of the rule:

    - node variant, unconditional (``y = inf``): the root contributes 1
      and a height-``i`` node has ``i`` ancestors (root included);
    - node variant, conditional on the root's removal time ``y``: the
      root is excluded, a height-``i`` node has ``i - 1`` free ancestor
      clocks, and its own clock is capped at ``y``;
    - edge variant: like the conditional form with ``y = inf`` (the
      root's clock never rings).
    """
    return _expected_records(query)[0]


def asymptotic_mean(n: int, k: int, r: int) -> float:
    """Closed-form approximation of the unconditional node-variant mean.

    With ``lg = lg n``, ``m = floor(lg)``, ``alpha = lg - m``, ``C2`` from
    :func:`kcut.series.constants` and the centering sequence ``mu``:

        E X ~ C2(r) * n / lg**(r/k + 1) * (mu(r, n) - lg lg n + alpha)
              + C2(r) * 2**(m+1) / lg**(r/k + 1).

    The ``alpha`` term keeps the constant order exact; at full trees
    (``alpha -> 1``) the ``k = r`` case then reproduces the harmonic-sum
    expansion ``2**(m+1) * (1/m + 2/m**3 + O(m**-4))`` through its
    ``1/m**2`` term.
    """
    n = _as_int("n", n)
    if n < 4:
        raise ValueError(f"asymptotic mean needs n >= 4, got {n!r}")
    lg = math.log2(n)
    m = n.bit_length() - 1
    alpha = lg - m
    table = series.constants(k, r)
    k, r = table.k, table.r  # Python ints, as constants checked them
    scale = table.c2 / lg ** (r / k + 1.0)
    centered = series.mu(r, k, n) - math.log2(lg) + alpha
    # scale * (n * centered + 2**(m+1)), with n = ratio * 2**(m+1) taken
    # apart so that no float holds n: the same bits where n is a float,
    # and finite wherever the mean is.
    ratio = n / (1 << (m + 1))
    try:
        return math.ldexp(scale * (ratio * centered + 1.0), m + 1)
    except OverflowError:
        raise OverflowError(
            f"the asymptotic mean at n = 2**{lg:.6g} exceeds the float range"
        ) from None
