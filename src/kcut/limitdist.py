"""The infinitely divisible limit law of rescaled record counts.

The limit variable ``W`` (parameterized by the record order ``r``, the
cut threshold ``k``, and the subsequence parameter ``gamma``) has
characteristic function

    E exp(itW) = exp( i*f*t + integral_0^inf (e^{itx} - 1
                      - itx*1[x<1]) d nu(x) ),

where ``nu`` is a Levy measure on (0, inf) whose density is a
log-periodic series in ``Q^{-1}(a, .)`` with ``a = r/k``, and ``f`` is
an explicit drift constant.  The density obeys the dyadic scaling
``dens(2u) = dens(u)/4``, which this module exploits everywhere: every
integral over (0, inf) is folded onto the reference block [1, 2].

Provided here:

- ``levy_density`` / ``levy_tail``  -- the series at an array of points;
- ``levy_block_mean``               -- exact ``integral x d nu`` over an
  interval, via a closed-form antiderivative per series term;
- ``levy_block_moment2``            -- quadrature ``integral x**2 d nu``;
- ``f_constant``                    -- the drift series;
- ``char_fn``                       -- the characteristic function,
  assembled from dyadic blocks of the folded integrals, which are
  priced for a whole array of frequencies in one pass;
- ``limit_cdf``                     -- CDF of the limit ``1 - C3*W`` by
  characteristic-function inversion (Gil-Pelaez), with a cached
  Filon-type quadrature so one transform evaluation serves arbitrarily
  many points, each block of points costing a few matrix products; the
  blocks run on all CPUs (:func:`kcut.cutsim.resolve_threads`);
- ``cdf_certificate``               -- the accuracy data of that cache;
- ``xi_sampler_batch``              -- the fast triangular-array
  sampler at cost polylog(n) per draw, for any ``n``.  Its sums
  are centred by the array's exact truncated mean, one quadrature per
  weight class, and converge in law to the same limit.  For ``a != 1``
  it prices ``Q`` only on the clocks whose terms can add up to 1e-13.
  Along the fixed-gamma ladder ``n = 2**40, 2**80, 2**160`` the KS
  distance to ``limit_cdf`` falls as 0.073, 0.045, 0.028 for (r, k) =
  (1, 1) and 0.089, 0.059, 0.039 for (1, 2) (seed 20260825, 100k
  draws).

Every evaluation of ``Q`` and ``Q^{-1}``, scalar or vectorized, goes
through :mod:`kcut.specfun`, the package's one scipy-backed route; every
Levy series sums ``s = 1..s_max`` of one ``_thetas`` array call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate, special
from scipy.interpolate import CubicSpline

from . import series, specfun
from .cutsim import (
    CompleteTree, _as_int, _check_samples, _on_workers, _run_batch,
    _worker_count,
)

__all__ = [
    "LimitParams",
    "ScaleParams",
    "NumericError",
    "levy_density",
    "levy_tail",
    "levy_block_mean",
    "levy_block_moment2",
    "f_constant",
    "char_fn",
    "limit_cdf",
    "cdf_certificate",
    "xi_sampler_batch",
]


class NumericError(ArithmeticError):
    """A numerical procedure could not certify its target accuracy."""


@dataclass(frozen=True)
class LimitParams:
    """Parameters of the limit law.

    ``gamma`` may be any value in [0, 1]; the law is periodic, so 0 and
    1 describe the same distribution (both endpoints are accepted
    because a subsequence with fractional parts near both ends is
    ambiguous between them).  ``s_max`` is the number of terms of every
    log-periodic series; it must lie in [56, 1000], where the omitted
    remainder is below 1e-14 of each sum and every term is finite (see
    ``_thetas``).
    """

    r: int
    k: int
    gamma: float
    s_max: int = 80

    def __post_init__(self) -> None:
        series._check_k(self.k)
        series._check_r(self.r, self.k)
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma!r}")
        if not isinstance(self.s_max, int) or not 56 <= self.s_max <= 1000:
            raise ValueError(f"s_max must lie in [56, 1000], got {self.s_max!r}")

    @property
    def a(self) -> float:
        """Shape parameter ``r/k`` of the underlying gamma laws."""
        return self.r / self.k


@dataclass(frozen=True)
class ScaleParams:
    """Size-derived quantities entering the triangular-array sampler.

    For a tree on ``n`` nodes: ``m = floor(lg n)``; ``ell = floor(lg lg
    n)``; ``alpha = frac(lg n)``; ``beta = frac(lg lg n)``; the sampler
    truncates the node sum at height ``L = floor((2 - 1/(2k)) lg lg
    n)``.  The induced subsequence parameter is ``frac(alpha - beta)``.
    """

    n: int
    k: int
    m: int
    ell: int
    L: int
    alpha: float
    beta: float

    @staticmethod
    def from_n(n: int, k: int) -> "ScaleParams":
        n = _as_int("n", n)
        if n < 16:
            raise ValueError(f"scale parameters need n >= 16, got {n!r}")
        series._check_k(k)
        lg = math.log2(n)
        lglg = math.log2(lg)
        m = n.bit_length() - 1
        ell = math.floor(lglg)
        big_l = math.floor((2.0 - 1.0 / (2.0 * k)) * lglg)
        return ScaleParams(
            n=n,
            k=k,
            m=m,
            ell=ell,
            L=big_l,
            alpha=lg - m,
            beta=lglg - ell,
        )

    @property
    def gamma(self) -> float:
        """Subsequence parameter ``frac(alpha - beta)``."""
        return (self.alpha - self.beta) % 1.0


# ---------------------------------------------------------------------------
# The Levy series: density, tail, block mean, drift.
# ---------------------------------------------------------------------------

# Entries per array in one pass of the series, the quadrature or the CDF
# evaluation (512 kB of float64): small enough to stay in the L2 cache.
_PASS_SIZE = 1 << 16


def _c_of(x, p: LimitParams) -> tuple[np.ndarray, np.ndarray]:
    """Period index ``K`` and phase ``c`` of the series at ``x``: the
    integer and fractional parts of ``gamma + lg(x / gamma(a))``.  The
    wrap points, where ``c`` jumps from 1 to 0, are ``gamma(a) * 2**(K -
    gamma)``."""
    return np.divmod(p.gamma + np.log2(x / math.gamma(p.a)), 1.0)


def _thetas(c, p: LimitParams) -> tuple[np.ndarray, np.ndarray]:
    """``y = 2**(c - s)`` and ``theta = q_inv(a, y)`` for ``s = 1..s_max``,
    shape ``c.shape + (s_max,)``, from one array call of ``q_inv``.

    Every series of the Levy measure sums its term over this whole axis,
    so the fixed ``s_max`` is the one truncation rule.  By the envelope
    ``theta_s <= log(1/y_s) = (s - c) ln 2`` each term of each series is
    at most a constant of the shape times ``2**(c-s) * (s - c)``, and the
    omitted remainder falls geometrically in ``s_max``.  Over every shape
    ``r/k`` with ``k <= 8`` and 256 phases, ``s_max >= 56`` keeps it below
    1e-14 of the tail (50 suffice for the density), and below 1e-14
    absolute in the drift and the block-mean antiderivative (51 terms).
    ``s_max <= 1000`` keeps ``y`` a normal float, so ``theta`` is finite.
    :class:`LimitParams` enforces both ends.
    """
    c = np.asarray(c, dtype=float)
    y = 2.0 ** (c[..., None] - np.arange(1, p.s_max + 1))
    return y, specfun.q_inv(p.a, y)


def _density_terms(c, p: LimitParams) -> tuple[np.ndarray, np.ndarray]:
    """Density-series terms ``4**(c-s) exp(theta_s) theta_s**(1-a)`` at
    the phases ``c``, built in place with ``4**(c-s)`` inside the ``exp``
    (``exp(theta_s)`` overflows for ``s >= 1024``), and ``theta_1``."""
    c = np.asarray(c, dtype=float)
    y, theta = _thetas(c, p)
    theta1 = theta[..., 0].copy()
    terms = np.subtract(c[..., None], np.arange(1, p.s_max + 1), out=y)
    terms *= 2.0 * math.log(2.0)
    terms += theta
    np.exp(terms, out=terms)
    terms *= np.power(theta, 1.0 - p.a, out=theta)
    return terms, theta1


def _support(x, what: str) -> np.ndarray:
    """``x`` as a float array, once every entry is finite and positive."""
    x = np.asarray(x, dtype=float)
    bad = x[~(np.isfinite(x) & (x > 0.0))]
    if bad.size:
        raise ValueError(f"{what} must be finite and > 0, got {float(bad[0])!r}")
    return x


def _per_point(x, p: LimitParams, what: str, row_sum):
    """``row_sum(x_block, c_block)`` at every finite ``x > 0``, in blocks
    of at most ``_PASS_SIZE`` series terms, so memory stays bounded for
    any size of ``x``; a 0-d ``x`` gives a float."""
    x = _support(x, what)
    flat, out = x.ravel(), np.empty(x.size)
    step = max(1, _PASS_SIZE // p.s_max)
    for i in range(0, x.size, step):
        block = flat[i : i + step]
        out[i : i + step] = row_sum(block, _c_of(block, p)[1])
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def _interval(lo: float, hi: float) -> np.ndarray:
    """``[lo, hi]`` as an array, once both are finite and ``0 < lo < hi``."""
    ends = _support([lo, hi], "interval end")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got lo={lo!r}, hi={hi!r}")
    return ends


def levy_density(x, p: LimitParams):
    """Levy-measure density at every finite ``x > 0`` (vectorized; a
    0-d ``x`` gives a float).

    Evaluates ``(gamma(a)**2 / x**2) * sum_{s=1}^{s_max} 4**(c-s) *
    exp(theta_s) * theta_s**(1-a)`` with ``theta_s = q_inv(a, 2**(c-s))``
    and ``c = frac(gamma + lg(x / gamma(a)))``; :func:`_thetas` states
    the truncation bound.
    """
    ga = math.gamma(p.a)

    def row_sum(x, c):
        return ga * ga / (x * x) * _density_terms(c, p)[0].sum(axis=-1)

    return _per_point(x, p, "density point x", row_sum)


def levy_tail(x, p: LimitParams):
    """Mass of the Levy measure on ``(x, inf)`` at every finite ``x > 0``
    (vectorized; a 0-d ``x`` gives a float).

    Series form ``(gamma(a)/x) * sum_{s=1}^{s_max} 2**(c-s) * theta_s``
    with the same ``c`` and ``theta_s`` as :func:`levy_density`; its
    negated derivative in ``x`` is the density.
    """
    def row_sum(x, c):
        y, theta = _thetas(c, p)
        return math.gamma(p.a) / x * np.multiply(y, theta, out=y).sum(axis=-1)

    return _per_point(x, p, "tail point x", row_sum)


def levy_block_mean(p: LimitParams, lo: float, hi: float) -> float:
    """Exact ``integral_lo^hi x d nu`` (closed-form antiderivatives).

    The interval is split at the wrap points ``gamma(a) * 2**(K -
    gamma)``.  On each piece, with phases ``c_lo`` to ``c_hi``, each
    series term of ``x * density`` has the exact antiderivative
    ``gamma(1+a) * Q(1+a, theta) - gamma(a) * 2**(c-s) * theta`` with
    ``theta = q_inv(a, 2**(c-s))``.  Over any full period such as [1, 2]
    the sum telescopes to ``gamma(1 + a)`` independently of ``gamma``.
    """
    (k_lo, k_hi), (c_lo, c_hi) = _c_of(_interval(lo, hi), p)
    # Row 0 holds the pieces' lower phases, row 1 their upper ones.  At an
    # interior wrap the phase is exactly 1 on the left and exactly 0 on
    # the right, so assign those values structurally instead of
    # re-evaluating the fractional part at a rounded breakpoint.
    ends = np.empty((2, int(k_hi - k_lo) + 1))
    ends[0], ends[1] = 0.0, 1.0
    ends[0, 0], ends[1, -1] = c_lo, c_hi
    y, theta = _thetas(ends, p)
    anti = math.gamma(1.0 + p.a) * specfun.q(1.0 + p.a, theta)
    anti -= math.gamma(p.a) * y * theta
    return float((anti[1] - anti[0]).sum())


_QUAD_TOL = 1.0e-11  # absolute tolerance of non-oscillatory quadratures


def levy_block_moment2(p: LimitParams, lo: float, hi: float) -> float:
    """``integral_lo^hi x**2 d nu`` by adaptive quadrature of the scalar
    density (no closed antiderivative exists for this moment)."""
    k_lo, k_hi = _c_of(_interval(lo, hi), p)[0]
    pts = math.gamma(p.a) * 2.0 ** (np.arange(k_lo + 1, k_hi + 1) - p.gamma)
    pts = pts[(lo < pts) & (pts < hi)]
    value, abserr = integrate.quad(
        lambda x: x * x * levy_density(x, p),
        lo,
        hi,
        points=pts if pts.size else None,
        epsabs=1.0e-12,
        epsrel=1.0e-12,
        limit=200,
    )
    if abserr > max(_QUAD_TOL, 1.0e-9 * abs(value)):
        raise NumericError(
            f"moment quadrature error {abserr:.2e} above tolerance"
        )
    return value


@lru_cache(maxsize=8)
def f_constant(p: LimitParams) -> float:
    """Drift constant of the limit law.

    With ``c = frac(gamma - lg gamma(a))``, the phase at ``x = 1``, and
    ``theta_t = q_inv(a, 2**(c-t))``:

        f = sum_t exp(-theta_t) * theta_t**a
            - gamma(a) * sum_t 2**(c-t) * theta_t
            + gamma(1+a) * (2**c - c - lg gamma(a) - 1).

    For ``r = k`` the two series cancel termwise and f reduces to
    ``2**gamma - gamma - 1``.  The series run to ``s_max`` (see
    :func:`_thetas`).
    """
    a = p.a
    ga = math.gamma(a)
    c = float(_c_of(1.0, p)[1])
    y, theta = _thetas(c, p)
    drift = np.exp(-theta) * theta**a - ga * y * theta
    closed = math.gamma(1.0 + a) * (2.0**c - c - math.log2(ga) - 1.0)
    return float(drift.sum()) + closed


# ---------------------------------------------------------------------------
# Fast vectorized density profile (spline-backed).
# ---------------------------------------------------------------------------

_GRID = 4096


class _Profile:
    """Vectorized evaluator of the periodic density profile.

    Writes ``dens(x) = (gamma(a)**2 / x**2) * P(c(x))`` and splits
    ``P(c) = G1(c) + P2(c)``: the first series term (which vanishes
    algebraically as ``c -> 1``) and the smooth remainder.  ``P2`` is
    cubic-splined on a fine grid; ``G1`` goes through a spline of
    ``theta_1**a`` (a nearly linear function of ``c``), keeping the
    algebraic endpoint behavior exact in form.  The grid's series terms
    come from one ``_thetas`` call: column 0 gives ``theta_1``, the
    other columns sum to ``P2``.  The series itself
    (:func:`levy_density`) is the reference the tests pin the splines
    against.
    """

    def __init__(self, p: LimitParams) -> None:
        self.p = p
        a = p.a
        self.a = a
        self.ga = math.gamma(a)
        cgrid = np.linspace(0.0, 1.0, _GRID + 1)
        terms, theta1 = _density_terms(cgrid, p)
        self._p2 = CubicSpline(cgrid, terms[:, 1:].sum(axis=1))
        self._dp2 = self._p2.derivative()
        u1 = theta1**a
        u1[-1] = 0.0  # exact limit at c = 1
        self._u1 = CubicSpline(cgrid, u1)
        # Kink location in the reference block [1, 2).
        self.kink = 2.0 ** ((math.log2(self.ga) - p.gamma) % 1.0)
        self.c_at_1 = float(_c_of(1.0, p)[1])
        # Small moments of the reference block, used by series tails and
        # the characteristic-function assembly.
        self.mass12 = levy_tail(1.0, p) - levy_tail(2.0, p)
        self.mean12 = levy_block_mean(p, 1.0, 2.0)
        self._ref_moments = self._block_moments()

    # -- pointwise profile -------------------------------------------------

    def profile(self, c: np.ndarray) -> np.ndarray:
        """P(c) for c in [0, 1)."""
        u = np.maximum(self._u1(c), 0.0)
        theta1 = u ** (1.0 / self.a)
        g1 = np.exp((2.0 * math.log(2.0)) * (c - 1.0) + theta1) * u ** (
            (1.0 - self.a) / self.a
        )
        return g1 + self._p2(c)

    def dens(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.ga**2 / (x * x) * self.profile(_c_of(x, self.p)[1])

    # -- one-sided boundary data for integration by parts ------------------

    def _dprofile(self, c: float, at_wrap_left: bool = False) -> float:
        """dP/dc, with the exact one-sided limit at the wrap.

        Only used on the smooth-enough cases (a = 1 or a <= 1/2) where
        the two-term integration-by-parts path is enabled.
        """
        a, ga = self.a, self.ga
        ln2 = math.log(2.0)
        if at_wrap_left:
            # s = 1 term as c -> 1-: theta -> 0.
            if a == 1.0:
                d1 = 2.0 * ln2 * 1.0 - ln2  # ln4*G1 + limit of the product
            elif a == 0.5:
                d1 = -(1.0 - a) * ga * ln2
            else:  # a < 1/2
                d1 = 0.0
            return d1 + float(self._dp2(1.0))
        u = max(float(self._u1(c)), 0.0)
        theta = u ** (1.0 / a)
        if theta <= 0.0:
            return float(self._dp2(c))
        g1 = math.exp(2.0 * ln2 * (c - 1.0) + theta) * theta ** (1.0 - a)
        dtheta_dc = -ga * math.exp(theta) * theta ** (1.0 - a) * (
            2.0 ** (c - 1.0) * ln2
        )
        inner = math.exp(theta) * theta ** (1.0 - a) * (
            1.0 + (1.0 - a) / theta
        )
        d1 = 2.0 * ln2 * g1 + 2.0 ** (2.0 * (c - 1.0)) * inner * dtheta_dc
        return d1 + float(self._dp2(c))

    def rho_boundary(self) -> dict[str, float]:
        """Density values/derivatives at the block boundaries and kink."""
        a, ga = self.a, self.ga
        ln2 = math.log(2.0)
        # Profile values at c -> 0+, the wrap c -> 1-, and c = c(1).
        p0, pc1 = map(float, self.profile(np.array([0.0, self.c_at_1])))
        p1_left = p0 + (1.0 if a == 1.0 else 0.0)
        y = self.kink
        out = {
            "rho_1": ga**2 * pc1,  # at x = 1 (c = c_at_1)
            "rho_2": ga**2 * pc1 / 4.0,  # dens(2)= dens(1)/4
            "rho_kink_left": ga**2 / (y * y) * p1_left,
            "rho_kink_right": ga**2 / (y * y) * p0,
            "kink": y,
        }
        if a == 1.0 or a <= 0.5:
            def drho(x: float, c: float, pval: float, wrap_left: bool) -> float:
                dp = self._dprofile(c, at_wrap_left=wrap_left)
                return ga**2 / x**3 * (dp / ln2 - 2.0 * pval)

            out["drho_1"] = drho(1.0, self.c_at_1, pc1, False)
            out["drho_2"] = drho(2.0, self.c_at_1, pc1, False)
            out["drho_kink_left"] = drho(y, 1.0, p1_left, True)
            out["drho_kink_right"] = drho(y, 0.0, p0, False)
        return out

    # -- reference-block moments -------------------------------------------

    def _block_moments(self) -> tuple[float, float, float]:
        """~1e-6-accurate (m2, m3, m4) moments of nu on [1, 2], used in
        truncation thresholds and small-frequency Taylor branches."""
        nodes, weights = np.polynomial.legendre.leggauss(64)
        m = np.zeros(3)
        for lo, hi in self._pieces():
            mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
            y = mid + half * nodes
            d = self.dens(y)
            for i, pw in enumerate((2, 3, 4)):
                m[i] += half * float(np.sum(weights * y**pw * d))
        return float(m[0]), float(m[1]), float(m[2])

    def _pieces(self) -> list[tuple[float, float]]:
        y = self.kink
        if 1.0 + 1.0e-12 < y < 2.0 - 1.0e-12:
            return [(1.0, y), (y, 2.0)]
        return [(1.0, 2.0)]


@lru_cache(maxsize=8)
def _profile(p: LimitParams) -> _Profile:
    return _Profile(p)


# ---------------------------------------------------------------------------
# Characteristic function.
# ---------------------------------------------------------------------------

_GL8 = np.polynomial.legendre.leggauss(8)
_T_OSC = 2000.0  # block frequency where quadrature gives way to IBP


def _gl_nodes(
    pieces: list[tuple[float, float]], keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of 8-point Gauss-Legendre rules on equal panels:
    ``keys[g, q]`` panels on piece ``q`` for group ``g``, group by group
    and piece by piece.  Panel edges are those of ``np.linspace``."""
    lo = np.tile([piece[0] for piece in pieces], len(keys))
    hi = np.tile([piece[1] for piece in pieces], len(keys))
    counts = keys.ravel()
    step = (hi - lo) / counts
    pair = np.repeat(np.arange(counts.size), counts)
    k = np.arange(pair.size) - np.repeat(np.cumsum(counts) - counts, counts)
    left = k * step[pair] + lo[pair]
    right = np.where(
        k + 1 == counts[pair], hi[pair], (k + 1) * step[pair] + lo[pair]
    )
    mid = 0.5 * (left + right)
    half = (0.5 * ((step + lo) - lo))[pair]
    nodes = (mid[:, None] + half[:, None] * _GL8[0][None, :]).ravel()
    return nodes, (half[:, None] * _GL8[1][None, :]).ravel()


class _CfMachine:
    """Evaluates ``I(t) = integral (e^{itx} - 1 - itx 1[x<1]) d nu``.

    Folding onto the reference block [1, 2]:

        I(t) = sum_{j>=1} 2**j  * Vm(t / 2**j)
             + sum_{j>=0} 2**-j * V (t * 2**j),

    where ``Vm(tau) = integral_1^2 (e^{i tau y} - 1 - i tau y) d nu`` and
    ``V(tau) = integral_1^2 (e^{i tau y} - 1) d nu``.  Low frequencies
    use panel Gauss-Legendre quadrature split at the profile's kink;
    ``Vm`` at tiny ``tau`` uses a Taylor branch in the block moments;
    ``V`` at frequencies above ``_T_OSC`` uses integration by parts with
    exact boundary data (two terms where the density is smooth enough,
    one term otherwise), and the far-block tail sums to
    ``-2**(1-J) * nu([1,2])`` in closed form.
    """

    def __init__(self, p: LimitParams) -> None:
        self.p = p
        self.prof = _profile(p)
        self.two_term = p.a == 1.0 or p.a <= 0.5
        self.bnd = self.prof.rho_boundary()

    # -- folded block integrals --------------------------------------------

    def _v_quad(
        self, tau: np.ndarray, compensated: np.ndarray | bool
    ) -> np.ndarray:
        """``Vm`` where ``compensated`` and ``V`` elsewhere, at every
        ``tau``, by panel Gauss-Legendre quadrature.

        Each piece of [1, 2] gets ``max(2, ceil(length * max(tau, 1) /
        pi))`` equal panels, so the frequencies with equal panel counts
        form a group that shares its nodes.  Consecutive groups share one
        density evaluation while their nodes fit in one pass, and each
        group's sums are row sums over its (tau, node) array.
        """
        compensated = np.broadcast_to(compensated, tau.shape)
        pieces = self.prof._pieces()
        counts = np.stack(
            [
                np.maximum(2.0, np.ceil((hi - lo) * np.maximum(tau, 1.0) / math.pi))
                for lo, hi in pieces
            ],
            axis=1,
        ).astype(np.int64)
        keys, group = np.unique(counts, axis=0, return_inverse=True)
        group = group.ravel()
        order = np.argsort(group, kind="stable")
        bounds = np.searchsorted(group[order], np.arange(len(keys) + 1))
        sizes = 8 * keys.sum(axis=1)
        ends = np.cumsum(sizes)
        begins = ends - sizes
        out = np.empty(tau.shape, dtype=complex)
        first = 0
        while first < len(keys):
            start = begins[first]
            last = max(
                first + 1,
                int(np.searchsorted(ends, start + _PASS_SIZE, side="right")),
            )
            y_all, w_all = _gl_nodes(pieces, keys[first:last])
            d_all = self.prof.dens(y_all) * w_all
            for g in range(first, last):
                nodes = slice(begins[g] - start, ends[g] - start)
                y, d = y_all[nodes], d_all[nodes]
                rows = order[bounds[g] : bounds[g + 1]]
                # Row sums rather than BLAS products keep each tau's value
                # independent of the other rows in its group.
                step = max(1, _PASS_SIZE // y.size)
                for i in range(0, rows.size, step):
                    sel = rows[i : i + step]
                    arg = np.multiply.outer(tau[sel], y)
                    s_half = np.sin(0.5 * arg)
                    real = -2.0 * (s_half * s_half * d).sum(axis=1)
                    imag = np.sin(arg)
                    comp = compensated[sel]
                    if comp.any():
                        a = arg[comp]
                        imag[comp] = np.where(
                            np.abs(a) < 1.0e-3,
                            -(a**3) / 6.0 * (1.0 - a * a / 20.0),
                            imag[comp] - a,
                        )
                    out[sel] = real + 1j * (imag * d).sum(axis=1)
            first = last
        return out

    def _v_ibp(self, tau: np.ndarray) -> np.ndarray:
        """``V`` at every ``tau`` beyond ``_T_OSC``, by integration by
        parts."""
        b = self.bnd
        y = b["kink"]
        i_tau = 1j * tau
        first = (
            np.exp(2j * tau) * b["rho_2"]
            - np.exp(1j * tau) * b["rho_1"]
            + np.exp(1j * tau * y) * (b["rho_kink_left"] - b["rho_kink_right"])
        ) / i_tau
        total = -self.prof.mass12 + first
        if self.two_term:
            second = (
                np.exp(2j * tau) * b["drho_2"]
                - np.exp(1j * tau) * b["drho_1"]
                + np.exp(1j * tau * y)
                * (b["drho_kink_left"] - b["drho_kink_right"])
            ) / (i_tau * i_tau)
            total -= second
        return total

    def _v(self, tau: np.ndarray, compensated: np.ndarray) -> np.ndarray:
        """``Vm`` where ``compensated`` and ``V`` elsewhere, at every ``tau
        > 0``: Taylor branch (``Vm`` only), quadrature, or integration by
        parts."""
        out = np.empty(tau.shape, dtype=complex)
        taylor = compensated & (tau <= 0.005)
        ibp = tau > _T_OSC
        quad = ~(taylor | ibp)
        if taylor.any():
            m2, m3, m4 = self.prof._ref_moments
            ts = tau[taylor]
            out[taylor] = (-0.5 * ts * ts * m2 + ts**4 / 24.0 * m4) + 1j * (
                -(ts**3) / 6.0 * m3
            )
        if quad.any():
            out[quad] = self._v_quad(tau[quad], compensated[quad])
        if ibp.any():
            out[ibp] = self._v_ibp(tau[ibp])
            shift = ibp & compensated
            out[shift] -= 1j * tau[shift] * self.prof.mean12
        return out

    # -- assembled exponent -------------------------------------------------

    def exponent(self, t) -> np.ndarray:
        """I(t) for every ``t >= 0`` of the array ``t`` (same shape out).

        All folded frequencies, ``t / 2**j`` for ``j = 1..j_lo(t)`` and
        ``t * 2**j`` for ``j = 0..24``, are gathered with their weights
        into one table, priced in one pass per branch, and summed per
        ``t``.
        """
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        m2 = max(self.prof._ref_moments[0], 1.0e-12)
        j_lo = np.maximum(
            1.0,
            np.ceil(np.log2(np.maximum(flat * flat * m2, 1.0e-30) / 1.0e-13)),
        ).astype(np.int64)
        j_hi = 24
        live = flat != 0.0
        # Row r scales t by folds[r]: 2**-(r+1) for the first j_max rows
        # (Vm, used while r < j_lo(t)), then 2**j for j = 0..j_hi (V).
        j_max = int(j_lo.max(initial=1))
        folds = np.concatenate(
            [2.0 ** -np.arange(1, j_max + 1), 2.0 ** np.arange(0, j_hi + 1)]
        )[:, None]
        row = np.arange(folds.size)[:, None]
        minus = row < j_max
        use = live & (~minus | (row < j_lo))
        taus = folds * flat
        terms = np.zeros(taus.shape, dtype=complex)
        terms[use] = self._v(
            taus[use], np.broadcast_to(minus, taus.shape)[use]
        ) * np.broadcast_to(1.0 / folds, taus.shape)[use]
        # Adding the folds row by row, in order, gives each t the same
        # value whatever else is in the batch.
        total = np.zeros(flat.size, dtype=complex)
        for fold in terms:
            total += fold
        total -= np.where(live, 2.0 ** (-j_hi) * self.prof.mass12, 0.0)
        return total.reshape(t.shape)


@lru_cache(maxsize=8)
def _machine(p: LimitParams) -> _CfMachine:
    return _CfMachine(p)


def char_fn(t: float, p: LimitParams) -> complex:
    """Characteristic function ``E exp(itW)``.

    ``exp(i f t + I(t))`` with the drift from :func:`f_constant` and the
    compensated Levy integral assembled by dyadic folding; satisfies
    ``char_fn(-t) = conj(char_fn(t))`` and ``|char_fn(t)| <= 1``.
    """
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    if t < 0.0:
        return complex(np.conj(char_fn(-t, p)))
    machine = _machine(p)
    return complex(
        np.exp(1j * f_constant(p) * t + machine.exponent(t))
    )


# ---------------------------------------------------------------------------
# CDF by characteristic-function inversion.
# ---------------------------------------------------------------------------

_T_FLOOR = 1.0e-10
_GEO_RATIO = 1.1
_PANEL_H = 0.25
# Upper end of the inversion integral.  |psi(16)| < 1e-12 for every shape
# r/k with k <= 8, so the panels past _T_MAX / 2 move the CDF far less
# than _CDF_TOL; _CdfCache measures that move as its certificate.
_T_MAX = 32.0
_CDF_TOL = 1.0e-4
# Probe grid of the CDF certificate, in omega = x - f.
_PROBE_OMEGA = np.concatenate(
    [
        -np.geomspace(40.0, 0.05, 25),
        np.linspace(-0.04, 0.04, 9),
        np.geomspace(0.05, 400.0, 40),
    ]
)
# Beyond |omega| = _FAR_OMEGA the CDF of W is 0 or 1 to double precision:
# its heavy right tail, about levy_tail(omega) ~ 1.5 / omega, is below
# 1e-99 there, far under half the spacing of doubles at 1 (2**-54), and
# its left tail is far lighter.  The phases omega * t of the inversion
# overflow from |omega| ~ 5.6e306 on, so these points are set directly.
_FAR_OMEGA = 1.0e100
# Terms of the power series of a panel's moments where |omega h| < 1/2.
_SERIES_TERMS = 18

# Inverse of the Vandermonde matrix on nodes {0, 1/3, 2/3, 1}: maps four
# samples to monomial coefficients in the scaled variable s = u/h.
_V4_INV = np.linalg.inv(
    np.vander(np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0]), 4, increasing=True)
)


def _im_table(table: np.ndarray) -> np.ndarray:
    """Real ``(m, 2 * panels)`` table whose columns ``2j`` and ``2j + 1``,
    times ``Re E_j`` and ``Im E_j``, sum to ``Im(E_j * table[j])``."""
    out = np.empty((table.shape[1], 2 * table.shape[0]))
    out[:, 0::2] = table.imag.T
    out[:, 1::2] = table.real.T
    return out


class _CdfCache:
    """Cached Gil-Pelaez inversion data for one parameter set.

    The integrand ``Im[char_fn(t) e^{-itx}]/t`` is rewritten with
    ``char_fn(t) = e^{itf} psi(t)`` so the oscillation frequency is
    ``omega = x - f``, and is split as ``1/t + (psi(t)-1)/t``; the first
    part integrates in closed form (the sine integral), the second is
    interpolated by panelwise cubics ``g_j`` whose oscillatory integrals
    are exact (a Filon rule).  The panels run to ``_T_MAX``, and ``psi``
    comes from one :meth:`_CfMachine.exponent` call on all distinct
    nodes.

    The build stores, per panel ``j`` of width ``h_j``, the power-series
    coefficients ``beta[j, n] = h_j**(n+1)/n! * sum_p c_jp/(p+n+1)`` of
    ``integral_0^h_j g_j(u) e^{zu} du`` in ``z = -i omega``, ``n < 18``,
    and the derivatives ``g_j^(k)`` at both panel ends, ``k <= 3``.  With
    one complex exponential ``E_j = exp(-i omega t_j)`` per (point,
    edge), a block of points then costs matrix products: ``E @ beta``
    plus Horner in ``z`` on the panels with ``|omega h_j| < 1/2``, and
    the exact four-term integration by parts ``sum_k (-1)**k z**-(k+1)
    (E_{j+1} g_j^(k)(h_j) - E_j g_j^(k)(0))`` on the others.  Only the
    imaginary part enters the CDF and ``z`` is imaginary, so the tables
    are kept real: each power of ``z`` picks the real or imaginary part
    of its coefficient (:func:`_im_table`).  So the CDF at any batch of
    points, however far in the tails, needs no further ``psi``.

    ``err_estimate`` is the largest change on a probe grid between the
    CDF summed over the panels that end at or below ``_T_MAX / 2`` and
    over all panels, plus the bound on the omitted tail beyond
    ``_T_MAX``.  It covers the truncation of the inversion integral
    only, not the cubic interpolation of ``psi`` or the error of
    ``psi`` itself.
    """

    def __init__(self, p: LimitParams) -> None:
        self.p = p
        self.f = f_constant(p)
        self._build(_machine(p))
        half = int(np.searchsorted(self.edges, 0.5 * _T_MAX, side="right")) - 1
        scratch = self._block_scratch(_PROBE_OMEGA.size)
        move = self._cdf_block(_PROBE_OMEGA, half, scratch) - self._cdf_block(
            _PROBE_OMEGA, len(self.coeffs), scratch
        )
        self.err_estimate = float(np.max(np.abs(move))) + self._tail_bound()

    def _tail_bound(self) -> float:
        psi_end = abs(self.psi_end)
        psi_mid = abs(self.psi_mid)
        if psi_end <= 0.0:
            return 0.0
        decay = (
            math.log(psi_mid / psi_end) / (0.5 * _T_MAX)
            if 0.0 < psi_end < psi_mid
            else 1.0
        )
        decay = max(decay, 1.0e-3)
        return psi_end / (math.pi * decay * _T_MAX)

    def _build(self, machine: _CfMachine) -> None:
        edges = [_T_FLOOR]
        while edges[-1] < 2.0:
            edges.append(edges[-1] * _GEO_RATIO)
        t = edges[-1]
        while t < _T_MAX:
            t = min(t + _PANEL_H, _T_MAX)
            edges.append(t)
        self.edges = np.array(edges)
        self.widths = np.diff(self.edges)
        # Four equispaced nodes per panel; a panel's last node is the
        # next panel's first, and psi is computed once per distinct node.
        offs = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])
        nodes = self.edges[:-1, None] + self.widths[:, None] * offs[None, :]
        flat, where = np.unique(nodes, return_inverse=True)
        psi = np.exp(machine.exponent(flat))
        g2 = (psi[where].reshape(nodes.shape) - 1.0) / nodes
        # Panelwise cubic coefficients in s = (t - start) / h.
        self.coeffs = np.einsum("ij,pj->pi", _V4_INV, g2)
        self.psi_end = complex(psi[-1])
        mid_idx = np.searchsorted(flat, 0.5 * _T_MAX)
        self.psi_mid = complex(psi[min(mid_idx, len(flat) - 1)])
        h = self.widths[:, None]
        n = np.arange(_SERIES_TERMS)
        powers = np.arange(4)
        beta = (h ** (n + 1) / special.factorial(n)) * (
            self.coeffs @ (1.0 / (powers[:, None] + n[None, :] + 1))
        )
        # g_j^(k) at u = 0 and u = h_j, with falling[k, p] = p!/(p-k)!.
        falling = np.array([[math.perm(pw, k) for pw in powers] for k in powers])
        scale = h ** -powers
        g_lo = self.coeffs * np.diag(falling) * scale
        g_hi = (self.coeffs @ falling.T) * scale
        # Each column times its unit phase: z**n = (-i)**n omega**n and
        # (-1)**k z**-(k+1) = (-1)**k i**(k+1) omega**-(k+1).
        self.series = _im_table(beta * np.array([1, -1j, -1, 1j])[n % 4])
        ibp_phase = np.array([1j, 1, -1j, -1])
        self.ibp_hi = _im_table(g_hi * ibp_phase)
        self.ibp_lo = _im_table(g_lo * ibp_phase)

    def cdf_w(self, x: np.ndarray) -> np.ndarray:
        """CDF of W at the points ``x`` (vectorized).

        Points with ``|x - f|`` beyond ``_FAR_OMEGA`` get 0 or 1 directly.
        The others are priced in fixed blocks of points, each on its own,
        and the blocks are split over :func:`kcut.cutsim.resolve_threads`
        workers, so the values do not depend on the worker count.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        omega = x - self.f
        out = (omega > 0.0).astype(float)
        near = np.abs(omega) <= _FAR_OMEGA
        omega = omega[near]
        vals = np.empty_like(omega)
        chunk = max(1, _PASS_SIZE // len(self.edges))
        blocks = -(-omega.size // chunk)
        # A block's phase table holds chunk * len(edges) values.
        workers = _worker_count(blocks, chunk * len(self.edges), None)

        def start(lo: int, hi: int):
            scratch = self._block_scratch(chunk)

            def run() -> None:
                for i in range(lo * chunk, min(hi * chunk, omega.size), chunk):
                    vals[i : i + chunk] = self._cdf_block(
                        omega[i : i + chunk], len(self.coeffs), scratch
                    )

            return run

        _on_workers(blocks, workers, start)
        out[near] = vals
        return out

    def _block_scratch(self, rows: int) -> tuple[np.ndarray, ...]:
        """Flat scratch of :meth:`_cdf_block` for up to ``rows`` points:
        the phases, one masked copy of them and two masks."""
        size = rows * len(self.edges)
        return (
            np.empty(size, dtype=complex),
            np.empty(size, dtype=complex),
            np.empty(2 * size, dtype=bool),
        )

    def _cdf_block(
        self, omega: np.ndarray, n_panels: int, scratch: tuple[np.ndarray, ...]
    ) -> np.ndarray:
        """CDF at ``omega = x - f`` from the first ``n_panels`` panels,
        with the closed-form 1/t part taken to the end of the last.
        ``scratch`` comes from :meth:`_block_scratch`, so a worker's block
        allocates no large temporaries of its own.

        Raises :class:`NumericError` for a value outside ``[-_CDF_TOL, 1 +
        _CDF_TOL]``, NaN included; values inside that band are clipped to
        [0, 1].
        """
        t_end = self.edges[n_panels]
        c, n = omega.size, n_panels
        e_flat, part_flat, mask_flat = scratch
        part = part_flat[: c * n].reshape(c, n)

        # Filon panels for (psi - 1)/t, with E[:, j] = exp(-i omega t_j).
        # Each point's sums over panels are a matrix-vector product of
        # their own, so no point's value depends on the other points of
        # its block.
        def panel_sums(mask, e_part, table):
            part[...] = 0.0
            np.copyto(part, e_part, where=mask)
            return (table[:, : 2 * n] @ part.view(float)[:, :, None])[:, :, 0]

        e = e_flat[: c * (n + 1)].reshape(c, n + 1)
        np.multiply.outer(-omega, self.edges[: n + 1], out=e.imag)
        np.cos(e.imag, out=e.real)
        np.sin(e.imag, out=e.imag)
        small = mask_flat[: c * n].reshape(c, n)
        large = mask_flat[c * n : 2 * c * n].reshape(c, n)
        # |omega| h_j, in part's real halves until panel_sums fills it.
        omega_h = part.real
        np.multiply(np.abs(omega)[:, None], self.widths[None, :n], out=omega_h)
        np.less(omega_h, 0.5, out=small)
        np.logical_not(small, out=large)
        # terms[:, n] = Im((-i)**n S_n) for the series S_n of the small
        # panels, and ibp[:, k] likewise, so Horner in omega and in 1/omega
        # gives Im J of the panels.
        terms = panel_sums(small, e[:, :-1], self.series)
        im_j = terms[:, -1]
        for col in range(_SERIES_TERMS - 2, -1, -1):
            im_j = im_j * omega + terms[:, col]
        ibp = panel_sums(large, e[:, 1:], self.ibp_hi)
        ibp -= panel_sums(large, e[:, :-1], self.ibp_lo)
        u = 1.0 / np.where(large.any(axis=1), omega, 1.0)
        im_j += u * (ibp[:, 0] + u * (ibp[:, 1] + u * (ibp[:, 2] + u * ibp[:, 3])))
        # The 1/t part: integral_0^t_end sin(omega t)/t dt = Si(omega t_end).
        vals = 0.5 + (special.sici(omega * t_end)[0] - im_j) / math.pi
        # Written so that a NaN is outside.
        outside = ~((vals >= -_CDF_TOL) & (vals <= 1.0 + _CDF_TOL))
        if outside.any():
            worst = float(vals[outside][np.argmax(np.abs(vals[outside] - 0.5))])
            raise NumericError(
                f"CDF value {worst:.3e} lies outside [0, 1] by more than "
                f"{_CDF_TOL:.0e}"
            )
        return np.clip(vals, 0.0, 1.0)


@lru_cache(maxsize=8)
def _cdf_cache(p: LimitParams) -> _CdfCache:
    return _CdfCache(p)


def limit_cdf(
    w,
    p: LimitParams,
    table: series.ConstantTable | None = None,
):
    """CDF of the limit variable ``1 - C3(r) * W`` (vectorized in ``w``).

    ``C3`` comes from the constant table for ``(k, r)``.  Raises
    :class:`NumericError` if the inversion's internal error estimate
    (the largest probe-grid change between truncating the inversion
    integral at ``_T_MAX / 2`` and at ``_T_MAX``, plus the bound on the
    omitted tail) exceeds 1e-4, or if a computed value lies outside
    [0, 1] by more than 1e-4.  The estimate covers the truncation of the
    inversion integral only, not the discretization of ``psi`` by
    panelwise cubics nor the error of ``psi`` itself; values are clipped
    to [0, 1] within the 1e-4 band.  ``w = +inf`` gives exactly 1 and
    ``w = -inf`` exactly 0, as does any finite ``w`` whose ``x = (1 -
    w) / C3`` lies beyond ``1e100`` of the drift, where both tails are
    below double precision; a NaN in ``w`` raises ``ValueError``.  The
    points are priced in blocks on :func:`kcut.cutsim.resolve_threads`
    workers, with values that do not depend on the worker count.
    """
    if table is None:
        table = series.constants(p.k, p.r)
    if table.k != p.k or table.r != p.r:
        raise ValueError(
            f"table is for (k={table.k}, r={table.r}), params have "
            f"(k={p.k}, r={p.r})"
        )
    cache = _cdf_cache(p)
    if cache.err_estimate > _CDF_TOL:
        raise NumericError(
            f"CDF inversion error estimate {cache.err_estimate:.2e} "
            f"exceeds {_CDF_TOL:.0e}"
        )
    w_arr = np.atleast_1d(np.asarray(w, dtype=float))
    if np.isnan(w_arr).any():
        raise ValueError("w must not be NaN, got nan")
    # P(1 - C3 W <= w) = 1 - P(W < x) with x = (1 - w) / C3, which is
    # exactly 1 at x = -inf and 0 at x = +inf.
    x = (1.0 - w_arr) / table.c3
    finite = np.isfinite(x)
    vals = (x < 0.0).astype(float)
    vals[finite] = 1.0 - cache.cdf_w(x[finite])
    if np.isscalar(w) or np.ndim(w) == 0:
        return float(vals[0])
    return vals


def cdf_certificate(p: LimitParams) -> dict:
    """Accuracy data of the cached inversion behind :func:`limit_cdf`:
    its truncation ``err_estimate``, the upper end ``t_max`` of the
    inversion integral and the number of Filon panels."""
    cache = _cdf_cache(p)
    return {
        "cdf_err_estimate": cache.err_estimate,
        "cdf_t_max": float(cache.edges[-1]),
        "cdf_panels": len(cache.coeffs),
    }


# ---------------------------------------------------------------------------
# Triangular-array sampler.
# ---------------------------------------------------------------------------


def _xi_weights(scale: ScaleParams) -> np.ndarray:
    """``m * n_v / n`` for all nodes of height at most L, in index order,
    from :meth:`kcut.cutsim.CompleteTree.size_classes`.  The weights are
    exact ratios of Python ints, so any ``n`` works."""
    n, m = scale.n, scale.m
    if (1 << (scale.L + 1)) - 1 > n:
        raise ValueError("height cutoff exceeds the tree; n too small")
    levels = CompleteTree(n).size_classes()[: scale.L + 1]
    sizes, counts = zip(*(c for level in levels for c in level))
    return np.repeat([m * size / n for size in sizes], counts)


# Breakpoints of the centring quadrature, in units of the clock scale
# (k!/m)**(1/k) past the truncation point, and the clock span covered.
_XI_SPLITS = (0.5, 2.0, 8.0, 32.0)
_XI_T_SPAN = 60.0
# Total of the xi terms one draw may leave out, in W units (see
# xi_sampler_batch).
_XI_SKIP = 1.0e-13


@lru_cache(maxsize=32)
def _xi_centre(scale: ScaleParams, p: LimitParams) -> float:
    """Exact centring of the xi array, in W units.

    Returns ``sum_v E[xi_v 1[xi_v <= h]] - f + integral_h^1 x dnu`` with
    ``h = 2**(beta - alpha) * gamma(a)``: the array's own truncated mean
    at ``h``, moved to the limit law's truncation at 1.  Each expectation
    is one quadrature over the clock ``T ~ Gamma(k, 1)`` from the point
    ``t*`` where ``xi_v`` falls to ``h``, and nodes of equal weight share
    it (a level has at most three weights).  The integrand
    ``Q(a, m T**k / k!)`` decays over a clock width of order
    ``(k!/m)**(1/k)``, which is narrow for large ``m``, so the interval is
    split at fixed multiples of that width past ``t*``.
    """
    a = p.a
    k = p.k
    ga = math.gamma(a)
    kfact = math.factorial(k)
    h = 2.0 ** (scale.beta - scale.alpha) * ga
    width = (kfact / scale.m) ** (1.0 / k)
    log_gk = math.lgamma(k)

    def integrand(t: float) -> float:
        q = specfun.q(a, scale.m * t**k / kfact)
        return float(q) * t ** (k - 1) * math.exp(-t - log_gk)

    total = 0.0
    for w, count in zip(*np.unique(_xi_weights(scale), return_counts=True)):
        cap = h / (w * ga)
        if cap >= 1.0:
            t_star = 0.0
        else:
            t_star = (kfact * specfun.q_inv(a, cap) / scale.m) ** (1.0 / k)
        t_end = t_star + _XI_T_SPAN
        splits = [t_star + c * width for c in _XI_SPLITS]
        value, abserr = integrate.quad(
            integrand,
            t_star,
            t_end,
            points=[t for t in splits if t < t_end],
            epsabs=1.0e-12,
            limit=300,
        )
        if abserr > 1.0e-9:
            raise NumericError(
                f"centring quadrature error {abserr:.2e} above tolerance"
            )
        total += count * w * ga * value
    if h < 1.0:
        block = levy_block_mean(p, h, 1.0)
    elif h > 1.0:
        block = -levy_block_mean(p, 1.0, h)
    else:
        block = 0.0
    return total - f_constant(p) + block


def xi_sampler_batch(
    scale: ScaleParams,
    p: LimitParams,
    table: series.ConstantTable | None = None,
    seed: int = 0,
    n_samples: int = 1,
    first_index: int = 0,
    chunk: int | None = None,
    threads: int | None = None,
) -> np.ndarray:
    """Draws of the triangular-array approximation to ``1 - C3*W``,
    shape ``(n_samples,)``; draw ``i`` uses substream ``(seed,
    first_index + i)``.

    Each draw takes i.i.d. Gamma(k, 1) clocks ``T_v`` for every node of
    height at most ``L``, each the in-order sum of the node's row of
    ``k`` node-major exponentials (the k-th clock of the record sweep),
    and returns ``1 - C3 * (sum_v xi_v - centre)`` with

        xi_v   = (m n_v / n) * gamma(a) * Q(a, m T_v**k / k!),
        centre = sum_v E[xi_v 1[xi_v <= h]] - f + integral_h^1 x dnu,
        h      = 2**(beta - alpha) * gamma(a),

    the classical centring of a triangular array by its exact truncated
    mean (see :func:`_xi_centre`).  The draws converge in law to the
    limit as ``n`` grows along a subsequence with ``frac(lg n - lg lg
    n) -> gamma``; the paper gives no rate.  Along the fixed-gamma
    ladder ``n = 2**40, 2**80, 2**160`` (seed 20260825, 100k draws) the
    KS distance to :func:`limit_cdf` is 0.073, 0.045, 0.028 for (r, k) =
    (1, 1) and 0.089, 0.059, 0.039 for (1, 2).  A tree on ``2**40``
    nodes is itself far from the limit: its Levy mass above 1 is 1.312
    against ``levy_tail(1) = 1.466``.

    For ``a != 1`` the sum skips the negligible terms: with ``S = sum_v
    gamma(a) w_v``, a clock past ``t_cut = (k! z_cut / m)**(1/k)``, where
    ``z_cut = q_inv(a, 1e-13 / S)``, has ``xi_v < gamma(a) w_v 1e-13 /
    S``, so those terms add less than 1e-13 in all and the draw moves by
    at most ``C3 * 1e-13``.  At ``n = 2**160`` only 10-15 % of the clocks
    are kept.  For ``a = 1``, where ``Q`` is ``exp``, every term is
    priced.

    Cost is O(2**L) = polylog(n) per draw.  ``chunk`` (samples in flight
    at once, shared by the ``threads`` workers; see
    :func:`kcut.cutsim.resolve_threads`) defaults to the package's 32 MB
    scratch budget for rows of clocks, their compacted copy and mask;
    each worker draws a row's exponentials into one ``(N, k)`` scratch,
    masks the clocks at or below ``t_cut``, prices ``Q`` on the kept
    ones only, compacted, and sums every row in place in one buffer,
    with zeros for the skipped terms.  Neither ``chunk`` nor ``threads``
    changes the output.
    """
    if table is None:
        table = series.constants(p.k, p.r)
    if table.k != p.k or table.r != p.r:
        raise ValueError("constant table does not match limit params")
    if scale.k != p.k:
        raise ValueError(
            f"scale has k={scale.k} but limit params have k={p.k}"
        )
    _check_samples(p.k, n_samples)
    a = p.a
    weights = _xi_weights(scale)
    ga_weights = math.gamma(a) * weights
    z_per_clock = scale.m / math.factorial(p.k)
    shift = 1.0 + table.c3 * _xi_centre(scale, p)
    out = np.empty(n_samples)
    # For a = 1, Q is exp, which costs less than the mask: no skip.
    skip = a != 1.0
    row_scratch = None
    if skip:
        z_cut = specfun.q_inv(a, _XI_SKIP / math.fsum(ga_weights))
        t_cut = (z_cut / z_per_clock) ** (1.0 / p.k)
        # The clocks, their compacted copy and the mask (a byte each).
        row_scratch = 2 * weights.size + -(-weights.size // 8)

    def worker(rows: int):
        buf = np.empty((rows, weights.size))
        clocks = np.empty((weights.size, p.k))
        if skip:
            keep = np.empty((rows, weights.size), dtype=bool)
            kept = np.empty(rows * weights.size)
            # Rows compacted per call: np.compress allocates an index
            # array the size of its output, so this bounds it.
            slab = max(1, _PASS_SIZE // weights.size)

        def draw(j: int, rng: np.random.Generator) -> None:
            # T_v = ((E_1 + E_2) + ...) + E_k over row v of node-major
            # exponentials: the record sweep's k-th clock sum.
            rng.standard_exponential(out=clocks)
            t = buf[j]
            t[...] = clocks[:, 0]
            for r in range(1, p.k):
                t += clocks[:, r]

        def sweep(lo: int, hi: int) -> None:
            # xi_v = weights * ga * Q(a, m T**k / k!), built in place;
            # with the skip, Q is priced on the kept clocks only, in
            # kept, and the other terms are 0.
            xi = buf[: hi - lo]
            z = xi
            if skip:
                mask = keep[: hi - lo]
                np.less_equal(xi, t_cut, out=mask)
                size = 0
                for i in range(0, hi - lo, slab):
                    part = mask[i : i + slab].ravel()
                    end = size + np.count_nonzero(part)
                    flat = xi[i : i + slab].ravel()
                    np.compress(part, flat, out=kept[size:end])
                    size = end
                z = kept[:size]
            np.power(z, p.k, out=z)
            np.multiply(z, z_per_clock, out=z)
            specfun.q(a, z, out=z)
            if skip:
                xi.fill(0.0)
                np.place(xi, mask, z)
            np.multiply(xi, ga_weights, out=xi)
            out[lo:hi] = shift - table.c3 * xi.sum(axis=1)

        return draw, sweep

    _run_batch(
        n_samples, weights.size, seed, first_index, chunk, threads, worker,
        row_scratch,
    )
    return out
