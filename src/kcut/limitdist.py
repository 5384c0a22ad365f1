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
- ``f_constant``                    -- the drift series;
- ``char_fn``                       -- the characteristic function at
  an array of ``t``, assembled from dyadic folds of block integrals over
  [1, 2]; each comes from a cubic interpolant of the density on panels,
  graded toward the wrap where ``r`` does not divide ``k``, integrated
  exactly against ``e^{i tau y}``;
- ``limit_cdf``                     -- CDF of the limit ``1 - C3*W`` by
  characteristic-function inversion (Gil-Pelaez), with cached cubic
  panels of the integrand so one transform evaluation serves arbitrarily
  many points, each block of points costing a few matrix products;
- ``cdf_certificate``               -- the accuracy data of that cache;
- ``xi_sampler_batch``              -- the triangular-array sampler,
  polylog(n) per draw for any ``n``: per weight class, a binomial count
  of the clocks that matter and that many truncated clocks.

The characteristic function's block integrals and the CDF's inversion
integral are one Filon rule, cubics integrated exactly against
``e^{isy}``, evaluated by one class, :class:`_Filon`, in fixed blocks of
points on all CPUs (:func:`kcut.cutsim.resolve_threads`), with values
that do not depend on the worker count.  Every evaluation of ``Q`` and
``Q^{-1}``, scalar or vectorized, and of the other special functions
(the sine integral, binomial tables) goes through :mod:`kcut.specfun`,
in numpy; every Levy series sums ``s = 1.._S_MAX`` of one ``_thetas``
array call.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.polynomial import polyval

from . import series, specfun
from .cutsim import (
    CompleteTree, _as_int, _int_in, _on_workers, _run_batch, resolve_threads,
    substream,
)
from .exactmean import _gauss_kronrod

__all__ = [
    "LimitParams",
    "ScaleParams",
    "NumericError",
    "levy_density",
    "levy_tail",
    "levy_block_mean",
    "f_constant",
    "char_fn",
    "limit_cdf",
    "cdf_certificate",
    "xi_sampler_batch",
]


class NumericError(ArithmeticError):
    """A numerical procedure could not certify its target accuracy."""


# Terms s = 1 .. _S_MAX of every log-periodic series (see _thetas).  From
# 56 terms on the omitted remainder is below 1e-14 of each sum; up to
# 1000 terms y = 2**(c - s) stays a normal double, so every term is
# finite.
_S_MAX = 80


@dataclass(frozen=True)
class LimitParams:
    """Parameters of the limit law.

    ``gamma`` may be any value in [0, 1]; the law is periodic, so 0 and
    1 describe the same distribution (both endpoints are accepted
    because a subsequence with fractional parts near both ends is
    ambiguous between them).
    """

    r: int
    k: int
    gamma: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", _int_in("k", self.k, 1, series.MAX_K))
        object.__setattr__(self, "r", _int_in("r", self.r, 1, self.k))
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma!r}")

    @property
    def a(self) -> float:
        """Shape parameter ``r/k`` of the underlying gamma laws."""
        return self.r / self.k


@dataclass(frozen=True)
class ScaleParams:
    """Size-derived quantities entering the triangular-array sampler.

    For a tree on ``n >= 16`` nodes (an integer, not a bool) and cut
    threshold ``k``: ``m = floor(lg n)``; ``alpha = frac(lg n)``; ``beta
    = frac(lg lg n)``; the sampler truncates the node sum at height ``L =
    floor((2 - 1/(2k)) lg lg n)``.  The induced subsequence parameter is
    ``frac(alpha - beta)``.  An invalid ``n`` or ``k`` raises
    ``ValueError``.
    """

    n: int
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _as_int("n", self.n))
        if self.n < 16:
            raise ValueError(f"scale parameters need n >= 16, got {self.n!r}")
        object.__setattr__(self, "k", _int_in("k", self.k, 1, series.MAX_K))

    @staticmethod
    def from_n(n: int, k: int) -> "ScaleParams":
        return ScaleParams(n, k)

    @property
    def m(self) -> int:
        """Height of the deepest level, ``floor(lg n)``."""
        return self.n.bit_length() - 1

    @property
    def L(self) -> int:
        """Height cutoff ``floor((2 - 1/(2k)) lg lg n)`` of the sampler."""
        lglg = math.log2(math.log2(self.n))
        return math.floor((2.0 - 1.0 / (2.0 * self.k)) * lglg)

    @property
    def alpha(self) -> float:
        """``frac(lg n)``."""
        return math.log2(self.n) - self.m

    @property
    def beta(self) -> float:
        """``frac(lg lg n)``."""
        lglg = math.log2(math.log2(self.n))
        return lglg - math.floor(lglg)

    @property
    def gamma(self) -> float:
        """Subsequence parameter ``frac(alpha - beta)``, as
        :func:`_subsequence_gamma` of ``n``."""
        return _subsequence_gamma(self.n)


def _subsequence_gamma(n: int) -> float:
    """Subsequence parameter ``frac(lg n - lg lg n)`` of a size ``n >=
    4``, as ``frac(alpha - beta)`` with ``alpha = frac(lg n)`` and ``beta
    = frac(lg lg n)``.  Taking the integer parts off first keeps the
    bits that ``(lg n - lg lg n) % 1`` spends on them: at ``n = 2**160``
    the result is within 2e-16 of the exact value, that form's within
    6.5e-15."""
    lg = math.log2(n)
    lglg = math.log2(lg)
    alpha, beta = lg - (n.bit_length() - 1), lglg - math.floor(lglg)
    return (alpha - beta) % 1.0


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
    """``y = 2**(c - s)`` and ``theta = q_inv(a, y)`` for ``s =
    1.._S_MAX``, shape ``c.shape + (_S_MAX,)``, from one array call of
    ``q_inv``.

    Every series of the Levy measure sums its term over this whole axis,
    so the fixed ``_S_MAX`` is the one truncation rule.  By the envelope
    ``theta_s <= log(1/y_s) = (s - c) ln 2`` each term of each series is
    at most a constant of the shape times ``2**(c-s) * (s - c)``, and the
    omitted remainder falls geometrically in the number of terms.  Over
    every shape ``r/k`` with ``k <= 8`` and 256 phases, 56 terms keep it
    below 1e-14 of the tail (50 suffice for the density), and below
    1e-14 absolute in the drift and the block-mean antiderivative (51
    terms).  Up to 1000 terms ``y`` stays a normal float, so ``theta`` is
    finite.
    """
    c = np.asarray(c, dtype=float)
    y = 2.0 ** (c[..., None] - np.arange(1, _S_MAX + 1))
    return y, specfun.q_inv(p.a, y)


def _density_terms(c, p: LimitParams) -> np.ndarray:
    """Density-series terms ``4**(c-s) exp(theta_s) theta_s**(1-a)`` at
    the phases ``c``, built in place with ``4**(c-s)`` inside the ``exp``
    (``exp(theta_s)`` overflows for ``s >= 1024``)."""
    c = np.asarray(c, dtype=float)
    y, theta = _thetas(c, p)
    terms = np.subtract(c[..., None], np.arange(1, _S_MAX + 1), out=y)
    terms *= 2.0 * math.log(2.0)
    terms += theta
    np.exp(terms, out=terms)
    terms *= np.power(theta, 1.0 - p.a, out=theta)
    return terms


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
    step = max(1, _PASS_SIZE // _S_MAX)
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

    Evaluates ``(gamma(a)**2 / x**2) * sum_{s=1}^{_S_MAX} 4**(c-s) *
    exp(theta_s) * theta_s**(1-a)`` with ``theta_s = q_inv(a, 2**(c-s))``
    and ``c = frac(gamma + lg(x / gamma(a)))``; :func:`_thetas` states
    the truncation bound.
    """
    ga = math.gamma(p.a)

    def row_sum(x, c):
        return ga * ga / (x * x) * _density_terms(c, p).sum(axis=-1)

    return _per_point(x, p, "density point x", row_sum)


def levy_tail(x, p: LimitParams):
    """Mass of the Levy measure on ``(x, inf)`` at every finite ``x > 0``
    (vectorized; a 0-d ``x`` gives a float).

    Series form ``(gamma(a)/x) * sum_{s=1}^{_S_MAX} 2**(c-s) * theta_s``
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


@lru_cache(maxsize=8)
def f_constant(p: LimitParams) -> float:
    """Drift constant of the limit law.

    With ``c = frac(gamma - lg gamma(a))``, the phase at ``x = 1``, and
    ``theta_t = q_inv(a, 2**(c-t))``:

        f = sum_t exp(-theta_t) * theta_t**a
            - gamma(a) * sum_t 2**(c-t) * theta_t
            + gamma(1+a) * (2**c - c - lg gamma(a) - 1).

    For ``r = k`` the two series cancel termwise and f reduces to
    ``2**gamma - gamma - 1``.  The series run to ``_S_MAX`` (see
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
# Filon panels: cubics integrated exactly against an exponential.
# ---------------------------------------------------------------------------

# Offsets of a panel's four interpolation nodes, in units of its width.
_NODE_OFFS = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])
# Inverse of the Vandermonde matrix on those nodes: maps four samples to
# monomial coefficients in the scaled variable s = u/h.
_V4_INV = np.linalg.inv(np.vander(_NODE_OFFS, 4, increasing=True))
# Terms of the power series of a panel's moments where |s h| < 1/2, and
# n! for each term n (exact in float64).
_SERIES_TERMS = 18
_FACTORIALS = np.array([float(math.factorial(n)) for n in range(_SERIES_TERMS)])
# Rows of J(s) that a Filon evaluation returns: Re and Im, or Im only.
_RE_IM = slice(0, 2)
_IM = slice(1, 2)
# i**n = _I_POW[n % 4], exactly.
_I_POW = np.array([1.0, 1j, -1.0, -1j])


def _real_tables(table: np.ndarray) -> np.ndarray:
    """``(2, m, 2 * panels)`` real form of the complex ``(panels, m)``
    ``table``: in row 0 (1), columns ``2j`` and ``2j + 1``, times ``Re
    E_j`` and ``Im E_j``, sum to Re (Im) of ``sum_j E_j * table[j]``."""
    out = np.empty((2, table.shape[1], 2 * table.shape[0]))
    out[0, :, 0::2], out[0, :, 1::2] = table.real.T, -table.imag.T
    out[1, :, 0::2], out[1, :, 1::2] = table.imag.T, table.real.T
    return out


class _Filon:
    """The Filon rule of one function on panels: its cubic interpolants
    integrated exactly against ``e^{isy}``.

    ``values[j]`` are the function's values at the four nodes
    ``_NODE_OFFS`` of panel ``j``, from ``y_j = edges[j]`` to ``edges[j +
    1]``, of width ``h_j``; ``g_j`` is the cubic through them in ``u``,
    the distance from ``y_j``.  The build keeps

    - ``coeffs[j, p]``, with ``g_j(u) = sum_p coeffs[j, p] (u/h_j)**p``;
    - ``beta[j, n] = h_j**(n+1)/n! * sum_p coeffs[j, p]/(p+n+1)``, the
      moments ``integral_0^h_j u**n/n! g_j(u) du`` for ``n < 18``;
    - ``series``, the real tables of ``i**n beta[j, n]``: where ``|s h_j|
      < 1/2``, panel ``j`` gives ``E_j sum_n s**n i**n beta[j, n]`` with
      ``E_j = e^{is y_j}``;
    - ``ibp_hi`` and ``ibp_lo``, those of ``-i**(k+1)`` times the
      derivatives ``g_j^(k)``, ``k <= 3``, at ``u = h_j`` and ``u = 0``:
      elsewhere panel ``j`` gives exactly ``sum_k s**-(k+1) (E_{j+1}
      ibp_hi[j, k] - E_j ibp_lo[j, k])`` (integration by parts).

    The tables are real (:func:`_real_tables`), so Re and Im of the sums
    come from matrix products with the phases' (Re, Im) pairs, and each
    power of the real ``s`` is a step of Horner's rule.
    """

    def __init__(self, edges: np.ndarray, values: np.ndarray) -> None:
        self.edges = edges
        self.widths = np.diff(edges)
        self.coeffs = np.einsum("ij,pj->pi", _V4_INV, values)
        h = self.widths[:, None]
        n = np.arange(_SERIES_TERMS)
        powers = np.arange(4)
        self.beta = (h ** (n + 1) / _FACTORIALS) * (
            self.coeffs @ (1.0 / (powers[:, None] + n[None, :] + 1))
        )
        # falling[k, p] = p!/(p-k)!.
        falling = np.array([[math.perm(pw, k) for pw in powers] for k in powers])
        scale = h ** -powers
        ibp_phase = -_I_POW[(powers + 1) % 4]
        self.series = _real_tables(self.beta * _I_POW[n % 4])
        self.ibp_hi = _real_tables((self.coeffs @ falling.T) * scale * ibp_phase)
        self.ibp_lo = _real_tables(
            self.coeffs * np.diag(falling) * scale * ibp_phase
        )

    def integral(self, s: np.ndarray, parts: slice) -> np.ndarray:
        """Rows ``parts`` (``_RE_IM`` or ``_IM``) of ``J(s) = sum_j
        integral_0^h_j g_j(u) e^{is(y_j + u)} du`` over all panels, at
        every real ``s`` of the 1-d array ``s``; shape ``(rows, s.size)``.

        The points are priced in fixed blocks, split over
        :func:`kcut.cutsim.resolve_threads` workers with their scratch
        allocated on the calling thread.  Each point's sums over the
        panels are a matrix-vector product of their own, so no value
        depends on its block or on the worker count.
        """
        rows = self.series[parts].shape[0]
        tables = [
            t[parts].reshape(-1, t.shape[-1])
            for t in (self.series, self.ibp_hi, self.ibp_lo)
        ]
        out = np.empty((rows, s.size))
        chunk = max(1, _PASS_SIZE // len(self.edges))
        blocks = -(-s.size // chunk)
        workers = min(resolve_threads(), max(blocks, 1))

        def start(lo: int, hi: int):
            size = min(chunk, s.size) * len(self.edges)
            scratch = (
                np.empty(size, dtype=complex),
                np.empty(size, dtype=complex),
                np.empty(2 * size, dtype=bool),
            )

            def run() -> None:
                for i in range(lo * chunk, min(hi * chunk, s.size), chunk):
                    out[:, i : i + chunk] = self._block(
                        s[i : i + chunk], rows, tables, scratch
                    ).T

            return run

        _on_workers(blocks, workers, start)
        return out

    def _block(self, s, rows, tables, scratch) -> np.ndarray:
        """:meth:`integral` of one block of points, ``(points, rows)``,
        in ``scratch`` (phases, one masked copy of them, two masks)."""
        series_t, hi_t, lo_t = tables
        c, n = s.size, self.widths.size
        e_flat, part_flat, mask_flat = scratch
        part = part_flat[: c * n].reshape(c, n)

        # Per point, sum_j (Re, Im) of E_j over the masked panels times a
        # table: a matrix-vector product of its own.
        def panel_sums(mask, e_part, table):
            part[...] = 0.0
            np.copyto(part, e_part, where=mask)
            sums = (table @ part.view(float)[:, :, None])[:, :, 0]
            return sums.reshape(c, rows, -1)

        e = e_flat[: c * (n + 1)].reshape(c, n + 1)
        np.multiply.outer(s, self.edges, out=e.imag)
        np.cos(e.imag, out=e.real)
        np.sin(e.imag, out=e.imag)
        small = mask_flat[: c * n].reshape(c, n)
        large = mask_flat[c * n : 2 * c * n].reshape(c, n)
        # |s| h_j, in part's real halves until panel_sums fills it.
        s_h = part.real
        np.multiply(np.abs(s)[:, None], self.widths, out=s_h)
        np.less(s_h, 0.5, out=small)
        np.logical_not(small, out=large)
        terms = panel_sums(small, e[:, :-1], series_t)
        vals = terms[..., -1]
        for col in range(_SERIES_TERMS - 2, -1, -1):
            vals = vals * s[:, None] + terms[..., col]
        ibp = panel_sums(large, e[:, 1:], hi_t)
        ibp -= panel_sums(large, e[:, :-1], lo_t)
        u = 1.0 / np.where(large.any(axis=1), s, 1.0)[:, None]
        ibp_sum = ibp[..., 3]
        for col in range(2, -1, -1):
            ibp_sum = ibp[..., col] + u * ibp_sum
        return vals + u * ibp_sum


# ---------------------------------------------------------------------------
# Characteristic function.
# ---------------------------------------------------------------------------

# Panels of the density on [1, 2]: about _CF_PANELS equal panels per unit
# of phase, and up to _CF_HALVINGS halvings of a piece's last panel toward
# its right end, each halving cut into _CF_CUTS panels.
_CF_PANELS = 48
_CF_HALVINGS = 40
_CF_CUTS = 3
# Below this frequency the block integrals are summed from the moments.
_CF_SERIES_TAU = 0.25
# The uncompensated folds run until t * 2**j reaches 2**_CF_FOLD_EXP.
_CF_FOLD_EXP = 24
# Points t per fold table of the exponent, which bounds its memory.
_CF_T_BLOCK = 1024
# Beyond |t| = _FAR_T char_fn is 0 to double precision: Re I(t) is about
# -2t for every shape, so |char_fn| underflows to 0 from t ~ 400 on.  Im
# I(t), about -t M_1 lg t, is no longer a double from |t| ~ 1e306 on, so
# these points are set directly.
_FAR_T = 1.0e300


def _block_panels(p: LimitParams) -> tuple[np.ndarray, np.ndarray]:
    """Panel edges on [1, 2] and the density at each panel's four nodes.

    The phase ``c(y) = c_1 + lg y``, ``c_1 = c(1)``, wraps from 1 to 0 at
    ``y_w = 2**(1 - c_1)``, where the density jumps (``a = 1``) or goes
    like ``(1 - c)**((1 - a)/a)``.  That power is smooth where ``(1 -
    a)/a = k/r - 1`` is an integer, that is where ``r`` divides ``k``;
    otherwise some derivative of the density, for ``1/2 < a < 1`` the
    density itself, is unbounded at the wrap.  So [1, 2] is split into
    ``[1, y_w]`` with phases ``[c_1, 1]`` and ``[y_w, 2]`` with phases
    ``[0, c_1]``; either may be empty.  A piece of phase length ``L`` gets
    ``count = ceil(48 L)`` equal panels.  Where ``r`` does not divide
    ``k``, its last is halved ``ceil(lg(L / count / (1 - c_hi)))`` times
    toward the piece's right end, at most (and where ``c_hi = 1``) 40
    times, so ``a = 1/m`` and ``a = 1`` get 48-49 panels in all.  Nodes
    take their phase from their piece's right end, ``c_hi + lg(y /
    y_hi)``, and the piece ends get theirs exactly, 1 just left of the
    wrap and 0 just right of it, as in :func:`levy_block_mean`: the jump
    sits at the wrap wherever it lies, and the panels move continuously
    with ``gamma``.
    """
    c_1 = float(_c_of(1.0, p)[1])
    y_w = 2.0 ** (1.0 - c_1)
    ga = math.gamma(p.a)
    edges, values = [np.array([1.0])], []
    for lo, hi, c_lo, c_hi in ((1.0, y_w, c_1, 1.0), (y_w, 2.0, 0.0, c_1)):
        if not lo < hi:
            continue
        count = math.ceil(_CF_PANELS * (c_hi - c_lo))
        halvings = _CF_HALVINGS if p.k % p.r else 0
        if c_hi < 1.0:
            ratio = (c_hi - c_lo) / count / (1.0 - c_hi)
            halvings = min(max(math.ceil(math.log2(ratio)), 0), halvings)
        # Edge distances from the right end in units of the last equal
        # panel: count .. 2, then each halving 2**-i * [1/2, 1] cut into
        # _CF_CUTS, then 2**-halvings and 0.
        cut = 1.0 - np.arange(_CF_CUTS) / (2 * _CF_CUTS)
        graded = np.outer(2.0 ** -np.arange(halvings), cut).ravel()
        dist = [np.arange(count, 1, -1), graded, [2.0**-halvings, 0.0]]
        # Panels that round to zero width are dropped.
        y = np.unique(hi - (hi - lo) / count * np.concatenate(dist))
        y[0] = lo
        h = np.diff(y)
        nodes = np.append(y[:-1, None] + h[:, None] * _NODE_OFFS[:3], hi)
        c = c_hi + np.log1p((nodes - hi) / hi) / math.log(2.0)
        c[0] = c_lo
        dens = ga * ga / (nodes * nodes) * _density_terms(c, p).sum(-1)
        values.append(dens[3 * np.arange(h.size)[:, None] + np.arange(4)])
        edges.append(y[1:])
    return np.concatenate(edges), np.concatenate(values)


class _CfMachine:
    """Evaluates ``I(t) = integral (e^{itx} - 1 - itx 1[x<1]) d nu``.

    Folding onto the reference block [1, 2]:

        I(t) = sum_{j>=1} 2**j  * Vm(t / 2**j)
             + sum_{j>=0} 2**-j * V (t * 2**j),

    where ``Vm(tau) = integral_1^2 (e^{i tau y} - 1 - i tau y) d nu`` and
    ``V(tau) = integral_1^2 (e^{i tau y} - 1) d nu``.  Every ``V`` and
    ``Vm`` comes from one Filon rule: the density is interpolated by a
    cubic on each panel of :func:`_block_panels`, and the cubics are
    integrated exactly (:class:`_Filon`, asked for Re and Im of ``J(tau)``,
    the evaluator that also inverts the CDF).  Below ``tau = 1/4``
    that is the power series ``sum_n (i tau)**n M_n/n!``, ``n < 18``, in
    the interpolant's moments ``M_n``, from ``n = 1`` for ``V`` and from
    ``n = 2`` for ``Vm``, so nothing cancels.  Above it, it is the sum of
    the panels' integrals against ``e^{i tau y}`` minus ``M_0``, and
    also minus ``i tau M_1`` for ``Vm``.  Against QUADPACK's oscillatory
    rule on the series density, ``V`` and ``Vm`` are within 1e-9 where
    ``r`` divides ``k`` (48-49 panels) and 2e-7 for ``1/2 < r/k < 1``.
    """

    def __init__(self, p: LimitParams) -> None:
        self.filon = _Filon(*_block_panels(p))
        # moments[n] = M_n/n! = sum_j integral_0^h_j (y_j + u)**n/n! g_j(u)
        # du, from beta by the binomial theorem.
        beta, edges = self.filon.beta, self.filon.edges
        n = np.arange(_SERIES_TERMS)
        taylor = edges[:-1, None] ** n / _FACTORIALS
        self.moments = np.array(
            [np.sum(beta[:, : i + 1] * taylor[:, i::-1]) for i in n]
        )

    def _v(self, tau: np.ndarray, compensated: np.ndarray) -> np.ndarray:
        """``Vm`` where ``compensated``, else ``V``, at every ``tau > 0``."""
        out = np.empty(tau.shape, dtype=complex)
        mom = self.moments
        low = tau < _CF_SERIES_TAU
        z = 1j * tau[low]
        acc = polyval(z, mom[2:])
        v = (acc * z + mom[1]) * z
        out[low] = np.where(compensated[low], acc * z * z, v)
        high = ~low
        re, im = self.filon.integral(tau[high], _RE_IM)
        out[high] = (re - mom[0]) + 1j * im
        out[high] -= np.where(compensated[high], 1j * tau[high] * mom[1], 0.0)
        return out

    def exponent(self, t) -> np.ndarray:
        """I(t) for every ``t >= 0`` of the array ``t`` (same shape out).

        For each block of ``t``, all folded frequencies, ``t / 2**j`` for
        ``j = 1..j_lo(t)`` and ``t * 2**j`` for ``j = 0..j_hi(t)``, are
        gathered with their weights into one table, priced in one pass,
        and summed per ``t``.  ``j_lo`` is where the compensated folds,
        about ``-t**2 M_2 / 2**(j+1)``, fall below 1e-13.  ``j_hi`` is the
        first ``j`` with ``t * 2**j >= 2**24``: beyond it ``V(tau) = -M_0 +
        O(1/tau)``, and the folds sum to ``-2**-j_hi M_0``.
        """
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        total = np.empty(flat.size, dtype=complex)
        for i in range(0, flat.size, _CF_T_BLOCK):
            total[i : i + _CF_T_BLOCK] = self._folds(flat[i : i + _CF_T_BLOCK])
        return total.reshape(t.shape)

    def _folds(self, t: np.ndarray) -> np.ndarray:
        m2 = max(2.0 * self.moments[2], 1.0e-12)
        live = t != 0.0
        lg = np.log2(np.where(live, t, 1.0))
        j_lo = np.ceil(np.where(live, 2.0 * lg + math.log2(m2 / 1.0e-13), 1.0))
        j_lo = np.maximum(j_lo, 1.0).astype(np.int64)
        j_hi = np.maximum(np.ceil(_CF_FOLD_EXP - lg), 0.0).astype(np.int64)
        # Row r scales t by 2**shift[r]: 2**-j for j = 1, 2, ... (Vm, used
        # while j <= j_lo(t)), then 2**j for j = 0, 1, ... (V, used while
        # j <= j_hi(t); capped there, so unused entries stay finite).
        shift = np.concatenate(
            [-np.arange(1, j_lo.max() + 1), np.arange(j_hi.max() + 1)]
        )[:, None]
        minus = shift < 0
        use = live & np.where(minus, -shift <= j_lo, shift <= j_hi)
        taus = np.ldexp(t, np.minimum(shift, j_hi))
        terms = np.zeros(taus.shape, dtype=complex)
        terms[use] = self._v(taus[use], np.broadcast_to(minus, taus.shape)[use])
        # Times 2**-shift; the weight alone overflows for t beyond 1e146.
        for part in (terms.real, terms.imag):
            np.ldexp(part, -shift, out=part)
        # Adding the folds row by row, in order, gives each t the same
        # value whatever else is in the batch.
        total = np.zeros(t.size, dtype=complex)
        for fold in terms:
            total += fold
        total -= np.where(live, np.ldexp(self.moments[0], -j_hi), 0.0)
        return total


@lru_cache(maxsize=8)
def _machine(p: LimitParams) -> _CfMachine:
    return _CfMachine(p)


def char_fn(t, p: LimitParams):
    """Characteristic function ``E exp(itW)`` at every ``t`` (vectorized;
    a 0-d ``t`` gives a complex).

    ``exp(i f t + I(t))`` with the drift from :func:`f_constant` and the
    compensated Levy integral assembled by dyadic folding, from one
    exponent call on ``|t|``; ``char_fn(-t) = conj(char_fn(t))`` and
    ``|char_fn(t)| <= 1``.  ``|t|`` beyond ``1e300`` gives exactly 0.  A
    NaN or infinite ``t`` raises ``ValueError`` naming it.
    """
    t = np.asarray(t, dtype=float)
    bad = t[~np.isfinite(t)]
    if bad.size:
        raise ValueError(f"t must be finite, got {float(bad[0])!r}")
    a = np.abs(t)
    near = a <= _FAR_T
    phi = np.zeros(t.shape, dtype=complex)
    a = a[near]
    phi[near] = np.exp(1j * f_constant(p) * a + _machine(p).exponent(a))
    phi = np.where(t < 0.0, np.conj(phi), phi)
    return complex(phi) if t.ndim == 0 else phi


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


class _CdfCache:
    """Gil-Pelaez inversion of any characteristic function ``e^{itf}
    psi(t)``, ``psi = exp(exponent(t))``, on the panels ``edges`` from a
    small ``t > 0`` to ``t_max = edges[-1]``; the tests also invert
    closed-form laws with it.

    The integrand ``Im[e^{itf} psi(t) e^{-itx}]/t`` oscillates at
    ``omega = x - f`` and is split as ``1/t + (psi(t)-1)/t``; the first
    part is the sine integral ``Si(omega t_max)``, the second is
    interpolated by panelwise cubics whose oscillatory integrals are
    exact: the :class:`_Filon` rule that also prices :func:`char_fn`,
    asked for ``Im J(-omega)`` only.  ``exponent`` is called once, on
    all distinct nodes, so a batch of points, however far in the tails,
    costs a few matrix products per block and no further ``psi``.

    ``err_estimate`` is the largest change on a probe grid between the
    CDF from the panels that end at or below ``t_max / 2`` (a second
    :class:`_Filon` on the same values) and from all panels, plus a bound
    on the omitted tail beyond ``t_max``: the truncation of the
    inversion integral only, not the cubic interpolation of ``psi`` or
    the error of ``psi`` itself.  The probe's CDF values are clipped to
    [0, 1] but not checked, so an integral that has not converged by
    ``t_max / 2`` gives a large estimate, not a failed build.
    """

    def __init__(self, exponent, f: float, edges: np.ndarray) -> None:
        self.f = f
        # Four equispaced nodes per panel; a panel's last node is the
        # next panel's first, and psi is computed once per distinct node.
        nodes = edges[:-1, None] + np.diff(edges)[:, None] * _NODE_OFFS
        flat, where = np.unique(nodes, return_inverse=True)
        psi = np.exp(exponent(flat))
        values = (psi[where].reshape(nodes.shape) - 1.0) / nodes
        self.filon = _Filon(edges, values)
        t_max = float(edges[-1])
        half = int(np.searchsorted(edges, 0.5 * t_max, side="right")) - 1
        truncated = _Filon(edges[: half + 1], values[:half])
        move = np.clip(self._raw_cdf(truncated, _PROBE_OMEGA), 0.0, 1.0) - np.clip(
            self._raw_cdf(self.filon, _PROBE_OMEGA), 0.0, 1.0
        )
        psi_mid = psi[min(np.searchsorted(flat, 0.5 * t_max), flat.size - 1)]
        tail = self._tail_bound(t_max, abs(psi[-1]), abs(psi_mid))
        self.err_estimate = float(np.max(np.abs(move)) + tail)

    @staticmethod
    def _tail_bound(t_max: float, psi_end: float, psi_mid: float) -> float:
        if psi_end <= 0.0:
            return 0.0
        decay = (
            math.log(psi_mid / psi_end) / (0.5 * t_max)
            if 0.0 < psi_end < psi_mid
            else 1.0
        )
        decay = max(decay, 1.0e-3)
        return psi_end / (math.pi * decay * t_max)

    def cdf_w(self, x: np.ndarray) -> np.ndarray:
        """CDF at the points ``x`` (vectorized).

        Points with ``|x - f|`` beyond ``_FAR_OMEGA`` get 0 or 1 directly.
        The others go through :meth:`_Filon.integral`, whose values do not
        depend on the worker count.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        omega = x - self.f
        out = (omega > 0.0).astype(float)
        near = np.abs(omega) <= _FAR_OMEGA
        out[near] = self._cdf(self.filon, omega[near])
        return out

    @staticmethod
    def _raw_cdf(filon: _Filon, omega: np.ndarray) -> np.ndarray:
        """CDF at ``omega = x - f`` from the panels of ``filon``, with the
        closed-form 1/t part taken to the end of its last panel; neither
        checked nor clipped."""
        im_j = filon.integral(-omega, _IM)[0]
        # The 1/t part: integral_0^t_end sin(omega t)/t dt = Si(omega t_end).
        return 0.5 + (specfun.sine_integral(omega * filon.edges[-1]) - im_j) / math.pi

    @classmethod
    def _cdf(cls, filon: _Filon, omega: np.ndarray) -> np.ndarray:
        """:meth:`_raw_cdf`, checked: raises :class:`NumericError` for a
        value outside ``[-_CDF_TOL, 1 + _CDF_TOL]``, NaN included; values
        inside that band are clipped to [0, 1].
        """
        vals = cls._raw_cdf(filon, omega)
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
    """The inversion of :func:`char_fn` for ``p``, on panels geometric
    from ``_T_FLOOR`` past 2, then ``_PANEL_H`` wide to ``_T_MAX``."""
    edges = [_T_FLOOR]
    while edges[-1] < 2.0:
        edges.append(edges[-1] * _GEO_RATIO)
    while edges[-1] < _T_MAX:
        edges.append(min(edges[-1] + _PANEL_H, _T_MAX))
    return _CdfCache(_machine(p).exponent, f_constant(p), np.array(edges))


def limit_cdf(
    w,
    p: LimitParams,
    table: series.ConstantTable | None = None,
):
    """CDF of the limit variable ``1 - C3(r) * W`` (vectorized in ``w``).

    ``C3`` comes from the constant table for ``(k, r)``.  The CDF of W is
    the module's one Gil-Pelaez inversion (:class:`_CdfCache`, checked in
    the tests against the Cauchy and normal laws), built once per ``p``
    from :func:`char_fn`'s exponent and drift.  Raises
    :class:`NumericError` if its error estimate (the largest probe-grid
    change between truncating the inversion integral at ``_T_MAX / 2``
    and at ``_T_MAX``, plus the bound on the omitted tail) exceeds 1e-4,
    or if a computed value lies outside [0, 1] by more than 1e-4; values
    inside that band are clipped.  The estimate covers the truncation
    only, not the discretization of ``psi`` by panelwise cubics nor the
    error of ``psi`` itself, whose block integrals are within 1e-9 of an
    oscillatory quadrature where ``r`` divides ``k`` and 2e-7 for ``1/2
    < r/k < 1`` (see :class:`_CfMachine`).  ``w = +inf`` gives exactly 1
    and ``w = -inf`` exactly 0, as does any finite ``w`` whose ``x = (1 -
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
    if not cache.err_estimate <= _CDF_TOL:  # a NaN estimate fails too
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
        "cdf_t_max": float(cache.filon.edges[-1]),
        "cdf_panels": cache.filon.widths.size,
    }


# ---------------------------------------------------------------------------
# Triangular-array sampler.
# ---------------------------------------------------------------------------


def _xi_classes(scale: ScaleParams) -> tuple[tuple[int, int], ...]:
    """``(size, count)`` of the nodes of height at most ``L`` in exact
    ints, from :meth:`kcut.cutsim.CompleteTree.size_classes`, by
    increasing size; a size found on two levels is one class."""
    if (1 << (scale.L + 1)) - 1 > scale.n:
        raise ValueError("height cutoff exceeds the tree; n too small")
    merged: Counter[int] = Counter()
    for level in CompleteTree(scale.n).size_classes()[: scale.L + 1]:
        merged.update(dict(level))
    return tuple(sorted(merged.items()))


# Breakpoints of the centring quadrature, in units of the clock scale
# (k!/m)**(1/k) past the truncation point, and the clock span covered.
_XI_SPLITS = (0.5, 2.0, 8.0, 32.0)
_XI_T_SPAN = 60.0
# Total of the xi terms one draw may leave out, in W units.
_XI_SKIP = 1.0e-13


@lru_cache(maxsize=32)
def _xi_centre(scale: ScaleParams, p: LimitParams) -> float:
    """Exact centring of the xi array, in W units: ``sum_v E[xi_v
    1[xi_v <= h]] - f + integral_h^1 x dnu`` with ``h = 2**(beta - alpha)
    * gamma(a)``, the array's own truncated mean moved to the limit's
    truncation at 1.  Each class of :func:`_xi_classes` takes one
    integral over its clock ``T ~ Gamma(k, 1)`` from the point ``t*``
    where ``xi_v`` falls to ``h``.  The integrand ``Q(a, m T**k / k!)``
    decays over a clock width ``(k!/m)**(1/k)``, narrow for large ``m``,
    so the interval is split at fixed multiples of it past ``t*``.  The
    classes share the integrand, so those with the same ``t*`` share one
    integral, and all of them and their pieces take one call of
    :func:`kcut.exactmean._gauss_kronrod`; a class whose ``abserr``
    exceeds 1e-9 raises :class:`NumericError`.
    """
    a, k = p.a, p.k
    ga, kfact, log_gk = math.gamma(a), math.factorial(k), math.lgamma(k)
    h = 2.0 ** (scale.beta - scale.alpha) * ga
    width = (kfact / scale.m) ** (1.0 / k)

    def integrand(t: np.ndarray, _: np.ndarray) -> np.ndarray:
        q = specfun.q(a, scale.m * t**k / kfact)
        return q * t ** (k - 1) * np.exp(-t - log_gk)

    classes = _xi_classes(scale)
    weights = [scale.m * size / scale.n for size, _ in classes]
    # For cap >= 1 every term is at most h, and q_inv gives t* = 0.
    caps = np.array([h / (w * ga) for w in weights])
    t_star = (kfact * specfun.q_inv(a, caps) / scale.m) ** (1.0 / k)
    starts, which = np.unique(t_star, return_inverse=True)
    cuts = [c * width for c in _XI_SPLITS if c * width < _XI_T_SPAN]
    lo = starts[:, None] + np.array([0.0, *cuts])
    hi = starts[:, None] + np.array([*cuts, _XI_T_SPAN])
    owner = np.repeat(np.arange(starts.size), len(cuts) + 1)
    values, abserrs = _gauss_kronrod(
        integrand, lo.ravel(), hi.ravel(), owner, 1.0e-12, 1.0e-13
    )
    if abserrs.max() > 1.0e-9:
        raise NumericError(f"centring quadrature error {abserrs.max():.2e}")
    total = 0.0
    for (_, count), w, value in zip(classes, weights, values[which].tolist()):
        total += count * w * ga * value
    if h < 1.0:
        block = levy_block_mean(p, h, 1.0)
    elif h > 1.0:
        block = -levy_block_mean(p, 1.0, h)
    else:
        block = 0.0
    return total - f_constant(p) + block


# Standard deviations of the trial count that a draw's budget covers,
# and the scratch of a chunk of draws, in float64 values.
_XI_MARGIN = 3.0
_XI_CHUNK_VALUES = 1 << 20


@lru_cache(maxsize=32)
def _xi_plan(scale: ScaleParams, p: LimitParams) -> tuple:
    """``(ga_weights, tables, t_cut, z_cut, power, trials)`` of the xi
    draws (:func:`xi_sampler_batch`): per class, ``gamma(a) m size / n``
    and the Binomial(count, ``P(k, t_cut)``) CDF until it reaches 1; the
    cut; whether the power proposal reads fewer uniforms per kept clock
    than the Gamma(k) one; and the trials of a draw's budget."""
    k, (sizes, counts) = p.k, zip(*_xi_classes(scale))
    ga_weights = math.gamma(p.a) * np.array([scale.m * z / scale.n for z in sizes])
    total = math.fsum(c * w for c, w in zip(counts, ga_weights))
    # The factor keeps total * Q(a, z_cut) <= 1e-13 after rounding.
    z_cut = float(specfun.q_inv(p.a, _XI_SKIP / total)) * (1.0 + 1e-12)
    t_cut = math.exp((math.lgamma(k + 1) + math.log(z_cut / scale.m)) / k)
    log_q_cut = float(specfun.log_q_int(k, t_cut))
    p_cut = -math.expm1(log_q_cut)
    power_rate = p_cut * math.exp(math.lgamma(k + 1) - k * math.log(t_cut))
    power = 2.0 / power_rate < k / p_cut
    rate = power_rate if power else p_cut
    # Trials until a Binomial(nodes, p_cut) count of clocks is accepted.
    kept = sum(counts) * p_cut
    sd = math.sqrt(kept * (2.0 - p_cut - rate)) / rate
    cdfs = [specfun.binom_cdf(c, p_cut, math.exp(log_q_cut)) for c in counts]
    tables = [f[: min(int(np.searchsorted(f, 1.0)), c)] for f, c in zip(cdfs, counts)]
    trials = math.ceil(kept / rate + _XI_MARGIN * sd) + 1
    return ga_weights, tables, t_cut, z_cut, power, trials


def xi_sampler_batch(
    scale: ScaleParams,
    p: LimitParams,
    table: series.ConstantTable | None = None,
    seed: int = 0,
    n_samples: int = 1,
    first_index: int = 0,
) -> np.ndarray:
    """Draws of the triangular-array approximation to ``1 - C3*W``,
    shape ``(n_samples,)``; draw ``i`` uses substream ``(seed,
    first_index + i)``.  Each is ``1 - C3 * (sum_v xi_v - centre)`` over
    the nodes of height at most ``L``, with i.i.d. Gamma(k, 1) clocks
    ``T_v``, ``xi_v = (m n_v / n) gamma(a) Q(a, m T_v**k / k!)`` and the
    exact truncated mean of :func:`_xi_centre`.  The draws converge in
    law to the limit along ``frac(lg n - lg lg n) -> gamma``, at no rate
    the paper gives: along ``n = 2**40, 2**80, 2**160`` (seed 20260825,
    100k draws) the KS distance to :func:`limit_cdf` is 0.075, 0.045,
    0.026 for (r, k) = (1, 1) and 0.087, 0.060, 0.042 for (1, 2).

    Only clocks at or below ``t_cut`` are drawn: with ``S = sum_v
    gamma(a) w_v`` and ``z_cut = m t_cut**k / k!``, ``S Q(a, z_cut) <=
    1e-13``, so the others move a draw by less than ``C3 * 1e-13``.  A
    class of :func:`_xi_classes` is exchangeable, so it needs only its
    count of such clocks, Binomial(count, ``P(k, t_cut)``), and that many
    Gamma(k) clocks truncated to ``[0, t_cut]``.  Draw ``i`` reads its
    substream's uniforms in order: one per class, whose binomial inverse
    CDF is the count; then trials of one proposal, whose accepted clocks
    fill the classes in order and add ``w gamma(a) Q(a, z)``:

    - ``U1, U2``: ``x = t_cut U1**(1/k)``, accepted if ``U2 <= exp(-x)``;
      ``z = z_cut U1``;
    - ``U1 .. Uk``: ``T = -log(U1 ... Uk)``, accepted if ``T <= t_cut``;
      ``z = z_cut (T / t_cut)**k``.

    :func:`_xi_plan` takes the one with fewer uniforms per clock: at ``n
    = 2**160``, k = 2, about 3700 a draw against 16 382 exponentials for
    all clocks.  Each draw reads its budget, the mean trials plus three
    standard deviations, up front, as every batch of :mod:`kcut.cutsim`
    reads its rows (by lanes where they are short); a draw that runs
    short reads on in its substream.  A worker then accepts, counts,
    prices and sums over the chunk.  The draws in flight, shared by the
    workers (:func:`kcut.cutsim.resolve_threads`: ``KCUT_THREADS``, else
    all CPUs), hold at most 8 MB of scratch (``_XI_CHUNK_VALUES``), or
    one draw where a draw needs more: the sweep's temporaries come from
    the workers' own malloc arenas, which keep them.  Rows of fewer than
    ``cutsim._SERIAL_FILL_ROW`` values, as at ``n = 2**40`` and
    ``2**160`` for k = 2 (2059 and 4041 values), are filled one worker
    at a time while the others sweep: on 2 CPUs, 10.8 and 20.5 us a draw
    on two workers against 16.2 and 24.4 when both filled at once (one
    worker: 15.9 and 34.7).  Neither the workers nor the chunk change
    the output.
    """
    table = series.constants(p.k, p.r) if table is None else table
    if (table.k, table.r, scale.k) != (p.k, p.r, p.k):
        raise ValueError(f"constant table or scale does not match {p}")
    ga_weights, tables, t_cut, z_cut, power, trials = _xi_plan(scale, p)
    k, classes, per = p.k, len(tables), 2 if power else p.k
    width = classes + per * trials
    shift = 1.0 + table.c3 * _xi_centre(scale, p)
    # The budget, two trial arrays and the kept clocks with their cells.
    chunk = max(1, _XI_CHUNK_VALUES // (width + 5 * trials))

    def accept(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Each trial's flag; the accepted trials' U1 (power) or U1 ... Uk.
        u = u.reshape(len(u), -1, per)
        v = u[:, :, 0].copy()
        if power:
            w = np.sqrt(v) if k == 2 else np.power(v, 1.0 / k)
            flag = u[:, :, 1] <= np.exp(np.multiply(w, -t_cut, out=w), out=w)
        else:
            for i in range(1, k):
                v *= u[:, :, i]
            flag = v >= math.exp(-t_cut)
        return flag, np.compress(flag.ravel(), v.ravel())

    def extra(i: int, missing: int) -> np.ndarray:
        # Draw i's next `missing` accepted trials past its budget.
        rng, more = substream(seed, int(first_index) + int(i)), np.empty(0)
        rng.random(width)
        while more.size < missing:
            more = np.append(more, accept(rng.random((1, width - classes)))[1])
        return more[:missing]

    # All class tables in one sorted array of keys c + i F: complex numbers
    # compare by real part, then imaginary part, so one search of c + i U
    # finds class c's count exactly, offset by the entries before it.
    merged = np.concatenate([c + 1j * cdf for c, cdf in enumerate(tables)])
    starts = np.cumsum([0] + [len(cdf) for cdf in tables[:-1]])

    def worker(budget: np.ndarray, out: np.ndarray):
        cells = np.empty((len(budget), classes + 1), dtype=np.int64)
        is_class = np.arange(cells.size) % (classes + 1) < classes
        keys = np.empty((len(budget), classes), dtype=complex)
        keys.real = np.arange(classes)

        def sweep(lo: int, hi: int) -> None:
            # count[:, c] is class c's clocks, count[:, -1] the spare trials.
            u, count = budget[: hi - lo], cells[: hi - lo]
            key = keys[: hi - lo]
            key.imag = u[:, :classes]
            found = np.searchsorted(merged, key.ravel(), side="right")
            np.subtract(found.reshape(key.shape), starts, out=count[:, :-1])
            flag, kept = accept(u[:, classes:])
            got = np.count_nonzero(flag, axis=1)
            count[:, -1] = got - count[:, :-1].sum(axis=1)
            # A short row's last clocks go after its others, from the end.
            for j in np.flatnonzero(count[:, -1] < 0)[::-1]:
                kept = np.insert(kept, got[: j + 1].sum(), extra(lo + j, -count[j, -1]))
                count[j, -1] = 0
            kept = kept[np.repeat(is_class[: count.size], count.ravel())]
            count[:, -1] = 0
            at = np.repeat(np.arange(count.size), count.ravel())
            if not power:
                kept = np.power(np.log(kept) / -t_cut, k)
            kept *= z_cut
            specfun.q(p.a, kept, out=kept)
            sums = np.bincount(at, weights=kept, minlength=count.size)
            terms = sums.reshape(count.shape)[:, :-1] * ga_weights
            out[lo:hi] = shift - table.c3 * terms.sum(axis=1)

        return sweep

    return _run_batch(n_samples, width, seed, first_index, chunk, None, worker)
