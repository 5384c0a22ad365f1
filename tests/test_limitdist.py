"""Tests for the limit law: Levy density/tail, drift, characteristic
function, CDF inversion, and the triangular-array sampler."""

from __future__ import annotations

import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, special

from kcut import limitdist, series
from kcut.cutsim import substream
from kcut.limitdist import LimitParams, ScaleParams
from oracles import subtree_size

RNG = np.random.default_rng(20260825)

FOUR_PAIRS = [(1, 1), (1, 2), (2, 2), (1, 3)]
GAMMAS = [0.0, 0.37, 0.99]


# ---------------------------------------------------------------------------
# Parameter objects.
# ---------------------------------------------------------------------------


def test_limit_params_validation() -> None:
    with pytest.raises(ValueError):
        LimitParams(0, 1, 0.0)
    with pytest.raises(ValueError):
        LimitParams(3, 2, 0.0)
    for r, k in ((True, True), (True, 1), (1, True)):
        with pytest.raises(ValueError):
            LimitParams(r, k, 0.0)
    with pytest.raises(ValueError, match="k must be an integer in"):
        LimitParams(1, series.MAX_K + 1, 0.0)
    with pytest.raises(ValueError):
        LimitParams(1, 1, 1.5)
    for s_max in (4, 55, 1001):
        with pytest.raises(ValueError, match=r"s_max must lie in \[56, 1000\]"):
            LimitParams(1, 1, 0.0, s_max=s_max)
    assert LimitParams(1, 1, 0.0, s_max=56).s_max == 56
    assert LimitParams(1, 1, 0.0, s_max=1000).s_max == 1000
    assert LimitParams(2, 3, 1.0).a == pytest.approx(2.0 / 3.0)


def test_scale_params_fields() -> None:
    sc = ScaleParams.from_n(1 << 40, 1)
    assert (sc.m, sc.ell, sc.L) == (40, 5, 7)
    assert sc.alpha == 0.0
    assert sc.beta == pytest.approx(math.log2(40.0) - 5.0, abs=1e-14)
    assert sc.gamma == pytest.approx((-sc.beta) % 1.0, abs=1e-14)
    sc2 = ScaleParams.from_n(1 << 30, 2)
    assert sc2.L == math.floor(1.75 * math.log2(30.0))
    with pytest.raises(ValueError):
        ScaleParams.from_n(15, 1)
    assert ScaleParams.from_n(np.int64(1 << 20), 1) == ScaleParams.from_n(
        1 << 20, 1
    )
    for n in (True, 2.0**20, "1048576"):
        with pytest.raises(ValueError, match="n must be an integer"):
            ScaleParams.from_n(n, 1)
    with pytest.raises(ValueError):
        ScaleParams.from_n(1 << 20, 0)
    with pytest.raises(ValueError, match="k must be an integer in"):
        ScaleParams.from_n(1 << 20, series.MAX_K + 1)


def test_scale_params_fraction_ranges() -> None:
    for n in (16, 17, 100, 1023, 1024, 1025, 1 << 18):
        sc = ScaleParams.from_n(n, 2)
        assert 0.0 <= sc.alpha < 1.0
        assert 0.0 <= sc.beta < 1.0
        assert sc.L >= sc.ell


# ---------------------------------------------------------------------------
# Levy density and tail.
# ---------------------------------------------------------------------------


def test_density_k1_closed_form() -> None:
    for g in (0.0, 0.37, 1.0):
        p = LimitParams(1, 1, g)
        for x in np.geomspace(0.05, 40.0, 17):
            want = 2.0 ** ((g + math.log2(x)) % 1.0) / (x * x)
            got = limitdist.levy_density(float(x), p)
            assert got == pytest.approx(want, rel=1e-12)


def test_density_unit_point() -> None:
    assert limitdist.levy_density(1.0, LimitParams(1, 1, 0.0)) == pytest.approx(
        1.0, rel=1e-12
    )


def test_density_dyadic_scaling() -> None:
    for r, k in FOUR_PAIRS:
        for g in GAMMAS:
            p = LimitParams(r, k, g)
            u = RNG.uniform(0.02, 50.0, size=20)
            for x in u:
                lhs = limitdist.levy_density(float(x), p)
                rhs = 0.25 * limitdist.levy_density(float(x) / 2.0, p)
                assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs))


def test_density_domain_error() -> None:
    # Every point must be finite and positive; the error names the first
    # bad one, whether it comes alone or inside an array.
    p = LimitParams(1, 2, 0.2)
    for bad in (math.nan, math.inf, -math.inf, 0.0, -1.0):
        named = f"got {re.escape(repr(bad))}$"
        for fn in (limitdist.levy_density, limitdist.levy_tail):
            for x in (bad, np.array([0.5, bad, 2.0, -3.0])):
                with pytest.raises(ValueError, match=named):
                    fn(x, p)
        for fn in (limitdist.levy_block_mean, limitdist.levy_block_moment2):
            for lo, hi in ((bad, 1.0), (0.5, bad)):
                with pytest.raises(ValueError, match=named):
                    fn(p, lo, hi)
    for fn in (limitdist.levy_block_mean, limitdist.levy_block_moment2):
        with pytest.raises(ValueError, match="need lo < hi"):
            fn(p, 2.0, 1.0)


@pytest.mark.parametrize("r,k,g", [(1, 1, 0.0), (2, 3, 0.9), (8, 8, 0.7)])
def test_series_array_equals_per_element_calls(r: int, k: int, g: float) -> None:
    # An array call sums each point's terms exactly as a call on that
    # point alone, also next to the wrap points where the phase jumps.
    p = LimitParams(r, k, g)
    wraps = math.gamma(p.a) * 2.0 ** (np.arange(-5, 7) - g)
    x = np.concatenate(
        [np.geomspace(0.05, 40.0, 301), wraps - 1e-9, wraps + 1e-9]
    )
    for fn in (limitdist.levy_density, limitdist.levy_tail):
        got = fn(x, p)
        want = np.array([fn(float(v), p) for v in x])
        assert np.array_equal(got, want)
        assert fn(x.reshape(5, -1), p).shape == (5, x.size // 5)
        for zero_d in (1.3, np.float64(1.3), np.array(1.3)):
            assert type(fn(zero_d, p)) is float


def test_series_memory_is_bounded_by_blocks() -> None:
    # A large array is priced in blocks of _PASS_SIZE series terms: the
    # traced peak stays a few blocks (one unblocked (50 000, 80) array
    # alone is 30 MB), and the values at block edges equal single-point
    # calls.
    p = LimitParams(1, 1, 0.3)
    x = np.geomspace(0.01, 100.0, 50_000)
    step = limitdist._PASS_SIZE // p.s_max
    for fn in (limitdist.levy_density, limitdist.levy_tail):
        tracemalloc.start()
        try:
            got = fn(x, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        for i in (step - 1, step, 2 * step, x.size - 1):
            assert got[i] == fn(float(x[i]), p)


def test_s_max_floor_meets_series_accuracy() -> None:
    # At the smallest valid s_max the omitted terms stay below 1e-14 of
    # the tail and the density and 1e-14 absolute in the drift (the rtol
    # leaves room for a few ulps of summation order).
    for r, k in ((1, 8), (1, 3), (1, 2), (2, 3), (1, 1)):
        lo = LimitParams(r, k, 0.3, s_max=56)
        hi = LimitParams(r, k, 0.3, s_max=1000)
        x = np.geomspace(0.01, 100.0, 97)
        for fn in (limitdist.levy_density, limitdist.levy_tail):
            np.testing.assert_allclose(fn(x, lo), fn(x, hi), rtol=1.2e-14, atol=0)
        assert abs(limitdist.f_constant(lo) - limitdist.f_constant(hi)) < 1.2e-14


def test_density_truncation_stability() -> None:
    for r, k in ((1, 2), (2, 3)):
        a = LimitParams(r, k, 0.41, s_max=80)
        b = LimitParams(r, k, 0.41, s_max=200)
        for x in (0.07, 0.9, 3.1, 27.0):
            da = limitdist.levy_density(x, a)
            db = limitdist.levy_density(x, b)
            assert da == pytest.approx(db, rel=1e-13)
            assert limitdist.levy_tail(x, a) == pytest.approx(
                limitdist.levy_tail(x, b), rel=1e-13
            )


def test_tail_rk_equal_closed_form() -> None:
    # For r = k the tail series collapses: with c = frac(gamma + lg x),
    # tail(x) = ln(2) * 2**c * (2 - c) / x.
    for k in (1, 2):
        for g in (0.0, 0.62):
            p = LimitParams(k, k, g)
            for x in (0.3, 1.0, 5.7):
                c = (g + math.log2(x)) % 1.0
                want = math.log(2.0) * 2.0**c * (2.0 - c) / x
                assert limitdist.levy_tail(x, p) == pytest.approx(
                    want, rel=1e-12
                )


def test_tail_decreasing_to_zero() -> None:
    p = LimitParams(1, 2, 0.3)
    v1, v10, v100 = (limitdist.levy_tail(x, p) for x in (1.0, 10.0, 100.0))
    assert v1 > v10 > v100 > 0.0
    assert v100 < 0.1 * v1


def test_tail_matches_density_derivative() -> None:
    # tail(x) - tail(X) must equal the integral of the density.
    for r, k, g in ((1, 1, 0.3), (1, 2, 0.8), (2, 3, 0.05)):
        p = LimitParams(r, k, g)
        for lo, hi in ((0.4, 0.9), (0.9, 2.7), (3.0, 11.0)):
            quad, err = integrate.quad(
                lambda x: limitdist.levy_density(x, p), lo, hi, limit=200
            )
            want = limitdist.levy_tail(lo, p) - limitdist.levy_tail(hi, p)
            assert quad == pytest.approx(want, rel=1e-6, abs=1e-9)
            assert err < 1e-7 * max(1.0, abs(want))


def test_profile_matches_scalar_density() -> None:
    # The spline profile that the CF and the CDF use, against the series,
    # on both sides of the kink.
    for r, k, g in ((1, 1, 0.0), (1, 2, 0.3), (2, 3, 0.9), (1, 8, 0.5), (8, 8, 0.7)):
        p = LimitParams(r, k, g)
        prof = limitdist._profile(p)
        x = np.concatenate(
            [np.geomspace(0.05, 40.0, 301), prof.kink + np.array([-1e-9, 1e-9])]
        )
        want = limitdist.levy_density(x, p)
        np.testing.assert_allclose(prof.dens(x), want, rtol=1e-10, atol=0.0)


# ---------------------------------------------------------------------------
# Block moments of the Levy measure.
# ---------------------------------------------------------------------------


def test_block_mean_reference_block() -> None:
    # integral_1^2 x dnu = Gamma(1 + r/k) for every gamma.
    for r, k, g in (
        (1, 1, 0.92),
        (1, 1, 0.0),
        (1, 2, 0.0),
        (2, 3, 0.41),
        (3, 3, 0.99),
    ):
        p = LimitParams(r, k, g)
        want = math.gamma(1.0 + r / k)
        assert limitdist.levy_block_mean(p, 1.0, 2.0) == pytest.approx(
            want, abs=1e-11
        )


def test_block_mean_general_interval() -> None:
    p = LimitParams(2, 3, 0.57)
    quad, err = integrate.quad(
        lambda x: x * limitdist.levy_density(x, p), 0.7, 3.3, limit=200
    )
    assert err < 1e-7
    assert limitdist.levy_block_mean(p, 0.7, 3.3) == pytest.approx(
        quad, rel=1e-7
    )


def test_block_mean_additivity() -> None:
    p = LimitParams(1, 2, 0.13)
    whole = limitdist.levy_block_mean(p, 0.5, 4.0)
    parts = limitdist.levy_block_mean(p, 0.5, 1.3) + limitdist.levy_block_mean(
        p, 1.3, 4.0
    )
    assert whole == pytest.approx(parts, rel=1e-11)


def test_block_moment2_dyadic_ratio() -> None:
    # x**2 dnu doubles when the window doubles.
    p = LimitParams(1, 2, 0.3)
    lo = limitdist.levy_block_moment2(p, 0.25, 0.5)
    hi = limitdist.levy_block_moment2(p, 0.5, 1.0)
    assert hi == pytest.approx(2.0 * lo, rel=1e-9)


def test_small_jump_moment2_stable() -> None:
    # integral_0^1 x**2 dnu is finite and stable under s_max doubling.
    a = LimitParams(1, 1, 0.3, s_max=80)
    b = LimitParams(1, 1, 0.3, s_max=160)
    va = limitdist.levy_block_moment2(a, 1e-12, 1.0)
    vb = limitdist.levy_block_moment2(b, 1e-12, 1.0)
    assert va == pytest.approx(1.42782460302727, rel=1e-10)
    assert va == pytest.approx(vb, rel=1e-11)


# ---------------------------------------------------------------------------
# Drift constant.
# ---------------------------------------------------------------------------


def test_f_reduction_r_equals_k() -> None:
    for k in (1, 2, 3):
        for g in (0.0, 0.25, 0.5, 0.75):
            p = LimitParams(k, k, g)
            want = 2.0**g - g - 1.0
            assert abs(limitdist.f_constant(p) - want) <= 1e-8


def test_f_gamma_zero_r_equals_k() -> None:
    assert limitdist.f_constant(LimitParams(2, 2, 0.0)) == pytest.approx(
        0.0, abs=1e-10
    )


def test_f_smax_stability() -> None:
    lo = limitdist.f_constant(LimitParams(1, 2, 0.5, s_max=80))
    hi = limitdist.f_constant(LimitParams(1, 2, 0.5, s_max=160))
    assert abs(lo - hi) <= 1e-10
    assert lo == pytest.approx(-0.269876912782119, abs=1e-11)


def test_f_regression_values() -> None:
    # Values pinned after cross-checking the r = k closed form and
    # s_max self-convergence.
    pins = {
        (1, 1, 0.678072): -0.0780718947665439,
        (2, 3, 0.25): -0.148433013726449,
        (2, 2, 0.75): -0.0682071694925711,
    }
    for (r, k, g), want in pins.items():
        assert limitdist.f_constant(LimitParams(r, k, g)) == pytest.approx(
            want, abs=1e-11
        )


# ---------------------------------------------------------------------------
# Characteristic function.
# ---------------------------------------------------------------------------


def test_char_fn_at_zero_and_symmetry() -> None:
    p = LimitParams(1, 2, 0.3)
    assert limitdist.char_fn(0.0, p) == 1.0 + 0.0j
    for t in (0.3, 1.7, 9.2):
        assert limitdist.char_fn(-t, p) == pytest.approx(
            np.conj(limitdist.char_fn(t, p)), abs=1e-13
        )
    with pytest.raises(ValueError):
        limitdist.char_fn(math.inf, p)


def test_char_fn_modulus_bounded() -> None:
    for r, k, g in ((1, 1, 0.0), (1, 2, 0.3), (2, 2, 0.9)):
        p = LimitParams(r, k, g)
        for t in np.linspace(-50.0, 50.0, 41):
            assert abs(limitdist.char_fn(float(t), p)) <= 1.0 + 1e-9


def test_char_fn_two_copies_identity() -> None:
    # phi(t)**2 = phi(2t) * exp(2it * integral_1^2 x dnu): gluing two
    # independent copies onto a doubled scale.
    for r, k in ((1, 1), (1, 2)):
        p = LimitParams(r, k, 0.3)
        c = limitdist.levy_block_mean(p, 1.0, 2.0)
        for t in np.linspace(-10.0, 10.0, 41):
            lhs = limitdist.char_fn(float(t), p) ** 2
            rhs = limitdist.char_fn(2.0 * float(t), p) * np.exp(
                2j * float(t) * c
            )
            assert abs(lhs - rhs) <= 1e-8


def test_char_fn_quad_ibp_seam() -> None:
    # The panel-quadrature and integration-by-parts routes agree near
    # the switchover frequency.
    m = limitdist._machine(LimitParams(1, 2, 0.3))
    tau = np.array([1500.0, 2500.0])
    gap = np.abs(m._v_quad(tau, compensated=False) - m._v_ibp(tau))
    assert np.all(gap <= 1e-7)


def test_exponent_array_equals_per_element_calls() -> None:
    # One array call prices every branch (t = 0, Taylor folds, shared
    # quadrature groups, integration by parts) exactly as calls made one
    # t at a time do.
    t = np.concatenate(
        [[0.0, 1e-10, 3e-7, 0.004], np.geomspace(0.01, 32.0, 40), [700.0, 2500.0]]
    )
    for p in (LimitParams(1, 2, 0.3), LimitParams(2, 3, 0.9)):
        m = limitdist._machine(p)
        whole = m.exponent(t)
        assert whole.shape == t.shape
        singles = np.array([m.exponent(float(v)) for v in t])
        assert np.array_equal(whole, singles)
        assert m.exponent(0.0) == 0.0


def test_char_fn_regression_value() -> None:
    got = limitdist.char_fn(3.0, LimitParams(1, 2, 0.3))
    assert got.real == pytest.approx(-0.002353969871022, abs=1e-9)
    assert got.imag == pytest.approx(0.000640856822777, abs=1e-9)


# ---------------------------------------------------------------------------
# CDF by inversion.
# ---------------------------------------------------------------------------


def test_limit_cdf_monotone_and_limits() -> None:
    p = LimitParams(1, 1, 0.0)
    table = series.constants(1, 1)
    w = np.linspace(-50.0, 2.5, 200)
    vals = limitdist.limit_cdf(w, p, table)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    assert np.all(np.diff(vals) >= -1e-7)
    # Left tail is heavy (the jump tail decays like 1/x), the right
    # tail light (spectrally positive, 1-stable-like), so the far
    # proxies are asymmetric but both converge.
    assert limitdist.limit_cdf(-1e4, p, table) < 5e-4
    assert limitdist.limit_cdf(1e4, p, table) > 1.0 - 1e-3
    assert (
        limitdist.limit_cdf(-50.0, p, table)
        < limitdist.limit_cdf(0.0, p, table)
        < limitdist.limit_cdf(2.5, p, table)
    )


def test_limit_cdf_scalar_matches_vector() -> None:
    p = LimitParams(1, 1, 0.0)
    table = series.constants(1, 1)
    grid = np.array([-3.0, -0.5, 0.9])
    vec = limitdist.limit_cdf(grid, p, table)
    for i, w in enumerate(grid):
        assert limitdist.limit_cdf(float(w), p, table) == pytest.approx(
            vec[i], abs=0.0
        )


def test_limit_cdf_non_finite_w() -> None:
    """``1 - C3 W`` has CDF exactly 1 at +inf and 0 at -inf, scalar or
    array; NaN is refused rather than passed through."""
    p = LimitParams(1, 1, 0.0)
    assert limitdist.limit_cdf(math.inf, p) == 1.0
    assert limitdist.limit_cdf(-math.inf, p) == 0.0
    vals = limitdist.limit_cdf(np.array([math.inf, 0.5, -math.inf]), p)
    assert vals.tolist() == [1.0, limitdist.limit_cdf(0.5, p), 0.0]
    with pytest.raises(ValueError, match="nan"):
        limitdist.limit_cdf(math.nan, p)
    with pytest.raises(ValueError, match="nan"):
        limitdist.limit_cdf(np.array([0.0, math.nan, math.inf]), p)


def test_limit_cdf_far_w() -> None:
    """Finite w so large that the inversion's phases would overflow get
    the 0 or 1 of the tails directly, as +-1e200 and +-inf already do,
    and the cut-off at |omega| = 1e100 leaves no step in the values."""
    for r, k, g in ((1, 1, 0.0), (1, 2, 0.3), (2, 3, 0.9)):
        p = LimitParams(r, k, g)
        for w in (1e308, 1.7e308, 1e200, math.inf):
            assert limitdist.limit_cdf(w, p) == 1.0
            assert limitdist.limit_cdf(-w, p) == 0.0
        vals = limitdist.limit_cdf(np.array([-1.7e308, -1e308, 0.5, 1e308]), p)
        assert vals.tolist() == [0.0, 0.0, limitdist.limit_cdf(0.5, p), 1.0]
        cache = limitdist._cdf_cache(p)
        edge = limitdist._FAR_OMEGA * np.array([-1.001, -1.0, 1.0, 1.001])
        assert cache.cdf_w(edge + cache.f).tolist() == [0.0, 0.0, 1.0, 1.0]


@pytest.mark.parametrize("r, k, g", [(1, 1, 0.0), (1, 2, 0.3)])
def test_limit_cdf_thread_invariance(
    monkeypatch, r: int, k: int, g: float
) -> None:
    """The CDF's blocks of points run on KCUT_THREADS workers, and the
    values are bitwise equal at any worker count, for point counts around
    the block size, with infinite and far-tail points mixed in."""
    p = LimitParams(r, k, g)
    cache = limitdist._cdf_cache(p)
    block = max(1, limitdist._PASS_SIZE // len(cache.edges))
    rng = np.random.default_rng(7)
    special_w = [math.inf, -math.inf, 1e300, -1.7e308]
    for size in (0, 1, block - 1, block, block + 1, 3 * block + 7):
        w = rng.uniform(-60.0, 4.0, size)
        if size:
            w = np.insert(w, [0, size // 2, size // 2, size], special_w)
        want = None
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("KCUT_THREADS", threads)
            got = limitdist.limit_cdf(w, p)
            assert got.shape == w.shape
            if want is None:
                want = got
            assert np.array_equal(got, want), (size, threads)


def test_limit_cdf_table_mismatch() -> None:
    p = LimitParams(1, 2, 0.0)
    with pytest.raises(ValueError):
        limitdist.limit_cdf(0.0, p, series.constants(1, 1))


def test_limit_cdf_numeric_error_guard(monkeypatch) -> None:
    p = LimitParams(1, 1, 0.0)

    class Bad:
        err_estimate = 1.0

    monkeypatch.setattr(limitdist, "_cdf_cache", lambda _: Bad())
    with pytest.raises(limitdist.NumericError):
        limitdist.limit_cdf(0.0, p)


def test_cdf_cache_one_exponent_call_per_node(monkeypatch) -> None:
    # One build at the fixed t_max, one exponent call on all its nodes:
    # three new nodes per panel plus the first, each passed once.
    calls = []
    exponent = limitdist._CfMachine.exponent

    def counted(self, t):
        calls.append(np.array(t, dtype=float).ravel())
        return exponent(self, t)

    monkeypatch.setattr(limitdist._CfMachine, "exponent", counted)
    cache = limitdist._CdfCache(LimitParams(1, 2, 0.3))
    assert len(cache.coeffs) == 369
    assert len(calls) == 1
    assert calls[0].size == np.unique(calls[0]).size == 3 * 369 + 1
    assert cache.err_estimate < 1e-10


def _filon_moments(omega: np.ndarray, h: float) -> np.ndarray:
    """``integral_0^h u**p e^{-i omega u} du`` for p = 0..3: the exact
    recurrence ``m_p = (h**p e^{zh} - p m_{p-1})/z``, ``z = -i omega``,
    or an 18-term power series where ``|omega| h < 1/2``."""
    z = -1j * omega
    zh = z * h
    small = np.abs(zh) < 0.5
    z_safe = np.where(small, 1.0, z)
    ezh = np.exp(zh)
    out = np.empty((4,) + omega.shape, dtype=complex)
    out[0] = (ezh - 1.0) / z_safe
    for pw in range(1, 4):
        out[pw] = (h**pw * ezh - pw * out[pw - 1]) / z_safe
    if np.any(small):
        zh_s = zh[small]
        acc = np.zeros((4,) + zh_s.shape, dtype=complex)
        term = np.ones(zh_s.shape, dtype=complex)
        for j in range(18):
            for pw in range(4):
                acc[pw] += term / (pw + j + 1)
            term = term * zh_s / (j + 1)
        for pw in range(4):
            out[pw][small] = h ** (pw + 1) * acc[pw]
    return out


def _per_panel_cdf(cache, omega: np.ndarray) -> np.ndarray:
    """CDF of W at ``omega = x - f`` by a loop over the cache's panels,
    one set of Filon moments per panel: the oracle of the matrix-product
    evaluator."""
    t_end = cache.edges[-1]
    w_nz = np.where(omega == 0.0, 1.0, omega)
    j_total = np.where(
        omega == 0.0,
        math.log(t_end / limitdist._T_FLOOR),
        special.exp1(1j * w_nz * limitdist._T_FLOOR)
        - special.exp1(1j * w_nz * t_end),
    )
    for start, h, coeff in zip(cache.edges[:-1], cache.widths, cache.coeffs):
        m = _filon_moments(omega, float(h))
        acc = (
            coeff[0] * m[0]
            + coeff[1] * m[1] / h
            + coeff[2] * m[2] / h**2
            + coeff[3] * m[3] / h**3
        )
        j_total = j_total + np.exp(-1j * omega * start) * acc
    z = omega * limitdist._T_FLOOR
    vals = 0.5 - (np.imag(j_total) - (z - z**3 / 18.0)) / math.pi
    return np.clip(vals, 0.0, 1.0)


def test_cdf_matches_per_panel_filon_loop() -> None:
    grid = np.linspace(-400.0, 8.0, 4097)
    for r, k, g in ((1, 1, 0.0), (1, 2, (-math.log2(5.0)) % 1.0), (2, 3, 0.9)):
        p = LimitParams(r, k, g)
        cache = limitdist._cdf_cache(p)
        x = (1.0 - grid) / series.constants(k, r).c3
        want = _per_panel_cdf(cache, x - cache.f)
        assert np.max(np.abs(cache.cdf_w(x) - want)) <= 1e-13
    # 100k points over several evaluation blocks, with omega = 0 exactly,
    # |omega| < 1e-9 and |omega| near 1e4.
    omega = np.concatenate(
        [
            [0.0, 1e-10, -3e-12, 5e-10, 1e4, -1e4, 9.5e3, -1.2e4],
            np.random.default_rng(3).uniform(-60.0, 4.0, 99_992),
        ]
    )
    got = cache.cdf_w(omega + cache.f)
    want = _per_panel_cdf(cache, (omega + cache.f) - cache.f)
    assert np.max(np.abs(got - want)) <= 1e-13


def test_limit_cdf_fails_loudly_outside_unit_interval(monkeypatch) -> None:
    # series[0, 0] multiplies Re E_0 = cos(1e-10 omega), about 1, in Im of
    # the first panel's integral of (psi - 1)/t; raising it by delta
    # lowers every CDF value of W by delta/pi, and in the light left
    # tail that pushes values below 0.
    p = LimitParams(1, 1, 0.0)
    table = series.constants(1, 1)
    cache = limitdist._cdf_cache(p)
    w = np.linspace(20.0, 40.0, 5)
    assert np.all(limitdist.limit_cdf(w, p, table) > 1.0 - 1e-5)
    for delta, fails in ((5e-5, False), (2e-4, True)):
        perturbed = cache.series.copy()
        perturbed[0, 0] += math.pi * delta
        monkeypatch.setattr(cache, "series", perturbed)
        if fails:
            with pytest.raises(limitdist.NumericError, match="outside"):
                limitdist.limit_cdf(w, p, table)
        else:
            # Inside the band the excursion is clipped.
            assert np.all(limitdist.limit_cdf(w, p, table) == 1.0)


def test_psi_negligible_at_half_t_max() -> None:
    # The evidence behind the fixed t_max: for every shape a = r/k with
    # k <= MAX_K, |psi| at t_max / 2 is far below the CDF tolerance, so
    # the panels past it only confirm convergence.
    shapes = {
        Fraction(r, k)
        for k in range(1, series.MAX_K + 1)
        for r in range(1, k + 1)
    }
    assert len(shapes) == 22
    for a in sorted(shapes):
        for g in (0.0, 0.5):
            p = LimitParams(a.numerator, a.denominator, g)
            psi = np.exp(limitdist._machine(p).exponent(0.5 * limitdist._T_MAX))
            assert abs(psi) < 1e-12, (a, g, abs(psi))


def test_limit_cdf_vs_direct_inversion() -> None:
    # Independent route: the textbook inversion integral straight from
    # char_fn's exponent, by composite 16-node Gauss-Legendre rules with
    # 9q geometric panels on [1e-9, 1] and 24q equal panels on [1, 25].
    # The modulus decays exponentially, so truncating at 25 is far below
    # the comparison tolerance; halving the panels bounds the rule's error.
    p = LimitParams(1, 1, 0.0)
    table = series.constants(1, 1)
    f = limitdist.f_constant(p)
    x = np.array([f + 0.5, f + 3.0])
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(16)

    def direct(q: int) -> np.ndarray:
        edges = np.concatenate(
            [
                np.geomspace(1e-9, 1.0, 9 * q + 1),
                np.linspace(1.0, 25.0, 24 * q + 1)[1:],
            ]
        )
        mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
        t = (mid[:, None] + half[:, None] * gl_nodes).ravel()
        weights = (half[:, None] * gl_weights).ravel()
        phi = np.exp(1j * f * t + limitdist._machine(p).exponent(t))
        integrand = (phi * np.exp(-1j * np.outer(x, t))).imag / t
        return 0.5 - integrand @ weights / math.pi

    coarse, fine = direct(8), direct(16)
    assert np.max(np.abs(fine - coarse)) < 1e-6
    got = 1.0 - limitdist.limit_cdf(1.0 - table.c3 * x, p, table)
    np.testing.assert_allclose(got, fine, rtol=0.0, atol=5e-5)


# ---------------------------------------------------------------------------
# Triangular-array sampler.
# ---------------------------------------------------------------------------


def test_xi_weights_shape_and_values() -> None:
    sc = ScaleParams.from_n(1 << 20, 1)
    w = limitdist._xi_weights(sc)
    assert w.size == (1 << (sc.L + 1)) - 1
    # Root weight is m * n / n = m; level-1 weights about half that.
    assert w[0] == pytest.approx(sc.m)
    assert w[1] + w[2] == pytest.approx(sc.m * (1.0 - 1.0 / sc.n))


def test_xi_weights_match_per_node_sizes() -> None:
    """The per-level weights equal ``m * subtree_size(v) / n`` node by
    node, at a size whose last level is partly filled."""
    sc = ScaleParams.from_n((1 << 40) + 12345, 2)
    count = (1 << (sc.L + 1)) - 1
    want = np.array(
        [sc.m * subtree_size(sc.n, v) / sc.n for v in range(1, count + 1)]
    )
    got = limitdist._xi_weights(sc)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


def test_xi_weights_beyond_float_range() -> None:
    """n above 2**1024 cannot be converted to float; the weights are
    exact ratios of ints and stay finite."""
    n = (1 << 1100) + 1
    sc = ScaleParams.from_n(n, 1)
    w = limitdist._xi_weights(sc)
    assert w.size == (1 << (sc.L + 1)) - 1
    assert np.all(np.isfinite(w)) and np.all(w > 0.0)
    assert w[0] == sc.m
    # Level 1 holds every node but the root: m * (n - 1) / n in sum.
    assert w[1] + w[2] == pytest.approx(sc.m)


def test_xi_sampler_bounds_and_determinism() -> None:
    sc = ScaleParams.from_n(1 << 30, 2)
    p = LimitParams(1, 2, 0.0)
    table = series.constants(2, 1)
    x = limitdist.xi_sampler_batch(sc, p, table, seed=5, n_samples=64)
    shift = 1.0 + table.c3 * limitdist._xi_centre(sc, p)
    # xi_v >= 0 always, so no draw can exceed the deterministic shift.
    assert np.all(x <= shift + 1e-12)
    assert np.all(np.isfinite(x))
    y = limitdist.xi_sampler_batch(sc, p, table, seed=5, n_samples=64)
    assert np.array_equal(x, y)
    one = limitdist.xi_sampler_batch(
        sc, p, table, seed=5, n_samples=1, first_index=3
    )
    assert one[0] == x[3]
    # The exact centring moves the asymptotic compensator by the
    # truncated-mean gap, computed here by an independent quadrature.
    exact = 1.0 + table.c3 * limitdist._xi_centre(
        sc, LimitParams(1, 2, sc.gamma)
    )
    asymptotic = (
        2.0 ** (1.0 - sc.alpha) + sc.alpha - sc.beta - sc.ell + sc.L + 1.0
    )
    gap = _truncated_mean_gap(1 << 30, 1, 2)
    assert exact - asymptotic == pytest.approx(table.c3 * gap, abs=1e-7)


@pytest.mark.parametrize("r, k", [(1, 1), (1, 2), (2, 3)])
def test_xi_sampler_stream_definition(r: int, k: int) -> None:
    """Draw i of seed s takes row v of ``substream(s, i)``'s node-major
    ``(N, k)`` exponentials, sums it in order into the clock ``T_v`` and
    adds ``w_v * gamma(a) * Q(a, m T_v**k / k!)`` over the nodes.  The
    three cases take Q through exp, erfc and gammaincc."""
    sc = ScaleParams.from_n(1 << 20, k)
    p = LimitParams(r, k, sc.gamma)
    table = series.constants(k, r)
    a = p.a
    weights = limitdist._xi_weights(sc)
    shift = 1.0 + table.c3 * limitdist._xi_centre(sc, p)
    got = limitdist.xi_sampler_batch(sc, p, table, seed=3, n_samples=8)
    for i in (0, 7):
        exps = substream(3, i).standard_exponential((weights.size, k))
        xi = []
        for w, row in zip(weights, exps):
            t = 0.0
            for e in row:
                t += e
            z = sc.m * t**k / math.factorial(k)
            if a == 1.0:
                q = math.exp(-z)
            elif a == 0.5:
                q = math.erfc(math.sqrt(z))
            else:
                q = float(special.gammaincc(a, z))
            xi.append(w * math.gamma(a) * q)
        want = shift - table.c3 * math.fsum(xi)
        assert got[i] == pytest.approx(want, rel=1e-12, abs=0.0), i


@pytest.mark.parametrize("e", [40, 160])
@pytest.mark.parametrize("r, k", [(1, 1), (1, 2), (2, 3)])
def test_xi_sampler_skip_bound(r: int, k: int, e: int) -> None:
    """For a != 1 each draw leaves out the terms whose Q is priced past
    q_inv(a, 1e-13 / sum_v gamma(a) w_v), which add less than 1e-13 in
    W units, so it is within C3 * 1e-13 plus rounding of the fsum over
    all nodes.  For a = 1 nothing is left out, and each draw equals the
    full sweep's weighted row sum bitwise."""
    sc = ScaleParams.from_n(1 << e, k)
    p = LimitParams(r, k, sc.gamma)
    table = series.constants(k, r)
    a = p.a
    ga_weights = math.gamma(a) * limitdist._xi_weights(sc)
    z_per_clock = sc.m / math.factorial(k)
    shift = 1.0 + table.c3 * limitdist._xi_centre(sc, p)
    got = limitdist.xi_sampler_batch(sc, p, table, seed=3, n_samples=6)
    eps = np.finfo(float).eps
    for i, draw in enumerate(got):
        exps = substream(3, i).standard_exponential((ga_weights.size, k))
        clocks = exps[:, 0].copy()
        for col in range(1, k):
            clocks += exps[:, col]
        z = np.power(clocks, k) * z_per_clock
        if a == 1.0:
            q = np.exp(-z)
        elif a == 0.5:
            q = np.array([math.erfc(math.sqrt(v)) for v in z])
        else:
            q = special.gammaincc(a, z)
        terms = ga_weights * q
        if a == 1.0:
            assert draw == shift - table.c3 * terms.sum(), i
        want = shift - table.c3 * math.fsum(terms)
        rounding = 16.0 * eps * (abs(shift) + table.c3 * math.fsum(terms))
        assert abs(draw - want) <= table.c3 * 1e-13 + rounding, i


def test_xi_sampler_split_invariance() -> None:
    sc = ScaleParams.from_n(1 << 20, 1)
    p = LimitParams(1, 1, 0.0)
    table = series.constants(1, 1)
    whole = limitdist.xi_sampler_batch(sc, p, table, seed=9, n_samples=32)
    tail = limitdist.xi_sampler_batch(
        sc, p, table, seed=9, n_samples=20, first_index=12
    )
    assert np.array_equal(whole[12:], tail)


def test_xi_sampler_chunk_invariance() -> None:
    sc = ScaleParams.from_n(1 << 20, 2)
    p = LimitParams(1, 2, 0.0)
    table = series.constants(2, 1)
    whole = limitdist.xi_sampler_batch(sc, p, table, seed=3, n_samples=30)
    rechunked = limitdist.xi_sampler_batch(
        sc, p, table, seed=3, n_samples=30, chunk=7
    )
    assert np.array_equal(whole, rechunked)


def test_xi_sampler_thread_and_chunk_invariance() -> None:
    sc = ScaleParams.from_n(1 << 40, 2)  # 1023 clocks a row
    p = LimitParams(1, 2, sc.gamma)
    table = series.constants(2, 1)
    for first in (0, 13):
        for size in (0, 1, 2, 5, 40):
            want = limitdist.xi_sampler_batch(
                sc, p, table, 4, size, first_index=first, threads=1
            )
            assert want.shape == (size,)
            for threads in (1, 2, 3):
                for chunk in (None, 1, 7):
                    got = limitdist.xi_sampler_batch(
                        sc, p, table, 4, size, first_index=first,
                        chunk=chunk, threads=threads,
                    )
                    assert np.array_equal(got, want), (threads, chunk)


def test_xi_sampler_threads_share_the_memory_budget() -> None:
    sc = ScaleParams.from_n(1 << 160, 2)
    p = LimitParams(1, 2, sc.gamma)
    table = series.constants(2, 1)
    limitdist.xi_sampler_batch(sc, p, table, seed=1, n_samples=1)
    peaks = {}
    for threads in (1, 2):
        tracemalloc.start()
        try:
            limitdist.xi_sampler_batch(
                sc, p, table, seed=1, n_samples=2048, threads=threads
            )
            peaks[threads] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[2] <= peaks[1] + 2**20


def test_xi_sampler_default_chunk_bounds_memory() -> None:
    """At n = 2**160, k = 2 a row has 8191 clocks, so the default chunks
    of all workers together hold 512 rows, one 32 MB budget, and every
    step works in them."""
    sc = ScaleParams.from_n(1 << 160, 2)
    p = LimitParams(1, 2, sc.gamma)
    table = series.constants(2, 1)
    limitdist.xi_sampler_batch(sc, p, table, seed=1, n_samples=1)
    tracemalloc.start()
    try:
        limitdist.xi_sampler_batch(sc, p, table, seed=1, n_samples=2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_xi_sampler_k_mismatch() -> None:
    sc = ScaleParams.from_n(1 << 20, 2)
    p = LimitParams(1, 1, 0.0)
    with pytest.raises(ValueError):
        limitdist.xi_sampler_batch(sc, p, series.constants(1, 1), seed=0)


def _truncated_mean_gap(n: int, r: int, k: int) -> float:
    """Exact gap in the truncated-mean identity for the xi array.

    Computes E[sum_v xi_v 1[xi_v <= h]] by per-weight-class quadrature
    (h = 2**(beta-alpha) * Gamma(r/k)) and subtracts the predicted
    limit value Gamma(1 + r/k)*(2**(1-alpha) + alpha - beta - ell + L)
    + f - integral_h^1 x dnu.  The gap must shrink as n grows.  The
    integrand falls from its peak at the truncation point t* over a
    width of order (k!/m)**(1/k), so the quadrature is split at fixed
    multiples of that width; without the splits it misses the peak at
    large n.
    """
    sc = ScaleParams.from_n(n, k)
    a = r / k
    ga = math.gamma(a)
    h = 2.0 ** (sc.beta - sc.alpha) * ga
    kfact = math.factorial(k)
    width = (kfact / sc.m) ** (1.0 / k)
    total = 0.0
    for wv, cnt in zip(*np.unique(limitdist._xi_weights(sc), return_counts=True)):
        cap = h / (wv * ga)
        if cap >= 1.0:
            tstar = 0.0
        else:
            tstar = (kfact * special.gammainccinv(a, cap) / sc.m) ** (1.0 / k)

        def integrand(t: float) -> float:
            z = sc.m * t**k / kfact
            q = math.exp(-z) if a == 1.0 else special.gammaincc(a, z)
            return wv * ga * q * t ** (k - 1) * math.exp(-t) / math.gamma(k)

        splits = [tstar + c * width for c in (0.5, 2.0, 8.0, 32.0)]
        val, err = integrate.quad(
            integrand,
            tstar,
            tstar + 60.0,
            points=[t for t in splits if t < tstar + 60.0],
            limit=300,
        )
        assert err < 1e-8
        total += cnt * val
    p = LimitParams(r, k, sc.gamma)
    if h < 1.0:
        block = limitdist.levy_block_mean(p, h, 1.0)
    elif h > 1.0:
        block = -limitdist.levy_block_mean(p, 1.0, h)
    else:
        block = 0.0
    lhs = total - math.gamma(1.0 + a) * (
        2.0 ** (1.0 - sc.alpha) + sc.alpha - sc.beta - sc.ell + sc.L
    )
    return lhs - (limitdist.f_constant(p) - block)


def test_xi_array_mean_structure_self_convergence() -> None:
    # The exact truncated mean of the array approaches the limit
    # structure as n grows; this checks every piece of the sampler's
    # bookkeeping (weights, shift, drift, block mean) without noise.
    exps = (20, 30, 40, 80, 160)
    gaps = [abs(_truncated_mean_gap(1 << e, 1, 1)) for e in exps]
    assert all(g0 > g1 for g0, g1 in zip(gaps, gaps[1:])), gaps
    assert gaps[exps.index(40)] < 0.17
