"""Tests for the limit law: Levy density/tail, drift, characteristic
function, CDF inversion, and the triangular-array sampler."""

from __future__ import annotations

import contextlib
import dataclasses
import inspect
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, special

from kcut import cutsim, exactmean, limitdist, series, specfun
from kcut.cutsim import CompleteTree, substream
from kcut.limitdist import LimitParams, ScaleParams
from oracles import (
    levy_block_integrals, levy_block_moment2, subtree_size, xi_sampler_dense,
    xi_weights,
)

RNG = np.random.default_rng(20260825)


@contextlib.contextmanager
def _series_terms(terms: int):
    """Every Levy series summed to ``terms`` terms instead of
    ``_S_MAX``; the caches keyed on ``LimitParams`` are emptied on entry
    and on exit, so no value of another length leaks in or out."""
    caches = (
        limitdist.f_constant, limitdist._machine, limitdist._cdf_cache,
        limitdist._xi_centre, limitdist._xi_plan,
    )
    with pytest.MonkeyPatch.context() as m:
        for cache in caches:
            cache.cache_clear()
        m.setattr(limitdist, "_S_MAX", terms)
        try:
            yield
        finally:
            for cache in caches:
                cache.cache_clear()


def _lglg_floor(n: int) -> int:
    """``floor(lg lg n)``, the integer part that ``beta`` drops."""
    return math.floor(math.log2(math.log2(n)))

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
    assert LimitParams(2, 3, 1.0).a == pytest.approx(2.0 / 3.0)


def test_scale_params_fields() -> None:
    sc = ScaleParams.from_n(1 << 40, 1)
    assert (sc.m, sc.L) == (40, 7)
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
        assert sc.L >= _lglg_floor(n)


# The parent's values: n -> (m, alpha, beta, gamma, L for k = 1..8).
_SCALE_VALUES = {
    16: (4, 0.0, 0.0, 0.0, (3,) * 8),
    2**20 + 1: (
        20, 1.3758605525993062e-06, 0.32192819413471874, 0.6780731817258339,
        (6, 7, 7, 8, 8, 8, 8, 8),
    ),
    2**40: (
        40, 0.0, 0.3219280948873626, 0.6780719051126374,
        (7, 9, 9, 9, 10, 10, 10, 10),
    ),
    2**160: (
        160, 0.0, 0.3219280948873626, 0.6780719051126374,
        (10, 12, 13, 13, 13, 14, 14, 14),
    ),
    2**1100: (
        1100, 0.0, 0.10328780841202168, 0.8967121915879783,
        (15, 17, 18, 18, 19, 19, 19, 19),
    ),
}


def test_scale_params_derives_from_n_and_k() -> None:
    """``ScaleParams`` holds only ``n`` and ``k``; ``m``, ``L``,
    ``alpha``, ``beta`` and ``gamma`` are computed from them, to the
    same doubles as when they were stored fields.  Building it directly
    checks its inputs as ``from_n`` does."""
    for n, (m, alpha, beta, gamma, ells) in _SCALE_VALUES.items():
        for k, big_l in enumerate(ells, start=1):
            sc = ScaleParams(n, k)
            assert sc == ScaleParams.from_n(n, k)
            got = (sc.m, sc.L, sc.alpha, sc.beta, sc.gamma)
            assert got == (m, big_l, alpha, beta, gamma), (n, k)
            assert type(sc.m) is int and type(sc.L) is int
    for n, k in ((15, 2), (True, 2), (2**20, 9)):
        with pytest.raises(ValueError):
            ScaleParams(n, k)
        with pytest.raises(ValueError):
            ScaleParams.from_n(n, k)


def test_public_inputs_are_pinned() -> None:
    """The inputs a caller can set: the batch functions' parameters, the
    two that take ``k`` where they took a constant table, and the fields
    of the parameter objects.  A new knob has to change this list."""
    want = {
        cutsim.simulate_records_batch: [
            "tree", "k", "seed", "n_samples", "first_index", "chunk", "threads",
        ],
        cutsim.simulate_edge_records_batch: [
            "tree", "k", "seed", "n_samples", "first_index", "chunk", "threads",
        ],
        cutsim.simulate_process_batch: [
            "tree", "k", "seed", "n_samples", "first_index",
        ],
        limitdist.xi_sampler_batch: [
            "scale", "p", "table", "seed", "n_samples", "first_index",
        ],
        exactmean.asymptotic_mean: ["n", "k", "r"],
        cutsim.rescale_counts: ["counts", "r", "k", "n"],
    }
    for fn, names in want.items():
        assert list(inspect.signature(fn).parameters) == names, fn.__name__
    fields = {
        LimitParams: ["r", "k", "gamma"],
        ScaleParams: ["n", "k"],
    }
    for cls, names in fields.items():
        assert [f.name for f in dataclasses.fields(cls)] == names, cls.__name__


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
        for fn in (limitdist.levy_block_mean, levy_block_moment2):
            for lo, hi in ((bad, 1.0), (0.5, bad)):
                with pytest.raises(ValueError, match=named):
                    fn(p, lo, hi)
    for fn in (limitdist.levy_block_mean, levy_block_moment2):
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
    step = limitdist._PASS_SIZE // limitdist._S_MAX
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


def _series_values(p: LimitParams, terms: int, x) -> tuple:
    """Density, tail and drift of ``p`` with series of ``terms`` terms."""
    with _series_terms(terms):
        return (
            limitdist.levy_density(x, p),
            limitdist.levy_tail(x, p),
            limitdist.f_constant(p),
        )


def test_s_max_floor_meets_series_accuracy() -> None:
    # At 56 terms, the fewest _S_MAX may be, the omitted terms stay below
    # 1e-14 of the tail and the density and 1e-14 absolute in the drift
    # against 1000 terms, the most (the rtol leaves room for a few ulps
    # of summation order).
    for r, k in ((1, 8), (1, 3), (1, 2), (2, 3), (1, 1)):
        p = LimitParams(r, k, 0.3)
        x = np.geomspace(0.01, 100.0, 97)
        dens_lo, tail_lo, f_lo = _series_values(p, 56, x)
        dens_hi, tail_hi, f_hi = _series_values(p, 1000, x)
        np.testing.assert_allclose(dens_lo, dens_hi, rtol=1.2e-14, atol=0)
        np.testing.assert_allclose(tail_lo, tail_hi, rtol=1.2e-14, atol=0)
        assert abs(f_lo - f_hi) < 1.2e-14


def test_density_truncation_stability() -> None:
    x = np.array([0.07, 0.9, 3.1, 27.0])
    for r, k in ((1, 2), (2, 3)):
        p = LimitParams(r, k, 0.41)
        dens_a, tail_a, _ = _series_values(p, 80, x)
        dens_b, tail_b, _ = _series_values(p, 200, x)
        assert dens_a == pytest.approx(dens_b, rel=1e-13)
        assert tail_a == pytest.approx(tail_b, rel=1e-13)


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
    lo = levy_block_moment2(p, 0.25, 0.5)
    hi = levy_block_moment2(p, 0.5, 1.0)
    assert hi == pytest.approx(2.0 * lo, rel=1e-9)


def test_small_jump_moment2_stable() -> None:
    # integral_0^1 x**2 dnu is finite and stable when the series terms
    # double from 80.
    p = LimitParams(1, 1, 0.3)
    with _series_terms(80):
        va = levy_block_moment2(p, 1e-12, 1.0)
    with _series_terms(160):
        vb = levy_block_moment2(p, 1e-12, 1.0)
    assert va == pytest.approx(1.42782460302727, rel=1e-10)
    assert va == pytest.approx(vb, rel=1e-11)


@pytest.mark.parametrize(
    "r,k,g",
    [
        (1, 1, 0.0), (1, 2, 0.3), (2, 2, 0.99), (1, 3, 0.5), (8, 8, 0.7),
        (2, 3, 0.9), (3, 4, 0.2), (4, 5, 0.8), (5, 6, 0.5), (7, 8, 0.3),
    ],
)
def test_cf_moment2_matches_quadrature(r: int, k: int, g: float) -> None:
    # The CF's interpolant moments, which its dyadic folds use, hold
    # integral_1^2 x**2 dnu as 2 * moments[2] (M_2 / 2!).  The measured
    # errors on these shapes are 3.9e-10 where r divides k and 2.4e-7
    # elsewhere.
    p = LimitParams(r, k, g)
    want = levy_block_moment2(p, 1.0, 2.0)
    got = 2.0 * limitdist._machine(p).moments[2]
    assert abs(got - want) <= (1e-9 if k % r == 0 else 5e-7) * want


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
    p = LimitParams(1, 2, 0.5)
    lo = _series_values(p, 80, 1.0)[2]
    hi = _series_values(p, 160, 1.0)[2]
    assert abs(lo - hi) <= 1e-10
    assert lo == pytest.approx(-0.269876912782119, abs=1e-11)


def test_f_regression_values() -> None:
    # Values pinned after cross-checking the r = k closed form and
    # self-convergence in the number of series terms.
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


def test_char_fn_array_equals_per_element_calls(monkeypatch) -> None:
    # One array call equals per-element calls bitwise, negative t by
    # conjugation, with one exponent call for the whole array; a 0-d t
    # gives a complex, t up to 1e300 stays finite (the fold weights 2**j
    # alone overflow from about 1e146), beyond it char_fn is exactly 0
    # without pricing the exponent (its imaginary part overflows from about
    # 1e306), and a non-finite entry is named in the error.
    p = LimitParams(2, 3, 0.9)
    far = [1e306, 8e307, 1.7e308, -1.7e308]
    t = np.concatenate(
        [[0.0, -0.0, 1e-10, -3e-7, 1e150, -1e300], np.linspace(-40, 40, 45), far]
    )
    singles = np.array([limitdist.char_fn(float(v), p) for v in t])
    calls = []
    exponent = limitdist._CfMachine.exponent

    def counted(self, t):
        calls.append(np.size(t))
        return exponent(self, t)

    monkeypatch.setattr(limitdist._CfMachine, "exponent", counted)
    whole = limitdist.char_fn(t.reshape(5, 11), p)
    assert calls == [t.size - len(far)]
    assert whole.shape == (5, 11)
    assert np.array_equal(whole.ravel(), singles)
    assert np.all(singles[-len(far) :] == 0.0)
    assert np.all(np.abs(singles) <= 1.0)
    assert np.array_equal(limitdist.char_fn(-t, p), np.conj(singles))
    for zero_d in (1.3, np.float64(1.3), np.array(1.3)):
        assert type(limitdist.char_fn(zero_d, p)) is complex
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"got {re.escape(repr(bad))}$"):
            limitdist.char_fn(np.array([0.5, bad, 1.0]), p)


def test_block_integrals_match_oscillatory_quadrature() -> None:
    # V and Vm on [1, 2] against QUADPACK's oscillatory rule on the series
    # density, on both sides of the wrap, from small frequencies (moment
    # series) through the Filon panels.  Where r divides k (a = 1 and 1/m)
    # the density is smooth on each piece, and its 48-49 equal panels are
    # not graded; otherwise some derivative is unbounded at the wrap.
    taus = np.array([1 / 32, 1 / 2, 16.0, 1500.0, 2500.0, 8000.0])
    g_five = (-math.log2(5.0)) % 1.0
    shapes = (
        (1, 1, 0.0), (1, 2, g_five), (2, 3, 0.9), (7, 8, 0.3), (1, 3, 0.2),
        (3, 8, 0.4),
    )
    for r, k, g in shapes:
        m = limitdist._machine(LimitParams(r, k, g))
        rel = 1e-9 if k % r == 0 else 1e-6
        if k % r == 0:
            assert m.filon.widths.size <= 49, (r, k)
        v = m._v(taus, np.zeros(taus.size, dtype=bool))
        vm = m._v(taus, np.ones(taus.size, dtype=bool))
        for i, tau in enumerate(taus):
            ref_v, ref_vm = levy_block_integrals(r, k, g, float(tau))
            assert abs(v[i] - ref_v) <= rel * max(1.0, abs(ref_v)), (r, k)
            assert abs(vm[i] - ref_vm) <= rel * max(1.0, abs(ref_vm)), (r, k)


def test_exponent_continuous_in_gamma_at_block_edge() -> None:
    # At gamma0 = frac(lg Gamma(r/k)) the wrap lies on the block's edge.
    # Moving gamma by 1e-9 either way moves the wrap, and the density's
    # jump with it, by about as much, so the exponent may move by little.
    t = np.array([1e-10, 1e-6, 0.5, 1.0, 4.0, 8.0, 16.0, 31.0])
    for r, k in ((1, 1), (2, 2), (1, 2), (2, 3), (7, 8)):
        g0 = math.log2(math.gamma(r / k)) % 1.0
        base = limitdist._machine(LimitParams(r, k, g0)).exponent(t)
        for g in (g0 - 1e-9, g0 + 1e-9):
            if 0.0 <= g <= 1.0:
                moved = limitdist._machine(LimitParams(r, k, g)).exponent(t)
                assert np.max(np.abs(moved - base)) <= 1e-7, (r, k, g)


def test_exponent_array_equals_per_element_calls(monkeypatch) -> None:
    # One array call prices every branch (t = 0, moment-series and Filon
    # folds, panels on both Filon routes, fold counts that differ with t,
    # up to the 2 000 rows of t = 1e299) exactly as calls made one t at a
    # time do, also with the pass budget patched small, where the fold
    # table is swept in one-row slabs and many Filon row groups.
    t = np.concatenate(
        [
            [0.0, 1e-10, 3e-7, 0.004], np.geomspace(0.01, 32.0, 40),
            [700.0, 2500.0, 1e30, 1e100, 1e299],
        ]
    )
    for p in (LimitParams(1, 2, 0.3), LimitParams(2, 3, 0.9)):
        m = limitdist._machine(p)
        singles = np.array([m.exponent(float(v)) for v in t])
        assert np.all(np.isfinite(singles))
        for pass_size in (limitdist._PASS_SIZE, 256):
            monkeypatch.setattr(limitdist, "_PASS_SIZE", pass_size)
            whole = m.exponent(t)
            assert whole.shape == t.shape
            assert np.array_equal(whole, singles), pass_size
            assert m.exponent(0.0) == 0.0


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cdf_cache_build_memory_is_bounded(monkeypatch) -> None:
    # A cold build prices the exponent at its 1 108 nodes in two Filon
    # calls of at most a quarter pass of frequencies, then the certificate
    # makes two more; the traced peak is the two workers' scratch and
    # little else.  The whole fold table at once peaked at 12 MB.
    monkeypatch.setenv("KCUT_THREADS", "2")
    p = LimitParams(1, 2, (-math.log2(5.0)) % 1.0)
    limitdist._machine(p)
    limitdist.f_constant(p)
    calls = []
    integral = limitdist._Filon.integral

    def counted(self, s, parts):
        calls.append(s.size)
        return integral(self, s, parts)

    monkeypatch.setattr(limitdist._Filon, "integral", counted)
    peak = _traced_peak(lambda: limitdist._cdf_cache.__wrapped__(p))
    assert len(calls) == 4
    assert max(calls) <= limitdist._PASS_SIZE // 4
    assert peak <= 6 * 2**20


def test_char_fn_memory_does_not_grow_with_t(monkeypatch) -> None:
    # At t = 1e299 each t has about 2 000 folds against about 80 at t <=
    # 24, but both fold tables are swept a quarter pass at a time, so the
    # traced peaks agree (the whole table at once peaked at 215 MB against
    # 12 MB).  The two Filon workers' block temporaries overlap by chance,
    # which moves either peak by about 0.1 MB from run to run.
    monkeypatch.setenv("KCUT_THREADS", "2")
    p = LimitParams(1, 2, (-math.log2(5.0)) % 1.0)
    limitdist._machine(p)
    limitdist.f_constant(p)
    small, large = (
        _traced_peak(lambda: limitdist.char_fn(np.linspace(lo, hi, 1024), p))
        for lo, hi in ((0.5, 24.0), (1e299, 2e299))
    )
    assert large <= small + 2**18


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


def test_limit_cdf_far_left_tail() -> None:
    # Far in the light left tail the CDF of W is below 1e-300, so what
    # the evaluator returns there is its own error.
    p = LimitParams(1, 2, (-math.log2(5.0)) % 1.0)
    got = limitdist._cdf_cache(p).cdf_w(np.array([-1e4, -1e6, -1e8]))
    assert np.all(got <= 2e-9), got


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
    the block size, with infinite and far-tail points mixed in.  So is the
    CF exponent, whose Filon frequencies span several blocks, with t = 0
    and moment-series t among them."""
    p = LimitParams(r, k, g)
    cache = limitdist._cdf_cache(p)
    block = max(1, limitdist._PASS_SIZE // len(cache.filon.edges))
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
    machine = limitdist._machine(p)
    t = np.concatenate([[0.0, 1e-10, 3e-7, 0.004], np.geomspace(0.01, 3e3, 400)])
    want = None
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("KCUT_THREADS", threads)
        got = machine.exponent(t)
        if want is None:
            want = got
        assert np.array_equal(got, want), threads


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
    cache = limitdist._cdf_cache.__wrapped__(LimitParams(1, 2, 0.3))
    assert len(cache.filon.coeffs) == 369
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
    filon = cache.filon
    t_0, t_end = filon.edges[0], filon.edges[-1]
    w_nz = np.where(omega == 0.0, 1.0, omega)
    j_total = np.where(
        omega == 0.0,
        math.log(t_end / t_0),
        special.exp1(1j * w_nz * t_0) - special.exp1(1j * w_nz * t_end),
    )
    for start, h, coeff in zip(filon.edges[:-1], filon.widths, filon.coeffs):
        m = _filon_moments(omega, float(h))
        acc = (
            coeff[0] * m[0]
            + coeff[1] * m[1] / h
            + coeff[2] * m[2] / h**2
            + coeff[3] * m[3] / h**3
        )
        j_total = j_total + np.exp(-1j * omega * start) * acc
    z = omega * t_0
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
    # series[1, 0, 0] multiplies Re E_0 = cos(1e-10 omega), about 1, in Im
    # of the first panel's integral of (psi - 1)/t; raising it by delta
    # lowers every CDF value of W by delta/pi, and in the light left
    # tail that pushes values below 0.
    p = LimitParams(1, 1, 0.0)
    table = series.constants(1, 1)
    cache = limitdist._cdf_cache(p)
    w = np.linspace(20.0, 40.0, 5)
    assert np.all(limitdist.limit_cdf(w, p, table) > 1.0 - 1e-5)
    for delta, fails in ((5e-5, False), (2e-4, True)):
        perturbed = cache.filon.series.copy()
        perturbed[1, 0, 0] += math.pi * delta
        monkeypatch.setattr(cache.filon, "series", perturbed)
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


def _inversion_edges(
    ratio: float = limitdist._GEO_RATIO, width: float = limitdist._PANEL_H
) -> np.ndarray:
    """Panel edges of the limit CDF's layout, geometric at ``ratio`` from
    ``_T_FLOOR`` past 2, then ``width`` wide to ``_T_MAX``."""
    edges = [limitdist._T_FLOOR]
    while edges[-1] < 2.0:
        edges.append(edges[-1] * ratio)
    while edges[-1] < limitdist._T_MAX:
        edges.append(min(edges[-1] + width, limitdist._T_MAX))
    return np.array(edges)


def _cauchy_cdf(scale: float, f: float):
    return lambda x: 0.5 + np.arctan((x - f) / scale) / math.pi


@pytest.mark.parametrize(
    "exponent, f, exact",
    [
        (lambda t: -t, 0.0, _cauchy_cdf(1.0, 0.0)),
        (lambda t: -t, 0.7, _cauchy_cdf(1.0, 0.7)),
        (lambda t: -0.5 * t * t, 0.0, special.ndtr),
        (lambda t: -0.5 * t * t, -1.3, lambda x: special.ndtr(x + 1.3)),
    ],
    ids=["cauchy", "cauchy-shifted", "normal", "normal-shifted"],
)
def test_inversion_of_closed_form_laws(exponent, f, exact) -> None:
    """The limit CDF's inverter, on its own panels, given the exponent
    and drift of Cauchy(f, 1) or N(f, 1), is within 1e-7 of the exact
    CDF on 20 001 points of [-50, 50] (measured: 1.1e-8 and 6.9e-8)."""
    cache = limitdist._CdfCache(exponent, f, _inversion_edges())
    x = np.linspace(-50.0, 50.0, 20_001)
    assert np.max(np.abs(cache.cdf_w(x) - exact(x))) <= 1e-7


def test_inversion_certificate_bounds_truncation_error() -> None:
    """Cauchy with scale 0.2 has |psi(32)| = e^-6.4, so truncating the
    inversion integral at t_max dominates the error, and the certificate
    must bound it (measured: 3.3e-3 against 7.1e-5)."""
    cache = limitdist._CdfCache(lambda t: -0.2 * t, 0.0, _inversion_edges())
    x = np.linspace(-50.0, 50.0, 20_001)
    error = np.max(np.abs(cache.cdf_w(x) - _cauchy_cdf(0.2, 0.0)(x)))
    assert error <= cache.err_estimate


def test_inversion_certificate_reports_unconverged_integral(monkeypatch) -> None:
    """Cauchy with scale 0.02 has |psi(16)| = e^-0.32: the CDF truncated
    at t_max / 2 leaves [0, 1] by 3e-2 on the probe grid.  The build
    reports that as a large err_estimate (measured 0.40 against an error
    of 0.10) instead of raising, and limit_cdf refuses such a cache."""
    cache = limitdist._CdfCache(lambda t: -0.02 * t, 0.0, _inversion_edges())
    x = np.linspace(-50.0, 50.0, 20_001)
    error = np.max(np.abs(cache.cdf_w(x) - _cauchy_cdf(0.02, 0.0)(x)))
    assert error <= cache.err_estimate
    monkeypatch.setattr(limitdist, "_cdf_cache", lambda p: cache)
    with pytest.raises(limitdist.NumericError, match="error estimate .* exceeds"):
        limitdist.limit_cdf(0.5, LimitParams(1, 2, 0.0))


def test_limit_cdf_moves_little_at_half_panel_width() -> None:
    """The limit CDF's panels are those of _inversion_edges, and halving
    them (ratio 1.05, width 0.125) moves the CDF by at most 1e-5 on
    w = -400:8:4097 for seven shapes (measured: at most 2.5e-6)."""
    grid = np.linspace(-400.0, 8.0, 4097)
    shapes = [
        (1, 2, (-math.log2(5.0)) % 1.0), (1, 1, 0.0), (1, 1, 0.3), (2, 3, 0.9),
        (3, 4, 0.6), (7, 8, 0.3), (1, 8, 0.5),
    ]
    for r, k, g in shapes:
        p = LimitParams(r, k, g)
        cache = limitdist._cdf_cache(p)
        assert np.array_equal(cache.filon.edges, _inversion_edges())
        fine = limitdist._CdfCache(
            limitdist._machine(p).exponent,
            limitdist.f_constant(p),
            _inversion_edges(1.05, 0.125),
        )
        x = (1.0 - grid) / series.constants(k, r).c3
        assert np.max(np.abs(fine.cdf_w(x) - cache.cdf_w(x))) <= 1e-5, (r, k, g)


# ---------------------------------------------------------------------------
# Triangular-array sampler.
# ---------------------------------------------------------------------------


def test_xi_weights_shape_and_values() -> None:
    sc = ScaleParams.from_n(1 << 20, 1)
    w = xi_weights(sc)
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
    got = xi_weights(sc)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


def test_xi_weights_beyond_float_range() -> None:
    """n above 2**1024 cannot be converted to float; the weights are
    exact ratios of ints and stay finite."""
    n = (1 << 1100) + 1
    sc = ScaleParams.from_n(n, 1)
    w = xi_weights(sc)
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
        2.0 ** (1.0 - sc.alpha) + sc.alpha - sc.beta - _lglg_floor(sc.n)
        + sc.L + 1.0
    )
    gap = _truncated_mean_gap(1 << 30, 1, 2)
    assert exact - asymptotic == pytest.approx(table.c3 * gap, abs=1e-7)


def _xi_scalar_draw(
    sc: ScaleParams, p: LimitParams, seed: int, i: int
) -> tuple[list[float], list[float], list[int], list[int]]:
    """Draw ``i`` of :func:`limitdist.xi_sampler_batch`, one uniform at a
    time from ``substream(seed, i)``, with the cut and the proposal of
    ``_xi_plan``.  Returns the kept terms ``gamma(a) w Q(a, z)``, and per
    class (sizes merged over levels, increasing) ``gamma(a) w``, the kept
    count and the node count."""
    k, a = p.k, p.a
    _, _, t_cut, z_cut, power, _ = limitdist._xi_plan(sc, p)
    p_cut = special.gammainc(k, t_cut)
    merged: dict[int, int] = {}
    for level in CompleteTree(sc.n).size_classes()[: sc.L + 1]:
        for size, count in level:
            merged[size] = merged.get(size, 0) + count
    sizes, nodes = zip(*sorted(merged.items()))
    rng = substream(seed, i)
    kept = []
    for count in nodes:
        u, j = rng.random(), 0
        while j < count and special.bdtr(j, count, p_cut) <= u:
            j += 1
        kept.append(j)
    terms = []
    ga_weights = [math.gamma(a) * (sc.m * size / sc.n) for size in sizes]
    for ga_w, want in zip(ga_weights, kept):
        while want:
            if power:
                u1, u2 = rng.random(), rng.random()
                if u2 > math.exp(-t_cut * u1 ** (1.0 / k)):
                    continue
                z = z_cut * u1
            else:
                prod = rng.random()
                for _ in range(k - 1):
                    prod *= rng.random()
                if prod < math.exp(-t_cut):
                    continue
                z = z_cut * (-math.log(prod) / t_cut) ** k
            if a == 1.0:
                q = math.exp(-z)
            elif a == 0.5:
                q = math.erfc(math.sqrt(z))
            else:
                q = float(special.gammaincc(a, z))
            terms.append(ga_w * q)
            want -= 1
    return terms, ga_weights, kept, list(nodes)


@pytest.mark.parametrize("r, k", [(1, 1), (1, 2), (2, 3)])
def test_xi_sampler_stream_definition(r: int, k: int) -> None:
    """Draw i of seed s reads ``substream(s, i)``'s uniforms in order:
    one per class for its binomial count, then the trials of the plan's
    proposal until every class is filled, and adds ``w gamma(a) Q(a,
    z)`` over the accepted clocks.  The three cases take Q through exp,
    erfc and gammaincc."""
    sc = ScaleParams.from_n(1 << 20, k)
    p = LimitParams(r, k, sc.gamma)
    table = series.constants(k, r)
    shift = 1.0 + table.c3 * limitdist._xi_centre(sc, p)
    got = limitdist.xi_sampler_batch(sc, p, table, seed=3, n_samples=8)
    for i in (0, 7):
        terms = _xi_scalar_draw(sc, p, 3, i)[0]
        want = shift - table.c3 * math.fsum(terms)
        assert got[i] == pytest.approx(want, rel=1e-12, abs=0.0), i


@pytest.mark.parametrize("e", [40, 160])
@pytest.mark.parametrize("r, k", [(1, 1), (1, 2), (2, 3)])
def test_xi_sampler_skip_bound(r: int, k: int, e: int) -> None:
    """The cut leaves out at most 1e-13 in W units: with ``S = sum_v
    gamma(a) w_v``, ``S Q(a, z_cut) <= 1e-13``, and every clock past
    ``t_cut`` has ``Q < Q(a, z_cut)``.  So each draw is within C3 *
    1e-13, plus rounding, of the whole array: its kept terms, re-derived
    one uniform at a time, and clocks past ``t_cut`` for every other
    node, drawn here from Gamma(k) conditioned on ``T > t_cut``."""
    sc = ScaleParams.from_n(1 << e, k)
    p = LimitParams(r, k, sc.gamma)
    table = series.constants(k, r)
    a = p.a
    _, _, t_cut, z_cut, _, _ = limitdist._xi_plan(sc, p)
    ga_weights = math.gamma(a) * xi_weights(sc)
    total = math.fsum(ga_weights)
    assert total * specfun.q(a, z_cut) <= 1e-13
    z_per_clock = sc.m / math.factorial(k)
    assert z_per_clock * t_cut**k == pytest.approx(z_cut, rel=1e-13)
    shift = 1.0 + table.c3 * limitdist._xi_centre(sc, p)
    got = limitdist.xi_sampler_batch(sc, p, table, seed=3, n_samples=6)
    eps = np.finfo(float).eps
    rng = np.random.default_rng(e)
    for i, draw in enumerate(got):
        terms, class_weights, kept, nodes = _xi_scalar_draw(sc, p, 3, i)
        assert draw == pytest.approx(
            shift - table.c3 * math.fsum(terms), rel=1e-12, abs=0.0
        ), i
        left = np.repeat(class_weights, np.subtract(nodes, kept))
        clocks = np.empty(0)
        while clocks.size < left.size:
            t = rng.gamma(k, size=2 * left.size)
            clocks = np.concatenate([clocks, t[t > t_cut]])
        far = left * specfun.q(a, z_per_clock * clocks[: left.size] ** k)
        assert math.fsum(far) < 1e-13
        whole = shift - table.c3 * math.fsum(terms + far.tolist())
        rounding = 16.0 * eps * (abs(shift) + table.c3 * total)
        assert abs(draw - whole) <= table.c3 * 1e-13 + rounding, i


@pytest.mark.parametrize(
    "r, k, e", [(1, 1, 40), (1, 2, 40), (2, 3, 40), (1, 1, 160),
                (1, 2, 160), (2, 3, 160), (1, 8, 8)],
)
def test_xi_sampler_matches_dense_oracle(r: int, k: int, e: int) -> None:
    """Two-sample KS of the sparse sampler against the dense oracle,
    which draws a clock for every node, at the 1 % level ``1.63 sqrt(2 /
    N)``.  The (1, 8) case at n = 2**8 takes the Gamma(k) proposal."""
    sc = ScaleParams.from_n(1 << e, k)
    p = LimitParams(r, k, sc.gamma)
    size = 4000
    sparse = np.sort(limitdist.xi_sampler_batch(sc, p, None, 11, size))
    dense = np.sort(xi_sampler_dense(sc, p, 12, size))
    both = np.concatenate([sparse, dense])
    gap = np.searchsorted(sparse, both, "right") - np.searchsorted(
        dense, both, "right"
    )
    assert np.abs(gap).max() / size <= 1.63 * math.sqrt(2.0 / size)


def test_xi_plan_reads_at_most_the_dense_uniforms() -> None:
    """The chosen proposal reads ``per * N * P(k, t_cut) / rate``
    uniforms per draw on average, with ``per`` uniforms a trial: 2 at
    rate ``k! P(k, t_cut) / t_cut**k`` for the power proposal, ``k`` at
    rate ``P(k, t_cut)`` for the other.  That is never more than the
    ``k N`` exponentials of a clock for every node; both sides are
    compared per kept clock, divided by ``N P(k, t_cut)``."""
    for e in (4, 8, 40, 160):
        for k in range(1, 9):
            sc = ScaleParams.from_n(1 << e, k)
            for r in range(1, k + 1):
                plan = limitdist._xi_plan(sc, LimitParams(r, k, sc.gamma))
                t_cut, power = plan[2], plan[4]
                p_cut = special.gammainc(k, t_cut)
                if power:
                    per, rate = 2, math.factorial(k) * p_cut / t_cut**k
                else:
                    per, rate = k, p_cut
                assert per / rate <= k / p_cut, (e, k, r)


def _xi_chunked(m: pytest.MonkeyPatch, sc: ScaleParams, p: LimitParams, chunk):
    """Set ``_XI_CHUNK_VALUES`` so that the xi batch at ``(sc, p)`` runs
    in chunks of ``chunk`` draws (``None``: the default): a draw's budget
    of uniforms and five values a trial of scratch, as it counts them."""
    if chunk is None:
        return
    _, tables, _, _, power, trials = limitdist._xi_plan(sc, p)
    width = len(tables) + (2 if power else p.k) * trials
    m.setattr(limitdist, "_XI_CHUNK_VALUES", chunk * (width + 5 * trials))


def test_xi_sampler_budget_invariance(monkeypatch) -> None:
    """A draw that runs out of its budget reads on in its own substream,
    so the draws do not depend on the budget: with budgets far too small
    (most rows need two more), they are bitwise those of the
    default, at any chunk and thread count."""
    sc = ScaleParams.from_n(1 << 40, 2)
    p = LimitParams(1, 2, sc.gamma)
    want = limitdist.xi_sampler_batch(sc, p, None, 4, 40, first_index=7)
    trials = limitdist._xi_plan(sc, p)[5]
    limitdist._xi_plan.cache_clear()
    monkeypatch.setattr(limitdist, "_XI_MARGIN", -10.0)
    try:
        assert 2 * limitdist._xi_plan(sc, p)[5] < trials
        for threads, chunk in ((1, None), (2, 3), (3, 1)):
            with monkeypatch.context() as m:
                m.setenv("KCUT_THREADS", str(threads))
                _xi_chunked(m, sc, p, chunk)
                got = limitdist.xi_sampler_batch(sc, p, None, 4, 40, first_index=7)
            assert np.array_equal(got, want), (threads, chunk)
    finally:
        limitdist._xi_plan.cache_clear()


def test_xi_centre_matches_dense_weight_classes() -> None:
    """The centring from the merged class list equals, to 1e-15, the
    values it had when it summed over the distinct weights of a weight
    per node."""
    cases = [
        (1, 1, 1 << 40, 3.5205432073009737),
        (1, 2, 1 << 160, 5.318509319007321),
        (2, 3, (1 << 40) + 12345, 3.007724298168986),
        (1, 8, 1 << 8, -1.5212165239423565),
        (1, 1, (1 << 1100) + 1, 6.8881280751352705),
        (3, 4, 1 << 80, 2.940730784213684),
    ]
    for r, k, n, want in cases:
        sc = ScaleParams.from_n(n, k)
        got = limitdist._xi_centre(sc, LimitParams(r, k, sc.gamma))
        assert got == pytest.approx(want, rel=1e-15, abs=0.0), (r, k, n)


@pytest.mark.parametrize(
    "n",
    [1 << 40, round(1.9 * 2**40), round(1.6 * 2**80), 7 << 158],
    ids=["2^40", "1.9*2^40", "1.6*2^80", "7*2^158"],
)
def test_xi_centre_closed_form_for_exponential_clocks(n: int) -> None:
    """For (r, k) = (1, 1) the clocks are Exp(1) and Q(1, z) = e^-z, so
    a node of weight w has E[xi 1[xi <= h]] = w min(1, h/w)**((m+1)/m) /
    (m + 1).  The centring agrees with that closed form to 1e-13
    relative, with h above 1 at 2**40 and below 1 at the other sizes."""
    sc = ScaleParams.from_n(n, 1)
    p = LimitParams(1, 1, sc.gamma)
    h, m = 2.0 ** (sc.beta - sc.alpha), sc.m
    assert (h < 1.0) == (n != 1 << 40), h
    terms = [
        count * (m * size / n) * min(1.0, h * n / (m * size)) ** ((m + 1) / m)
        for level in CompleteTree(n).size_classes()[: sc.L + 1]
        for size, count in level
    ]
    if h < 1.0:
        block = limitdist.levy_block_mean(p, h, 1.0)
    else:
        block = -limitdist.levy_block_mean(p, 1.0, h)
    want = math.fsum(terms) / (m + 1) - limitdist.f_constant(p) + block
    got = limitdist._xi_centre(sc, p)
    assert got == pytest.approx(want, rel=1e-13, abs=0.0)


def test_xi_sampler_split_invariance() -> None:
    sc = ScaleParams.from_n(1 << 20, 1)
    p = LimitParams(1, 1, 0.0)
    table = series.constants(1, 1)
    whole = limitdist.xi_sampler_batch(sc, p, table, seed=9, n_samples=32)
    tail = limitdist.xi_sampler_batch(
        sc, p, table, seed=9, n_samples=20, first_index=12
    )
    assert np.array_equal(whole[12:], tail)


def test_xi_sampler_chunk_invariance(monkeypatch) -> None:
    sc = ScaleParams.from_n(1 << 20, 2)
    p = LimitParams(1, 2, 0.0)
    table = series.constants(2, 1)
    whole = limitdist.xi_sampler_batch(sc, p, table, seed=3, n_samples=30)
    _xi_chunked(monkeypatch, sc, p, 7)
    rechunked = limitdist.xi_sampler_batch(sc, p, table, seed=3, n_samples=30)
    assert np.array_equal(whole, rechunked)


def test_xi_sampler_thread_and_chunk_invariance(monkeypatch) -> None:
    """Draws are bitwise equal on ``KCUT_THREADS`` = 1, 2 and 3 workers
    and in chunks of 1, 7 and the default number of draws, at n = 2**40
    and 2**160 (rows of 2059 and 4041 values, both filled one worker at
    a time: see ``cutsim._SERIAL_FILL_ROW``)."""
    table = series.constants(2, 1)
    run_batch, chunks = limitdist._run_batch, []

    def spy(*args, **kwargs):
        chunks.append(args[4])
        return run_batch(*args, **kwargs)

    monkeypatch.setattr(limitdist, "_run_batch", spy)
    for lg in (40, 160):
        sc = ScaleParams.from_n(1 << lg, 2)
        p = LimitParams(1, 2, sc.gamma)
        for first in (0, 13):
            for size in (0, 1, 2, 5, 40):
                monkeypatch.setenv("KCUT_THREADS", "1")
                want = limitdist.xi_sampler_batch(
                    sc, p, table, 4, size, first_index=first
                )
                assert want.shape == (size,)
                for threads in ("1", "2", "3"):
                    for chunk in (None, 1, 7):
                        with monkeypatch.context() as m:
                            m.setenv("KCUT_THREADS", threads)
                            _xi_chunked(m, sc, p, chunk)
                            chunks.clear()
                            got = limitdist.xi_sampler_batch(
                                sc, p, table, 4, size, first_index=first
                            )
                        if chunk is not None:
                            assert chunks == [chunk]
                        assert np.array_equal(got, want), (lg, threads, chunk)


def test_xi_sampler_threads_share_the_memory_budget(monkeypatch) -> None:
    sc = ScaleParams.from_n(1 << 160, 2)
    p = LimitParams(1, 2, sc.gamma)
    table = series.constants(2, 1)
    limitdist.xi_sampler_batch(sc, p, table, seed=1, n_samples=1)
    peaks = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("KCUT_THREADS", threads)
        tracemalloc.start()
        try:
            limitdist.xi_sampler_batch(sc, p, table, seed=1, n_samples=2048)
            peaks[threads] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["2"] <= peaks["1"] + 2**20


def test_xi_sampler_default_chunk_bounds_memory(monkeypatch) -> None:
    """At n = 2**160, k = 2 a draw counts 14 081 values of uniforms and
    scratch (4 041 in its budget, five a trial for 2 008 trials), so the
    default chunk of all workers together holds 74 draws, one 8 MB
    budget (``_XI_CHUNK_VALUES``), and every step works in them.  The
    traced peak reads 5.3-6.2 MB on 1, 2 and 3 workers."""
    sc = ScaleParams.from_n(1 << 160, 2)
    p = LimitParams(1, 2, sc.gamma)
    table = series.constants(2, 1)
    limitdist.xi_sampler_batch(sc, p, table, seed=1, n_samples=1)
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("KCUT_THREADS", threads)
        tracemalloc.start()
        try:
            limitdist.xi_sampler_batch(sc, p, table, seed=1, n_samples=2048)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20, threads


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
    for wv, cnt in zip(*np.unique(xi_weights(sc), return_counts=True)):
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
        2.0 ** (1.0 - sc.alpha) + sc.alpha - sc.beta - _lglg_floor(n) + sc.L
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
