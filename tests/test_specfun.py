"""Unit and property tests for the special functions: Q and its inverse,
log Q at integer shapes, the sine integral and binomial tables, checked
against closed forms, mpmath and (in tests only) scipy.special."""

from __future__ import annotations

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from kcut import specfun


def _mp_q(a: float, x: float) -> float:
    with mpmath.workdps(40):
        return float(mpmath.gammainc(a, x, mpmath.inf, regularized=True))


def test_q_boundary_values() -> None:
    assert specfun.q(2.5, 0.0) == 1.0
    assert specfun.q(1.0, 800.0) == pytest.approx(0.0, abs=1e-300)
    with pytest.raises(ValueError):
        specfun.q(0.0, 1.0)
    with pytest.raises(ValueError):
        specfun.q(1.0, -0.5)


def test_q_exponential_closed_form() -> None:
    """Q(1, x) = exp(-x)."""
    for i in range(301):
        x = 30.0 * i / 300.0
        ref = math.exp(-x)
        assert specfun.q(1.0, x) == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_upper_gamma_closed_form_a2() -> None:
    """Q(2, x) = Gamma(2, x) = (x + 1) exp(-x)."""
    for i in range(121):
        x = 30.0 * i / 120.0
        ref = (x + 1.0) * math.exp(-x)
        assert specfun.q(2.0, x) == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_shift_identity() -> None:
    """Q(a+1, x) = Q(a, x) + x**a * exp(-x) / gamma(a+1)."""
    for a in [0.3, 0.5, 1.0, 1.7, 3.2, 9.0]:
        for x in [1e-3, 0.1, 0.5, 1.0, 2.5, 7.0, 20.0]:
            lhs = specfun.q(a + 1.0, x)
            rhs = specfun.q(a, x) + x**a * math.exp(-x) / math.gamma(a + 1.0)
            assert lhs == pytest.approx(rhs, rel=1e-13, abs=0.0)


@given(
    a=st.floats(min_value=0.05, max_value=50.0),
    x=st.floats(min_value=0.0, max_value=150.0),
)
@settings(max_examples=300, deadline=None)
def test_q_matches_mpmath(a: float, x: float) -> None:
    ref = _mp_q(a, x)
    ours = specfun.q(a, x)
    if ref > 1e-280:
        assert ours == pytest.approx(ref, rel=5e-13, abs=0.0)
    else:
        assert ours == pytest.approx(ref, abs=1e-280)


def test_q_matches_mpmath_spot_checks() -> None:
    for a, x in [(0.5, 0.25), (0.5, 7.0), (1.5, 1.5), (2.0, 40.0),
                 (0.1, 3.0), (10.0, 3.0), (10.0, 30.0)]:
        ref = _mp_q(a, x)
        assert specfun.q(a, x) == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_q_in_place_matches_mpmath() -> None:
    # The xi sampler evaluates Q in place on its clock array, through exp
    # for a = 1 and erfc for a = 1/2; check that route on the sampler's
    # argument range.
    for a in (1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0):
        z = np.geomspace(1e-4, 50.0, 25)
        ref = [_mp_q(a, float(zi)) for zi in z]
        assert specfun.q(a, z, out=z) is z
        np.testing.assert_allclose(z, ref, rtol=1e-12, atol=0.0)


@given(
    a=st.floats(min_value=0.05, max_value=40.0),
    x0=st.floats(min_value=1e-6, max_value=80.0),
    x1=st.floats(min_value=1e-6, max_value=80.0),
)
@settings(max_examples=200, deadline=None)
def test_q_monotone_decreasing(a: float, x0: float, x1: float) -> None:
    lo, hi = min(x0, x1), max(x0, x1)
    assert specfun.q(a, lo) >= specfun.q(a, hi) - 1e-14


def test_q_inv_extension_and_edges() -> None:
    # 2 goes through gammainccinv, 1 and 1/2 through their closed forms;
    # each must return +0.0 (not -0.0) at y >= 1.
    for a in (2.0, 1.0, 0.5):
        for y in (1.0, 1.5):
            assert math.copysign(1.0, specfun.q_inv(a, y)) == 1.0
        assert specfun.q_inv(a, 0.0) == math.inf
        assert specfun.q_inv(a, -0.3) == math.inf
        xs = specfun.q_inv(a, np.array([1.5, 1.0, 0.0, -0.3]))
        assert xs.tolist() == [0.0, 0.0, math.inf, math.inf]
        assert not np.signbit(xs).any()
    with pytest.raises(ValueError):
        specfun.q_inv(-1.0, 0.5)
    with pytest.raises(ValueError):
        specfun.q_inv(0.0, 0.5)


@pytest.mark.parametrize("a", [1.0, 0.5, 2.0 / 3.0])
def test_q_inv_builds_result_in_one_array(a: float) -> None:
    """On the 4097 x 80 grid of the Levy profile, q_inv allocates about
    one array the size of its input: the clipped copy it works in."""
    y = np.exp2(-np.linspace(0.0, 80.0, 4097 * 80)).reshape(4097, 80)
    tracemalloc.start()
    try:
        specfun.q_inv(a, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * y.nbytes


_CLOSED_FORM_YS = [1e-300, 1e-100, 2.0**-80, 1e-12, 0.5, 0.99, 1.0 - 1e-12]


@pytest.mark.parametrize("a", [1.0, 0.5])
def test_q_inv_closed_forms_match_mpmath(a: float) -> None:
    """The a = 1 and a = 1/2 branches, scalar and array, against the
    root of log Q(a, e**u) = log y at 80 digits."""
    ours = [specfun.q_inv(a, y) for y in _CLOSED_FORM_YS]
    with mpmath.workdps(80):
        ref = []
        for y, x in zip(_CLOSED_FORM_YS, ours):

            def gap(u: mpmath.mpf, y: float = y) -> mpmath.mpf:
                tail = mpmath.gammainc(a, mpmath.exp(u), mpmath.inf,
                                       regularized=True)
                return mpmath.log(tail) - mpmath.log(mpmath.mpf(y))

            ref.append(float(mpmath.exp(mpmath.findroot(gap, math.log(x)))))
    np.testing.assert_allclose(ours, ref, rtol=1e-14, atol=0.0)
    arr = specfun.q_inv(a, np.array(_CLOSED_FORM_YS))
    np.testing.assert_allclose(arr, ref, rtol=1e-14, atol=0.0)


def test_q_inv_log_closed_form() -> None:
    """q_inv(1, y) = log(1/y)."""
    for y in [1e-300, 1e-100, 1e-12, 1e-6, 1e-3, 0.01, 0.1, 0.37, 0.5, 0.9, 0.999]:
        ref = -math.log(y)
        assert specfun.q_inv(1.0, y) == pytest.approx(ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("a", [1.0 / 8.0, 0.5, 1.0])
def test_q_inv_near_one_matches_mpmath(a: float) -> None:
    """At y = 1 - 1e-12 the root is tiny: solve P(a, x) = 1 - y in log x."""
    y = 1.0 - 1e-12
    with mpmath.workdps(40):
        p = 1 - mpmath.mpf(y)

        def gap(u: mpmath.mpf) -> mpmath.mpf:
            lower = mpmath.gammainc(a, 0, mpmath.exp(u), regularized=True)
            return mpmath.log(lower) - mpmath.log(p)

        u0 = (mpmath.log(p) + mpmath.loggamma(a + 1)) / a
        ref = float(mpmath.exp(mpmath.findroot(gap, u0)))
    assert abs(specfun.q_inv(a, y) / ref - 1.0) <= 1e-10


@given(
    a=st.floats(min_value=0.05, max_value=40.0),
    y=st.floats(min_value=1e-18, max_value=1.0, exclude_max=True),
)
@settings(max_examples=300, deadline=None)
def test_q_inv_roundtrip(a: float, y: float) -> None:
    x = specfun.q_inv(a, y)
    assert x >= 0.0
    assert specfun.q(a, x) == pytest.approx(y, rel=1e-11, abs=0.0)


@given(
    a=st.floats(min_value=0.05, max_value=40.0),
    x=st.floats(min_value=1e-8, max_value=60.0),
)
@settings(max_examples=200, deadline=None)
def test_q_inv_roundtrip_other_direction(a: float, x: float) -> None:
    y = specfun.q(a, x)
    if 1e-280 < y < 1.0:
        xr = specfun.q_inv(a, y)
        # x is only determined up to the rounding of y divided by the
        # local slope |dQ/dx| = x**(a-1) exp(-x) / gamma(a).
        slope = math.exp((a - 1.0) * math.log(x) - x - math.lgamma(a))
        cond = 4.0 * 2.2e-16 * y / slope
        assert abs(xr - x) <= 1e-10 * x + cond


def test_q_sandwich_bounds_for_small_shape() -> None:
    """For 0 < a <= 1:
    1 - (1 - exp(-c*x))**a <= Q(a, x) <= 1 - (1 - exp(-x))**a
    with c = gamma(1 + a)**(-1/a).
    """
    for a in [0.2, 1.0 / 3.0, 0.5, 2.0 / 3.0, 0.9, 1.0]:
        c = math.gamma(1.0 + a) ** (-1.0 / a)
        for x in [1e-4, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 12.0]:
            val = specfun.q(a, x)
            upper = 1.0 - (1.0 - math.exp(-x)) ** a
            lower = 1.0 - (1.0 - math.exp(-c * x)) ** a
            assert lower - 1e-13 <= val <= upper + 1e-13


def test_q_inv_derivative_formula() -> None:
    """d q_inv / dy = -gamma(a) * exp(theta) * theta**(1 - a) at theta."""
    for a in [0.4, 1.0, 1.6, 3.0]:
        for y in [0.05, 0.2, 0.5, 0.8]:
            h = 1e-7
            num = (specfun.q_inv(a, y + h) - specfun.q_inv(a, y - h)) / (2 * h)
            theta = specfun.q_inv(a, y)
            ana = -math.gamma(a) * math.exp(theta) * theta ** (1.0 - a)
            assert num == pytest.approx(ana, rel=5e-6, abs=0.0)


# ---------------------------------------------------------------------------
# scipy.special as an oracle, and elementwise kernels.
# ---------------------------------------------------------------------------


def test_erfc_branch_matches_scipy() -> None:
    """q(1/2, x**2) = erfc(x) on [0, 30], in steps of 1/1024 so that x**2
    is exact: within 2e-15 relative where erfc exceeds 1e-300 (6.7e-16
    seen), within 1e-300 below, where scipy returns 0 and q the
    subnormal value."""
    x = np.arange(30 * 1024 + 1) / 1024.0
    ref = special.erfc(x)
    ours = specfun.q(0.5, x * x)
    normal = ref > 1e-300
    np.testing.assert_allclose(ours[normal], ref[normal], rtol=2e-15, atol=0.0)
    np.testing.assert_allclose(ours[~normal], ref[~normal], rtol=0.0, atol=1e-300)


def test_sine_integral_matches_scipy() -> None:
    """Si on +-[0, 1e12] against scipy's sici within 4e-15 absolute
    (1.1e-15 seen), across the Taylor (|x| <= 4), continued-fraction
    (< 40) and asymptotic branches; exact at 0 and odd."""
    t = np.concatenate([np.linspace(0.0, 100.0, 100_001), np.geomspace(1e-300, 1e12, 20_000)])
    t = np.concatenate([t, -t])
    np.testing.assert_allclose(
        specfun.sine_integral(t), special.sici(t)[0], rtol=0.0, atol=4e-15
    )
    assert specfun.sine_integral(np.array([0.0]))[0] == 0.0


def test_sine_integral_branch_ends_match_mpmath() -> None:
    """Within 1e-15 of mpmath on both sides of the branch ends 4 and 40."""
    t = np.concatenate([np.linspace(3.9, 4.1, 21), np.linspace(39.0, 41.0, 21)])
    with mpmath.workdps(30):
        ref = [float(mpmath.si(mpmath.mpf(float(v)))) for v in t]
    np.testing.assert_allclose(specfun.sine_integral(t), ref, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("count", [1, 2, 3, 7, 64, 255, 1000, 4095])
def test_binom_cdf_matches_bdtr(count: int) -> None:
    """Binomial CDF tables against scipy's bdtr within 5e-12 absolute:
    bdtr itself is off by up to 2.9e-12 at 4095 (see the mpmath test
    below); each table ends at exactly 1 and never decreases."""
    for p in (1e-9, 1e-3, 0.05, 0.3, 0.5, 0.77, 0.999):
        ours = specfun.binom_cdf(count, p, 1.0 - p)
        ref = special.bdtr(np.arange(count + 1), count, p)
        np.testing.assert_allclose(ours, ref, rtol=0.0, atol=5e-12)
        assert ours[-1] == 1.0
        assert np.all(np.diff(ours) >= 0.0)


def test_binom_cdf_matches_mpmath() -> None:
    """Near the mode of Binomial(4095, p), within 1e-15 of an exact sum
    (where bdtr is 2.9e-12 off)."""
    for p, js in ((0.5, (1900, 2046, 2200)), (0.1, (350, 401, 450))):
        ours = specfun.binom_cdf(4095, p, 1.0 - p)
        with mpmath.workdps(40):
            pp = mpmath.mpf(p)
            pmf = [mpmath.binomial(4095, j) * pp**j * (1 - pp) ** (4095 - j)
                   for j in range(max(js) + 1)]
            for j in js:
                assert abs(ours[j] - float(mpmath.fsum(pmf[: j + 1]))) <= 1e-15


@pytest.mark.parametrize("a", [1.0 / 8.0, 1.0 / 3.0, 0.5, 2.0 / 3.0, 1.5])
def test_q_inv_matches_scipy(a: float) -> None:
    """q_inv against gammainccinv (erfcinv squared at a = 1/2) within
    1e-13 relative on the Levy profile's y = 2**-s and near y = 1."""
    y = np.exp2(-np.linspace(0.0, 80.0, 2001))[1:]
    y = np.concatenate([y, 1.0 - np.geomspace(1e-15, 0.5, 500)])
    ref = special.erfcinv(y) ** 2 if a == 0.5 else special.gammainccinv(a, y)
    np.testing.assert_allclose(specfun.q_inv(a, y), ref, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("k", [2, 3, 4, 8, 20])
def test_log_q_int_matches_mpmath(k: int) -> None:
    """log Q(k, x) within 2e-15 relative of mpmath's log1p(-P(k, x)),
    also where Q is within 1e-30 of 1."""
    x = np.concatenate([np.geomspace(1e-4, k, 40), np.linspace(k, 3 * k + 10, 20)])
    with mpmath.workdps(40):
        ref = [float(mpmath.log1p(-mpmath.gammainc(k, 0, mpmath.mpf(float(v)),
                                                   regularized=True)))
               for v in x]
    np.testing.assert_allclose(specfun.log_q_int(k, x), ref, rtol=2e-15, atol=0.0)
    assert specfun.log_q_int(k, np.array([0.0]))[0] == 0.0


def _one_by_one(fn, x: np.ndarray) -> np.ndarray:
    return np.array([fn(x[i : i + 1])[0] for i in range(x.size)])


# Points on every branch: 0, the series, the small-x series of Q, the
# continued fraction, the erf and big-x fix-ups of a = 1/2, far tails.
_BRANCH_X = np.array([0.0, 1e-9, 0.03, 0.4, 0.9, 1.05, 1.2, 1.9, 3.3, 8.0,
                      30.0, 63.9, 64.0, 200.0, 750.0])


@pytest.mark.parametrize("a", [0.5, 1.0 / 8.0, 2.0 / 3.0, 1.5, 7.0])
def test_q_one_value_equals_value_in_array(a: float) -> None:
    """Every kernel is elementwise: a value computed alone is the value
    computed inside an array, bit for bit, with or without ``out``."""
    x = np.concatenate([_BRANCH_X, np.random.default_rng(3).uniform(0, 40, 500)])
    whole = specfun.q(a, x)
    assert np.array_equal(_one_by_one(lambda v: specfun.q(a, v), x), whole)
    y = x.copy()
    specfun.q(a, y, out=y)
    assert np.array_equal(y, whole)


@pytest.mark.parametrize("a", [0.5, 1.0 / 8.0, 2.0 / 3.0])
def test_q_inv_one_value_equals_value_in_array(a: float) -> None:
    y = np.concatenate([[0.0, 1.0, 0.5, 1e-300],
                        np.exp2(-np.linspace(0.0, 80.0, 161)),
                        1.0 - np.geomspace(1e-15, 0.5, 40)])
    whole = specfun.q_inv(a, y)
    assert np.array_equal(_one_by_one(lambda v: specfun.q_inv(a, v), y), whole)


def test_other_kernels_one_value_equals_value_in_array() -> None:
    t = np.concatenate([[0.0, -3.0, 4.0, 39.9, 40.0, -1e12],
                        np.random.default_rng(4).uniform(-500, 500, 300)])
    assert np.array_equal(_one_by_one(specfun.sine_integral, t),
                          specfun.sine_integral(t))
    x = np.concatenate([_BRANCH_X[:-1], np.geomspace(1e-5, 50.0, 100)])
    for k in (1, 2, 5):
        assert np.array_equal(_one_by_one(lambda v: specfun.log_q_int(k, v), x),
                              specfun.log_q_int(k, x))
    # The binomial tables' iterative kernel, bd0(j, n p).
    j = np.arange(1.0, 400.0)
    m = np.full(j.size, 123.4)
    assert np.array_equal(
        np.array([specfun._bd0(j[i : i + 1], m[i : i + 1])[0] for i in range(j.size)]),
        specfun._bd0(j, m),
    )
