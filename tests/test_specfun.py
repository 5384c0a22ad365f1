"""Unit and property tests for Q and its inverse, checked against
closed forms and mpmath."""

from __future__ import annotations

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
