"""Tests for quadrature-based record means and their asymptotics."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest

from kcut import cutsim, exactmean, series
from kcut.exactmean import MeanQuery
from oracles import height, record_prob_quad


def test_record_prob_trivial_cases() -> None:
    assert exactmean.record_prob(1, 1, 0, math.inf) == pytest.approx(
        1.0, abs=1e-11
    )
    assert exactmean.record_prob(2, 3, 0, math.inf) == pytest.approx(
        1.0, abs=1e-11
    )
    assert exactmean.record_prob(1, 1, 1, math.inf) == pytest.approx(
        0.5, abs=1e-11
    )


def test_record_prob_with_q_near_one_matches_mpmath() -> None:
    """With 1100 ancestors the integrand is Q(4, x)**1100 at small x,
    where Q is within 1e-3 of 1: log Q taken as log(sum) - x cancelled
    and put the value 3e-14 off.  Now within 1e-15 of a 30-digit mpmath
    quadrature."""
    with mpmath.workdps(30):
        def f(x):
            q4 = mpmath.exp(-x) * (1 + x + x**2 / 2 + x**3 / 6)
            return mpmath.exp(-x) * q4**1100

        ref = float(mpmath.quad(f, [0, 0.25, 0.5, 1, 2, 4, mpmath.inf]))
    got = exactmean.record_prob(1, 4, 1100, math.inf)
    assert got == pytest.approx(ref, rel=1e-15, abs=0.0)


def test_record_prob_k1_harmonic_law() -> None:
    """With k = 1 the integrand is exp(-(ancestors+1) x)."""
    for anc in range(10):
        assert exactmean.record_prob(1, 1, anc, math.inf) == pytest.approx(
            1.0 / (anc + 1), abs=1e-11
        )


def test_record_prob_finite_y_closed_form() -> None:
    """k = r = 1 with cap y: integral of exp(-2x) on [0, y]."""
    for y in [0.1, 0.7, 2.0, 10.0]:
        expected = 0.5 * (1.0 - math.exp(-2.0 * y))
        assert exactmean.record_prob(1, 1, 1, y) == pytest.approx(
            expected, abs=1e-11
        )


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_record_prob_matches_quad_oracle(k: int) -> None:
    """The Gauss--Kronrod rule agrees with QUADPACK's ``quad`` on an
    integrand built from ``gammaincc`` to 1e-13 relative, for every r <=
    k, with its own certificate within 1e-11."""
    for r in range(1, k + 1):
        for ancestors in (0, 1, 7, 40, 255, 1100):
            for y in (math.inf, 0.5, 3.0):
                value, abserr = exactmean._record_probs(
                    r, k, np.array([float(ancestors)]), y
                )
                want = record_prob_quad(r, k, ancestors, y)
                case = (r, k, ancestors, y)
                assert value[0] == pytest.approx(want, rel=1e-13, abs=0.0), case
                assert 0.0 < abserr[0] <= 1e-11, case
                assert exactmean.record_prob(r, k, ancestors, y) == value[0]


def test_record_prob_raises_past_subinterval_cap(monkeypatch) -> None:
    """With one subinterval allowed the rule cannot certify 1e-11, and
    ``record_prob`` raises instead of returning the uncertified value."""
    monkeypatch.setattr(exactmean, "_GK_LIMIT", 1)
    with pytest.raises(exactmean.QuadratureError) as err:
        exactmean.record_prob(1, 2, 40, math.inf)
    assert err.value.achieved > err.value.target == 1e-11
    with pytest.raises(exactmean.QuadratureError):
        exactmean.expected_records(MeanQuery(n=1023, k=2, r=1))


def test_record_prob_monte_carlo() -> None:
    """P(Gamma(1,1) < min of 3 Gamma(2,1)) by direct simulation."""
    rng = np.random.default_rng(0)
    n = 200_000
    e = rng.standard_exponential(n)
    g = rng.standard_gamma(2.0, (n, 3))
    mc = float(np.mean(e < g.min(axis=1)))
    se = math.sqrt(mc * (1.0 - mc) / n)
    p = exactmean.record_prob(1, 2, 3, math.inf)
    assert abs(p - mc) <= 4.0 * se


def test_record_prob_monotonicity() -> None:
    probs = [exactmean.record_prob(1, 2, a, math.inf) for a in range(6)]
    assert all(x > y for x, y in zip(probs, probs[1:]))
    caps = [exactmean.record_prob(2, 2, 2, y) for y in (0.5, 1.0, 2.0, 8.0)]
    assert all(x < y for x, y in zip(caps, caps[1:]))


def test_record_prob_domain_errors() -> None:
    with pytest.raises(ValueError):
        exactmean.record_prob(0, 1, 0, math.inf)
    with pytest.raises(ValueError):
        exactmean.record_prob(2, 1, 0, math.inf)
    for r, k in ((True, 1), (1, True), (1, 1.0)):
        with pytest.raises(ValueError):
            exactmean.record_prob(r, k, 0, math.inf)
    with pytest.raises(ValueError):
        exactmean.record_prob(1, 1, -1, math.inf)
    for ancestors in (2.5, 2.0, True):
        with pytest.raises(ValueError, match="ancestors must be an integer"):
            exactmean.record_prob(1, 2, ancestors, 1.0)
    assert exactmean.record_prob(1, 2, np.int64(2), 1.0) == exactmean.record_prob(
        1, 2, 2, 1.0
    )
    with pytest.raises(ValueError):
        exactmean.record_prob(1, 1, 0, 0.0)


def test_mean_query_validation() -> None:
    with pytest.raises(ValueError):
        MeanQuery(0, 1, 1)
    for n in (True, 7.5, 7.0, "7"):
        with pytest.raises(ValueError, match="n must be an integer"):
            MeanQuery(n, 1, 1)
    query = MeanQuery(np.int64(7), 2, 1)
    assert type(query.n) is int and query == MeanQuery(7, 2, 1)
    with pytest.raises(ValueError):
        MeanQuery(3, 0, 1)
    # Exact means need no series constants, so k has no upper cap.
    assert MeanQuery(3, series.MAX_K + 1, 1).k == series.MAX_K + 1
    with pytest.raises(ValueError):
        MeanQuery(3, 1, 2)
    for r, k in ((True, 1), (1, True)):
        with pytest.raises(ValueError):
            MeanQuery(3, k, r)
    with pytest.raises(ValueError):
        MeanQuery(3, 1, 1, y=-1.0)
    with pytest.raises(ValueError):
        MeanQuery(3, 1, 1, variant="leaf")
    with pytest.raises(ValueError):
        MeanQuery(3, 1, 1, y=2.0, variant="edge")


def test_expected_records_small_trees() -> None:
    assert exactmean.expected_records(MeanQuery(3, 1, 1)) == pytest.approx(
        2.0, abs=1e-10
    )
    assert exactmean.expected_records(MeanQuery(7, 1, 1)) == pytest.approx(
        10.0 / 3.0, abs=1e-10
    )
    assert exactmean.expected_records(
        MeanQuery(7, 1, 1, variant="edge")
    ) == pytest.approx(4.0, abs=1e-10)
    # Single node: the root is the only (guaranteed) record.
    assert exactmean.expected_records(MeanQuery(1, 2, 1)) == pytest.approx(
        1.0, abs=1e-12
    )
    assert exactmean.expected_records(
        MeanQuery(1, 2, 1, variant="edge")
    ) == pytest.approx(0.0, abs=1e-12)


def test_expected_records_k1_harmonic_sum() -> None:
    """Unconditional k = 1 mean equals sum over nodes of 1/(h(v)+1)."""
    for n in [5, 12, 31]:
        expected = sum(1.0 / (height(n, v) + 1.0) for v in range(1, n + 1))
        got = exactmean.expected_records(MeanQuery(n, 1, 1))
        assert got == pytest.approx(expected, abs=1e-9)


def test_conditional_monotone_in_y_and_edge_limit() -> None:
    values = [
        exactmean.expected_records(MeanQuery(7, 2, 1, y=y))
        for y in (0.25, 0.5, 1.0, 2.0, 4.0, 30.0)
    ]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
    edge = exactmean.expected_records(MeanQuery(7, 2, 1, variant="edge"))
    assert values[-1] == pytest.approx(edge, abs=1e-9)


def test_expected_records_matches_simulation() -> None:
    n, k, r = 15, 1, 1
    samples = 20_000
    counts = cutsim.simulate_records_batch(
        cutsim.CompleteTree(n), k, seed=314, n_samples=samples
    )[:, r - 1]
    exact = exactmean.expected_records(MeanQuery(n, k, r))
    se = counts.std(ddof=1) / math.sqrt(samples)
    assert abs(counts.mean() - exact) <= 4.0 * se


def test_asymptotic_mean_trend() -> None:
    for k in (1, 2):
        gaps = []
        for p2 in (10, 14, 18):
            n = 1 << p2
            exact = exactmean.expected_records(MeanQuery(n, k, 1))
            approx = exactmean.asymptotic_mean(n, k, 1)
            gaps.append(abs(approx - exact) / exact)
        assert gaps[0] > gaps[1] > gaps[2]


def test_asymptotic_mean_full_tree_harmonic_pattern() -> None:
    """At full trees with k = r = 1, the exact mean is
    sum_i 2**i/(i+1) = 2**(m+1) (1/m + 2/m**3 + O(m**-4)); the
    closed-form approximation matches it through the (vanishing) 1/m**2
    term, so the relative gap scales like m**-2."""
    for m in (10, 14, 18):
        n = (1 << (m + 1)) - 1
        harmonic = sum(2.0**i / (i + 1) for i in range(m + 1))
        approx = exactmean.asymptotic_mean(n, 1, 1)
        rel = abs(approx - harmonic) / harmonic
        assert 2.0 <= rel * m * m <= 5.0


def test_asymptotic_mean_validation() -> None:
    with pytest.raises(ValueError):
        exactmean.asymptotic_mean(3, 1, 1)
    for n in (True, 2.0**20):
        with pytest.raises(ValueError, match="n must be an integer"):
            exactmean.asymptotic_mean(n, 2, 1)
    assert exactmean.asymptotic_mean(np.int64(2**20), 2, 1) == (
        exactmean.asymptotic_mean(2**20, 2, 1)
    )
    for k, r in ((2, 3), (2, 0), (series.MAX_K + 1, 1), (True, 1)):
        with pytest.raises(ValueError):
            exactmean.asymptotic_mean(16, k, r)


def test_asymptotic_mean_finite_up_to_the_float_range() -> None:
    """The closed form never holds ``n`` as a float: along n = 2**64 ...
    2**1023 (k = 2, r = 1), up to where the exact mean nears the float
    range, it is finite and within 3e-4 of that mean.  Where the mean
    itself passes the float range an OverflowError says so."""
    for e in (64, 128, 256, 512, 1000, 1022, 1023):
        n = 1 << e
        approx = exactmean.asymptotic_mean(n, 2, 1)
        exact = exactmean.expected_records(MeanQuery(n, 2, 1))
        assert math.isfinite(approx), e
        assert abs(approx / exact - 1.0) < 3e-4, (e, approx, exact)
    with pytest.raises(OverflowError, match="exceeds the float range"):
        exactmean.asymptotic_mean(1 << 1030, 2, 1)


def test_expected_records_past_the_float_range() -> None:
    """Node counts past the float range are summed scaled down: at n =
    2**1030, k = 1, the mean is finite and within 3e-4 of the closed
    form, though the last level's 2**1029 nodes are not a float.  Where
    the mean itself passes the float range, at n = 2**1100 (k = 1 and
    2), an OverflowError says so."""
    exact = exactmean.expected_records(MeanQuery(1 << 1030, 1, 1))
    approx = exactmean.asymptotic_mean(1 << 1030, 1, 1)
    assert math.isfinite(exact) and abs(approx / exact - 1.0) < 3e-4
    for k in (1, 2):
        with pytest.raises(OverflowError, match="mean .* exceeds the float range"):
            exactmean.expected_records(MeanQuery(1 << 1100, k, 1))
