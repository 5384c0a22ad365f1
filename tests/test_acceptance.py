"""End-to-end acceptance suite.

Thirteen numbered checks cover the whole package at its advertised
tolerances: special functions, exact series constants, simulator law
equivalence, exact and asymptotic moments, Lévy-measure identities,
characteristic-function structure, limit-law convergence, variance
scaling, and byte-level reproducibility.  Stochastic checks pin their
seeds, so every run sees the same draws.

Checks 11a and 11b test convergence along a ladder of sizes, since the
limit law holds only along subsequences and no rate is known.  For 11a
the triangular-array sampler runs at n = 2**40, 2**80, 2**160 with
gamma fixed.  Its exact characteristic function approaches the limit's
with no floor: at t = 0.25 the distance is 0.076, 0.042, 0.024, 0.013
for k = 1 along lg n = 40, 80, 160, 320: each doubling of lg n
multiplies it by 0.54-0.57, a little more than half, where a
constant-factor lg/ln slip would leave a floor.  The KS distance to
the limit CDF is 0.075, 0.045, 0.026 (k = 1) and 0.087, 0.060, 0.042
(k = 2), and the stated 0.05 threshold applies at the top of the
ladder.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction as F

import numpy as np
import pytest

from kcut import cutsim, exactmean, harness, limitdist, series, specfun
from kcut.harness import ExperimentConfig
from kcut.limitdist import LimitParams, ScaleParams

from oracles import brute_force_distribution
from test_series import (
    _lagrange_check,
    _oracle_base,
    _oracle_h0,
    _oracle_m_polynomials,
)


# ---------------------------------------------------------------------------
# 1. Special functions.
# ---------------------------------------------------------------------------


def test_01_regularized_gamma_inverse_roundtrip() -> None:
    start = time.perf_counter()
    ys = np.geomspace(1e-6, 0.999, 20)
    for a in (1 / 3, 1 / 2, 2 / 3, 1.0, 3 / 2):
        for y in ys:
            x = specfun.q_inv(a, float(y))
            assert abs(specfun.q(a, x) - y) <= 1e-10, (a, y)
    for x in np.linspace(0.0, 30.0, 61):
        assert abs(specfun.q(1.0, float(x)) - math.exp(-x)) <= 1e-12, x
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# 2. Series constants.
# ---------------------------------------------------------------------------


def test_02_series_tables_match_naive_oracle() -> None:
    start = time.perf_counter()
    c5 = series.c5_table(2)
    assert c5[(1, 3)] == F(1, 3)
    assert c5[(1, 4)] == F(-1, 4)
    assert c5[(2, 6)] == F(1, 18)
    for k in (1, 2, 3, 4):
        core = series.expand_core(k)
        base = _oracle_base(k, core.b_cap)
        _lagrange_check(core, base, k, core.b_cap)
        h0_table = series.expand_h0(k)
        b_cap = h0_table.b_cap
        base = _oracle_base(k, b_cap)
        h0 = _oracle_h0(k, b_cap)
        oracle = _oracle_m_polynomials(base, k, b_cap, h0_table.j_cap)
        for b in range(b_cap + 1):
            for j in range(h0_table.j_cap + 1):
                acc = F(0)
                for b1, c1 in enumerate(h0):
                    if b1 > b:
                        break
                    acc += c1 * oracle[b - b1][j]
                assert h0_table.get(j, b) == acc, (k, j, b)
    assert time.perf_counter() - start < 5.0


# ---------------------------------------------------------------------------
# 3. Published prefactors.
# ---------------------------------------------------------------------------


def test_03_published_prefactors_k2_r1() -> None:
    table = series.constants(2, 1)
    assert abs(1.0 / table.c2 - math.sqrt(8.0 / math.pi)) <= 1e-12
    assert abs(table.c3 - 2.0 / math.sqrt(math.pi)) <= 1e-12


# ---------------------------------------------------------------------------
# 4. Simulator law equivalence.
# ---------------------------------------------------------------------------


def test_04_process_and_record_simulators_agree_in_law() -> None:
    start = time.perf_counter()
    tree = cutsim.CompleteTree(127)
    proc = cutsim.simulate_process_batch(tree, 2, 710, 100_000)
    recs = cutsim.simulate_records_batch(tree, 2, 711, 100_000).sum(axis=1)
    stat = harness.ks_two_sample(proc.astype(float), recs.astype(float))
    # 0.1% two-sample critical value for equal sizes: 1.95 * sqrt(2/N).
    assert stat < 1.95 * math.sqrt(2.0 / 100_000)
    assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------------------
# 5. Small-tree pmf agreement with exhaustive enumeration.
# ---------------------------------------------------------------------------


def test_05_empirical_pmf_matches_brute_force() -> None:
    uniform = brute_force_distribution(3, 1)
    assert uniform == {1: F(1, 3), 2: F(1, 3), 3: F(1, 3)}
    n_samples = 1_000_000
    for n, k in [(2, 1), (3, 1), (3, 2), (4, 2)]:
        want = brute_force_distribution(n, k)
        totals = cutsim.simulate_records_batch(
            cutsim.CompleteTree(n), k, 500 + 10 * n + k, n_samples
        ).sum(axis=1)
        values, counts = np.unique(totals, return_counts=True)
        emp = dict(zip(values.tolist(), (counts / n_samples).tolist()))
        assert set(emp) <= set(want), (n, k)
        for atom, prob in want.items():
            p = float(prob)
            sigma = math.sqrt(p * (1.0 - p) / n_samples)
            assert abs(emp.get(atom, 0.0) - p) <= 4.0 * sigma, (n, k, atom)


# ---------------------------------------------------------------------------
# 6. Exact means.
# ---------------------------------------------------------------------------


def test_06_exact_means_match_monte_carlo() -> None:
    got = exactmean.expected_records(exactmean.MeanQuery(n=7, k=1, r=1))
    assert abs(got - 10.0 / 3.0) <= 1e-10
    n_samples = 200_000
    for n, k, r in [(15, 1, 1), (31, 2, 1), (31, 2, 2)]:
        want = exactmean.expected_records(exactmean.MeanQuery(n=n, k=k, r=r))
        draws = cutsim.simulate_records_batch(
            cutsim.CompleteTree(n), k, 600 + n + 10 * k + r, n_samples
        )[:, r - 1]
        se = draws.std(ddof=1) / math.sqrt(n_samples)
        assert abs(draws.mean() - want) <= 4.0 * se, (n, k, r)


# ---------------------------------------------------------------------------
# 7. Asymptotic mean trend.
# ---------------------------------------------------------------------------


def test_07_asymptotic_mean_gap_shrinks() -> None:
    for k in (1, 2):
        gaps = []
        for e in (10, 14, 18):
            n = 1 << e
            exact = exactmean.expected_records(
                exactmean.MeanQuery(n=n, k=k, r=1)
            )
            approx = exactmean.asymptotic_mean(n, k, 1)
            gaps.append(abs(approx - exact) / exact)
        assert gaps[0] > gaps[1] > gaps[2], (k, gaps)


# ---------------------------------------------------------------------------
# 8. Lévy measure identities.
# ---------------------------------------------------------------------------


def test_08_levy_measure_identities() -> None:
    for gamma in (0.0, 0.37, 0.92):
        block = limitdist.levy_block_mean(LimitParams(1, 1, gamma), 1.0, 2.0)
        assert abs(block - 1.0) <= 1e-6, gamma
    rng = np.random.default_rng(8181)
    points = np.exp(rng.uniform(math.log(1 / 64), math.log(4.0), 20))
    for r, k in [(1, 1), (1, 2), (2, 2), (1, 3)]:
        p = LimitParams(r, k, 0.37)
        for x in points:
            lo = limitdist.levy_density(float(x), p)
            hi = limitdist.levy_density(2.0 * float(x), p)
            assert abs(hi - lo / 4.0) <= 1e-9 * abs(hi), (r, k, x)
    for gamma in (0.0, 0.37, 0.92):
        p = LimitParams(1, 1, gamma)
        for x in points:
            got = limitdist.levy_density(float(x), p)
            want = 2.0 ** ((gamma + math.log2(x)) % 1.0) / x**2
            assert abs(got - want) <= 1e-12 * want, (gamma, x)


# ---------------------------------------------------------------------------
# 9. Diagonal drift reduction.
# ---------------------------------------------------------------------------


def test_09_diagonal_drift_reduction() -> None:
    for k in (1, 2, 3):
        for gamma in (0.0, 0.25, 0.5, 0.75):
            got = limitdist.f_constant(LimitParams(k, k, gamma))
            want = 2.0**gamma - gamma - 1.0
            assert abs(got - want) <= 1e-8, (k, gamma)


# ---------------------------------------------------------------------------
# 10. Two independent copies make one at double scale.
# ---------------------------------------------------------------------------


def test_10_two_copies_cf_identity() -> None:
    ts = np.linspace(-10.0, 10.0, 41)
    for r, k in [(1, 1), (1, 2)]:
        p = LimitParams(r, k, 0.3)
        block = limitdist.levy_block_mean(p, 1.0, 2.0)
        for t in ts:
            lhs = limitdist.char_fn(float(t), p) ** 2
            rhs = limitdist.char_fn(2.0 * float(t), p) * np.exp(
                2.0j * t * block
            )
            assert abs(lhs - rhs) <= 1e-6, (r, k, t)


# ---------------------------------------------------------------------------
# 11. Limit-law convergence.
# ---------------------------------------------------------------------------


def test_11a_xi_sampler_matches_limit_cdf() -> None:
    """The triangular-array sampler converges to the limit CDF.

    The paper proves convergence in law along subsequences with
    frac(lg n - lg lg n) -> gamma but gives no rate, and a tree on 2**40
    nodes is itself far from the limit (its Levy mass above 1 is 1.312
    against levy_tail(1) = 1.466).  So, as in 11b, the check runs a
    ladder: n = 2**40, 2**80, 2**160 double lg n at each step, which
    keeps alpha = 0 and gamma = frac(-lg 5) exactly.  The KS distance
    must fall strictly along the ladder and be at most 0.05 at the top.
    Measured with this seed: 0.075, 0.045, 0.026 for (r, k) = (1, 1) and
    0.087, 0.060, 0.042 for (1, 2).  Centring by the asymptotic
    compensator instead of the array's exact truncated mean gives 0.083,
    0.049, 0.027 and 0.202, 0.157, 0.112, which fails.
    """
    start = time.perf_counter()
    stats = {}
    for r, k in [(1, 1), (1, 2)]:
        table = series.constants(k, r)
        for e in (40, 80, 160):
            scale = ScaleParams.from_n(1 << e, k)
            p = LimitParams(r, k, scale.gamma)
            draws = limitdist.xi_sampler_batch(
                scale, p, table, seed=20260825, n_samples=100_000
            )
            stats[(r, k, e)] = harness.ks_statistic(
                draws, lambda w: limitdist.limit_cdf(w, p, table)
            )
    assert time.perf_counter() - start < 480.0
    for r, k in [(1, 1), (1, 2)]:
        ladder = [stats[(r, k, e)] for e in (40, 80, 160)]
        assert ladder[0] > ladder[1] > ladder[2], stats
        assert ladder[2] <= 0.05, stats


def test_11b_rescaled_tree_samples_approach_limit() -> None:
    start = time.perf_counter()
    config = ExperimentConfig(
        k=1,
        r=1,
        gamma_target=0.0,
        n_min=4096,
        n_max=65536,
        n_count=3,
        samples=2000,
        seed=20260825,
    )
    report = harness.run_experiment(config)
    sizes = [res.n for res in report.results]
    assert len(sizes) == 3 and sizes == sorted(sizes)
    assert sizes[-1] == 65536
    for size, anchor in zip(sizes, (12, 14, 16)):
        assert abs(math.log2(size) - anchor) < 1.0, sizes
    stats = [res.ks_vs_limit for res in report.results]
    assert stats[0] >= stats[1] >= stats[2], stats
    assert stats[-1] <= 0.2, stats
    assert time.perf_counter() - start < 120.0


# ---------------------------------------------------------------------------
# 12. Variance scaling.
# ---------------------------------------------------------------------------


def test_12_variance_scaling_order() -> None:
    for k in (1, 2):
        scaled = {}
        for e in (10, 15):
            n = 1 << e
            draws = cutsim.simulate_records_batch(
                cutsim.CompleteTree(n), k, 7000 + k, 4000
            )[:, 0].astype(float)
            scaled[e] = draws.var(ddof=1) * e ** (3.0 / k) / n**2
        assert scaled[15] <= 3.0 * scaled[10], (k, scaled)


# ---------------------------------------------------------------------------
# 13. Reproducibility across thread counts.
# ---------------------------------------------------------------------------


def test_13_csv_reproducible_across_thread_counts() -> None:
    base = dict(
        k=2,
        r=None,
        gamma_target=0.25,
        n_list=(256, 1024),
        samples=2000,
        seed=1313,
    )
    one = harness.run_experiment(ExperimentConfig(**base, threads=1))
    eight = harness.run_experiment(ExperimentConfig(**base, threads=8))
    assert one.csv_text().encode() == eight.csv_text().encode()
