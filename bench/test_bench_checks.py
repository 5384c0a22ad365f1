"""Each correctness check of the benchmark fails on a deliberately
wrong input and passes on the right one.

Run with ``PYTHONPATH=src python -m pytest -q bench``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import checks
from kcut import cutsim, exactmean

K = 2


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    return np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x])


@pytest.fixture(scope="module")
def mid_counts() -> np.ndarray:
    return cutsim.simulate_records_batch(cutsim.CompleteTree(255), K, 3, 2000)


def test_mean_check_rejects_counts_scaled_by_1_05() -> None:
    # The benchmark's small tree: 20 000 samples put a 5 % shift 15 to
    # 27 standard errors out.  At n = 255 with 2000 samples it is only
    # about 5, so that size could not show this.
    counts = cutsim.simulate_records_batch(cutsim.CompleteTree(63), K, 2, 20000)
    for r in (1, 2):
        exact = exactmean.expected_records(exactmean.MeanQuery(n=63, k=K, r=r))
        checks.mean_near_exact(counts[:, r - 1], exact, f"r={r}")
        with pytest.raises(checks.CheckFailed):
            checks.mean_near_exact(1.05 * counts[:, r - 1], exact, f"r={r}")


def test_monotone_check_rejects_orders_reversed(mid_counts) -> None:
    checks.records_monotone(mid_counts)
    with pytest.raises(checks.CheckFailed):
        checks.records_monotone(mid_counts[:, ::-1])


def test_law_check_rejects_process_totals_from_another_n(mid_counts) -> None:
    records = mid_counts.sum(axis=1)
    right = cutsim.simulate_process_batch(cutsim.CompleteTree(255), K, 4, 2000)
    checks.same_law(right, records, "n=255")
    wrong = cutsim.simulate_process_batch(cutsim.CompleteTree(127), K, 4, 2000)
    with pytest.raises(checks.CheckFailed):
        checks.same_law(wrong, records, "n=127 against n=255")


def test_split_check_rejects_shifted_rows(mid_counts) -> None:
    tree = cutsim.CompleteTree(255)
    part = cutsim.simulate_records_batch(tree, K, 3, 64, first_index=700)
    checks.same_rows(mid_counts, part, 700, "split")
    with pytest.raises(checks.CheckFailed):
        checks.same_rows(mid_counts, part, 701, "split off by one")


def test_ks_check_rejects_draws_shifted_by_0_2() -> None:
    # As many draws as the benchmark takes at 2**160, from a law whose
    # density peaks at 0.4.
    draws = np.random.default_rng(11).standard_normal(20736)
    right = checks.ks_one_sample(draws, _normal_cdf(np.sort(draws)))
    checks.ks_at_most(right, checks.XI_KS_MAX, "right")
    shifted = draws + 0.2
    wrong = checks.ks_one_sample(shifted, _normal_cdf(np.sort(shifted)))
    with pytest.raises(checks.CheckFailed):
        checks.ks_at_most(wrong, checks.XI_KS_MAX, "shifted")
    with pytest.raises(checks.CheckFailed):
        checks.ks_falls(0.04, 0.09, "rising")


def test_cdf_check_rejects_one_value_out_of_order() -> None:
    w = np.linspace(-6.0, 6.0, 401)
    f = _normal_cdf(w)
    checks.cdf_grid(w, f)
    bad = f.copy()
    bad[200], bad[201] = bad[201], bad[200]
    with pytest.raises(checks.CheckFailed):
        checks.cdf_grid(w, bad)
    with pytest.raises(checks.CheckFailed):
        checks.cdf_grid(w[150:], f[150:])


def test_experiment_checks_reject_bad_sizes_and_statistics() -> None:
    gamma = checks.subsequence_gamma(5037)
    checks.sizes_on_subsequence([5037], gamma, 0.02)
    with pytest.raises(checks.CheckFailed):
        checks.sizes_on_subsequence([5037, 6000], gamma, 0.02)

    class Res:
        n, mean_gap_sigmas, ks_vs_limit = 5037, 1.0, 0.05

    checks.experiment_results([Res()])
    for field, value in (("mean_gap_sigmas", 7.0), ("ks_vs_limit", math.nan)):
        bad = Res()
        setattr(bad, field, value)
        with pytest.raises(checks.CheckFailed):
            checks.experiment_results([bad])
