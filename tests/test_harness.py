"""Tests for subsequence selection, KS statistics, and the experiment
driver."""

from __future__ import annotations

import dataclasses
import json
import math

import mpmath
import numpy as np
import pytest

from kcut import cutsim, exactmean, harness, series
from kcut.harness import ExperimentConfig
from kcut.limitdist import ScaleParams


# ---------------------------------------------------------------------------
# Subsequence selection.
# ---------------------------------------------------------------------------


def test_gamma_of_basics() -> None:
    assert harness.gamma_of(1024) == pytest.approx(
        (10.0 - math.log2(10.0)) % 1.0
    )
    with pytest.raises(ValueError):
        harness.gamma_of(3)


def test_gamma_of_is_the_scale_parameter() -> None:
    """One route for frac(lg n - lg lg n): the experiment's sizes and
    the xi sampler's scale agree bit for bit, so the limit laws they
    pick are equal, and the integer parts taken off first keep the
    value within 1e-15 of the exact one at 2**40, 2**80 and 2**160."""
    sizes = [16, 17, 1000, 1023, 1024, 1025, 3**30, 2**64 - 1, 10**40]
    sizes += np.unique(np.geomspace(16, 2**62, 400).astype(np.int64)).tolist()
    for n in sizes:
        scale = ScaleParams.from_n(n, 2)
        assert harness.gamma_of(n) == scale.gamma
        assert scale.gamma == (scale.alpha - scale.beta) % 1.0
    with mpmath.workdps(50):
        for m in (40, 80, 160):
            lg = mpmath.mpf(m)
            exact = float((lg - mpmath.log(lg, 2)) % 1)
            assert abs(harness.gamma_of(2**m) - exact) <= 1e-15


def test_circular_gamma_distance() -> None:
    assert harness.circular_gamma_distance(0.1, 0.9) == pytest.approx(0.2)
    assert harness.circular_gamma_distance(0.999, 0.0) == pytest.approx(0.001)
    assert harness.circular_gamma_distance(0.5, 0.5) == 0.0


def test_subsequence_admits_exact_size() -> None:
    gamma = harness.gamma_of(1024)
    picks = harness.subsequence_select(gamma, 512, 2048, 4)
    assert 1024 in picks


def test_subsequence_sorted_and_within_delta() -> None:
    gamma = 0.3
    picks = harness.subsequence_select(gamma, 16, 1 << 18, 6, delta=0.02)
    assert picks == sorted(set(picks))
    assert all(picks[i] < picks[i + 1] for i in range(len(picks) - 1))
    for n in picks:
        assert harness.circular_gamma_distance(
            harness.gamma_of(n), gamma
        ) <= 0.02


def test_subsequence_count_cap_and_spread() -> None:
    picks = harness.subsequence_select(0.0, 16, 1 << 18, 3)
    assert len(picks) == 3
    # Geometric spread: consecutive log-gaps within a factor of four.
    gaps = np.diff([math.log2(n) for n in picks])
    assert np.all(gaps > 0.5)


def test_subsequence_wraparound_target() -> None:
    # A target at the seam of the unit interval accepts sizes whose
    # fractional part is just below 1.
    picks = harness.subsequence_select(0.0, 2800, 3100, 2, delta=0.02)
    assert picks, "the rung near 2952 must be found"
    assert all(
        harness.circular_gamma_distance(harness.gamma_of(n), 0.0) <= 0.02
        for n in picks
    )


def test_subsequence_empty_is_warning_not_error() -> None:
    with pytest.warns(harness.ConfigurationWarning):
        picks = harness.subsequence_select(0.5, 60, 70, 3, delta=0.001)
    assert picks == []


def test_subsequence_validation() -> None:
    with pytest.raises(ValueError):
        harness.subsequence_select(0.3, 8, 1024, 3)
    with pytest.raises(ValueError):
        harness.subsequence_select(0.3, 1024, 1024, 3)
    with pytest.raises(ValueError):
        harness.subsequence_select(0.3, 16, 1024, 0)
    with pytest.raises(ValueError):
        harness.subsequence_select(0.3, 16, 1024, 3, delta=0.7)


# ---------------------------------------------------------------------------
# KS statistics.
# ---------------------------------------------------------------------------


def test_ks_single_sample_at_median() -> None:
    assert harness.ks_statistic([0.5], lambda x: np.asarray(x)) == pytest.approx(
        0.5
    )


def test_ks_constant_samples_in_tail() -> None:
    stat = harness.ks_statistic(
        [50.0] * 10, lambda x: np.clip(np.asarray(x), 0.0, 1.0)
    )
    assert stat == pytest.approx(1.0)


def test_ks_calibration_scale() -> None:
    # Samples drawn from their own reference law: the statistic should
    # sit on the classical 1.22/sqrt(N) scale, far from both 0 and the
    # rejection region.
    rng = np.random.default_rng(7)
    x = rng.random(40_000)
    stat = harness.ks_statistic(x, lambda v: np.clip(np.asarray(v), 0.0, 1.0))
    scaled = stat * math.sqrt(40_000)
    assert 0.3 < scaled < 1.95


def test_ks_wrong_shape_cdf_raises() -> None:
    # The sup is reached just below the smallest sample, where the
    # empirical CDF is still 0 but the reference is already 0.25.
    x = [0.25, 0.5, 0.75]
    stat = harness.ks_statistic(x, lambda v: np.clip(v, 0.0, 1.0))
    assert stat == pytest.approx(0.25)
    # A scalar-only CDF returns one value for the whole sorted array.
    with pytest.raises(ValueError):
        harness.ks_statistic(x, lambda v: min(max(float(v[0]), 0.0), 1.0))


def test_ks_cdf_type_error_propagates() -> None:
    def broken(v):
        raise TypeError("bug inside the CDF")

    with pytest.raises(TypeError, match="bug inside the CDF"):
        harness.ks_statistic([0.25, 0.5, 0.75], broken)


def test_ks_empty_inputs_raise() -> None:
    with pytest.raises(ValueError):
        harness.ks_statistic([], lambda x: x)
    with pytest.raises(ValueError):
        harness.ks_two_sample([], [1.0])


def test_ks_two_sample_extremes() -> None:
    assert harness.ks_two_sample([1, 2, 3], [1, 2, 3]) == 0.0
    assert harness.ks_two_sample([0.0, 0.1], [5.0, 6.0]) == 1.0


def test_ks_two_sample_matches_statistic_shape() -> None:
    rng = np.random.default_rng(11)
    a = rng.normal(size=500)
    b = rng.normal(size=700)
    stat = harness.ks_two_sample(a, b)
    assert 0.0 < stat < 0.15


# ---------------------------------------------------------------------------
# Config plumbing.
# ---------------------------------------------------------------------------


def test_config_validation() -> None:
    with pytest.raises(ValueError):
        ExperimentConfig(k=0, n_list=(64,))
    # The limit side needs series.constants, which stops at MAX_K.
    with pytest.raises(ValueError, match="k must be an integer in"):
        ExperimentConfig(k=series.MAX_K + 1, n_list=(64,))
    with pytest.raises(ValueError):
        ExperimentConfig(k=2, r=3, n_list=(64,))
    with pytest.raises(ValueError):
        ExperimentConfig(k=1, variant="leaf", n_list=(64,))
    with pytest.raises(ValueError):
        ExperimentConfig(k=1, gamma_target=1.0, n_list=(64,))
    with pytest.raises(ValueError):
        ExperimentConfig(k=1, n_list=())
    with pytest.raises(ValueError):
        ExperimentConfig(k=1, n_list=(8,))
    with pytest.raises(ValueError):
        ExperimentConfig(k=1)  # no size source
    with pytest.raises(ValueError):
        ExperimentConfig(k=1, n_list=(64,), samples=-1)
    with pytest.raises(ValueError):
        ExperimentConfig(k=1, n_list=(64,), threads=0)
    # Mistyped fields, as a JSON config can give them, name the field.
    mistyped = [
        ("samples", {"samples": 2.5}),
        ("samples", {"samples": True}),
        ("seed", {"seed": 1.5}),
        ("gamma_target", {"gamma_target": "0.5"}),
        ("gamma_target", {"gamma_target": False}),
        ("delta", {"delta": "0.02"}),
        ("k", {"k": True}),
        ("r", {"r": 1.0}),
        ("n_count", {"n_count": 3.0}),
        ("threads", {"threads": True}),
        ("n_list", {"n_list": [100.7]}),
        ("n_list", {"n_list": 64}),
        ("n_min", {"n_list": None, "n_min": 64.5, "n_max": 128}),
        ("n_max", {"n_list": None, "n_min": 64, "n_max": "128"}),
    ]
    for field, bad in mistyped:
        data = {"k": 1, "n_list": [64], **bad}
        with pytest.raises(ValueError, match=field):
            ExperimentConfig.from_dict(data)
    # numpy integers are integers, and are stored as ints.
    cfg = ExperimentConfig(
        k=np.int64(1), n_list=(np.int64(64),), samples=np.int32(5),
        seed=np.int64(7),
    )
    assert (cfg.k, cfg.n_list, cfg.samples, cfg.seed) == (1, (64,), 5, 7)
    assert type(cfg.seed) is int and type(cfg.n_list[0]) is int


def test_config_dict_roundtrip() -> None:
    cfg = ExperimentConfig(k=2, r=1, n_list=(64, 128), samples=10, seed=3)
    again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg


def test_config_rejects_unknown_keys() -> None:
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict({"k": 1, "n_list": [64], "bogus": 1})


def test_config_sizes_from_selection() -> None:
    cfg = ExperimentConfig(
        k=1, gamma_target=harness.gamma_of(1024), n_min=512, n_max=2048,
        n_count=2,
    )
    assert 1024 in cfg.sizes()


# ---------------------------------------------------------------------------
# Experiment driver.
# ---------------------------------------------------------------------------


def _smoke_config(**overrides) -> ExperimentConfig:
    base = dict(
        k=1,
        r=1,
        gamma_target=harness.gamma_of(64),
        n_list=(64,),
        samples=400,
        seed=1234,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_run_experiment_smoke_fields() -> None:
    report = harness.run_experiment(_smoke_config())
    assert len(report.results) == 1
    res = report.results[0]
    assert res.n == 64
    assert res.sample_count == 400
    assert 0.0 <= res.ks_vs_limit <= 1.0
    assert res.exact_mean == pytest.approx(
        exactmean.expected_records(exactmean.MeanQuery(n=64, k=1, r=1)),
        rel=1e-12,
    )
    assert res.mean_gap_sigmas < 4.0
    assert set(report.versions) == {"package", "python", "numpy"}


def test_run_experiment_total_mode_k2() -> None:
    cfg = _smoke_config(k=2, r=None, samples=300, seed=77)
    report = harness.run_experiment(cfg)
    res = report.results[0]
    want = sum(
        exactmean.expected_records(exactmean.MeanQuery(n=64, k=2, r=r))
        for r in (1, 2)
    )
    assert res.exact_mean == pytest.approx(want, rel=1e-12)
    assert res.mean_gap_sigmas < 4.0


def test_run_experiment_edge_variant() -> None:
    cfg = _smoke_config(variant="edge", samples=300, seed=5)
    res = harness.run_experiment(cfg).results[0]
    want = exactmean.expected_records(
        exactmean.MeanQuery(n=64, k=1, r=1, variant="edge")
    )
    assert res.exact_mean == pytest.approx(want, rel=1e-12)
    assert res.mean_gap_sigmas < 4.0


def test_run_experiment_zero_samples() -> None:
    report = harness.run_experiment(_smoke_config(samples=0))
    res = report.results[0]
    assert res.sample_count == 0
    assert math.isnan(res.raw_mean)
    assert math.isnan(res.ks_vs_limit)
    assert res.exact_mean > 0.0


def test_run_experiment_error_context(monkeypatch) -> None:
    def boom(query):
        raise exactmean.QuadratureError(1.0, 1e-11)

    monkeypatch.setattr(exactmean, "_expected_records", boom)
    with pytest.raises(ArithmeticError, match=r"n=64, seed=1234"):
        harness.run_experiment(_smoke_config())


def test_report_csv_shape_and_determinism() -> None:
    cfg = _smoke_config(samples=150)
    first = harness.run_experiment(cfg).csv_text()
    second = harness.run_experiment(cfg).csv_text()
    assert first == second
    lines = first.split("\n")
    assert lines[0].startswith("n,gamma_n,sample_count,")
    assert len(lines) == 3 and lines[-1] == ""
    assert "\r" not in first


def test_report_thread_count_invariance() -> None:
    base = _smoke_config(samples=2500, n_list=(48, 64))
    one = harness.run_experiment(
        dataclasses.replace(base, threads=1)
    )
    eight = harness.run_experiment(
        dataclasses.replace(base, threads=8)
    )
    assert one.csv_text() == eight.csv_text()
    assert one.json_dict()["results"] == eight.json_dict()["results"]


def test_report_json_carries_cdf_certificate() -> None:
    """The JSON carries the CDF certificate and the exact means' error
    bound: positive, and within the 1e-11 that each record probability
    must certify, times the node count of the larger tree and its two
    orders."""
    base = _smoke_config(samples=200)
    one = harness.run_experiment(dataclasses.replace(base, threads=1))
    two = harness.run_experiment(dataclasses.replace(base, threads=2))
    numerics = one.json_dict()["numerics"]
    assert numerics == two.json_dict()["numerics"]
    assert set(numerics) == {
        "exact_mean_abserr", "cdf_err_estimate", "cdf_t_max", "cdf_panels"
    }
    bound = exactmean._QUAD_TOL * base.k * max(base.sizes())
    assert 0.0 < numerics["exact_mean_abserr"] <= bound
    assert 0.0 < numerics["cdf_err_estimate"] < 1e-4
    assert numerics["cdf_t_max"] == 32.0 and numerics["cdf_panels"] == 369
    assert one.csv_text() == two.csv_text()


def test_report_without_samples_carries_exact_mean_abserr() -> None:
    """With no samples there is no KS column and no CDF certificate, but
    the exact means and their error bound are still reported."""
    config = _smoke_config(samples=0)
    numerics = harness.run_experiment(config).json_dict()["numerics"]
    assert set(numerics) == {"exact_mean_abserr"}
    bound = exactmean._QUAD_TOL * config.k * max(config.sizes())
    assert 0.0 < numerics["exact_mean_abserr"] <= bound


def test_report_json_mirrors_csv(tmp_path) -> None:
    cfg = _smoke_config(
        samples=100,
        csv_path=str(tmp_path / "out.csv"),
        json_path=str(tmp_path / "out.json"),
    )
    report = harness.run_experiment(cfg)
    paths = harness.write_report(report)
    assert len(paths) == 2
    data = json.loads((tmp_path / "out.json").read_text())
    assert data["config"]["seed"] == cfg.seed
    assert len(data["results"]) == 1
    csv_text = (tmp_path / "out.csv").read_bytes().decode("utf-8")
    assert csv_text == report.csv_text()
    # Every CSV row value appears in the JSON mirror.
    row = dict(
        zip(
            csv_text.split("\n")[0].split(","),
            csv_text.split("\n")[1].split(","),
        )
    )
    assert int(row["n"]) == data["results"][0]["n"]
    assert float(row["ks_vs_limit"]) == pytest.approx(
        data["results"][0]["ks_vs_limit"], rel=1e-15
    )


def test_total_and_r1_modes_share_limit_family() -> None:
    # The total-count normalization and the order-1 normalization
    # approach the same limit family: their rescaled samples get closer
    # as n grows (k = 2 here).
    stats = {}
    for e in (14, 18):
        n = 1 << e
        tree = cutsim.CompleteTree(n)
        counts = cutsim.simulate_records_batch(tree, 2, 4242, 1500)
        tot = cutsim.rescale_counts(counts.sum(axis=1).astype(float), None, 2, n)
        r1 = cutsim.rescale_counts(counts[:, 0].astype(float), 1, 2, n)
        stats[e] = harness.ks_two_sample(tot, r1)
    assert stats[18] < stats[14]
    assert stats[18] < 0.1
