"""Tests for the command-line interface."""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from kcut import cli, cutsim, limitdist


def test_no_command_exits_2() -> None:
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_version_flag() -> None:
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_csv_schema(tmp_path) -> None:
    out = tmp_path / "sim.csv"
    rc = cli.main(
        [
            "simulate", "--n", "31", "--k", "2", "--samples", "5",
            "--seed", "7", "--out", str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "sample_index,r,count"
    body = [line.split(",") for line in lines[1:]]
    # k + 1 rows per sample: orders 1..k then the total.
    assert len(body) == 5 * 3
    first = body[:3]
    assert [row[1] for row in first] == ["1", "2", "total"]
    assert int(first[2][2]) == int(first[0][2]) + int(first[1][2])
    assert all(row[0] == "0" for row in first)


def test_simulate_deterministic(tmp_path) -> None:
    args = [
        "simulate", "--n", "64", "--k", "1", "--samples", "8",
        "--seed", "3",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_edge_variant(tmp_path) -> None:
    out = tmp_path / "edge.csv"
    rc = cli.main(
        [
            "simulate", "--n", "15", "--k", "1", "--variant", "edge",
            "--samples", "4", "--seed", "1", "--out", str(out),
        ]
    )
    assert rc == 0
    counts = [
        int(line.split(",")[2])
        for line in out.read_text().strip().split("\n")[1:]
    ]
    assert all(c >= 0 for c in counts)


@pytest.mark.parametrize("variant", ["node", "edge"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_simulate_csv_bytes_match_line_loop(tmp_path, k: int, variant: str) -> None:
    """The CSV holds, byte for byte, what a loop writing one line per
    order and one total per sample makes of the batch's own counts."""
    out = tmp_path / "sim.csv"
    args = [
        "simulate", "--n", "20", "--k", str(k), "--samples", "6",
        "--seed", "4", "--variant", variant, "--out", str(out),
    ]
    assert cli.main(args) == 0
    batch = (
        cutsim.simulate_edge_records_batch
        if variant == "edge"
        else cutsim.simulate_records_batch
    )
    counts = batch(cutsim.CompleteTree(20), k, 4, 6)
    lines = ["sample_index,r,count"]
    for i, row in enumerate(counts.tolist()):
        for r, c in enumerate(row, 1):
            lines.append(f"{i},{r},{c}")
        lines.append(f"{i},total,{sum(row)}")
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


def _traced_peak(argv: list[str]) -> int:
    """Peak bytes traced while ``kcut argv`` runs; it must exit 0."""
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_memory_beyond_counts_does_not_grow(tmp_path, monkeypatch) -> None:
    """kcut simulate formats and writes its CSV a block of samples at a
    time.  At n = 63 on two workers the traced peak beyond the
    ``(samples, 2)`` counts array is the workers' two 8 MB pieces plus at
    most 4 MB, at 20 000 samples and at 100 000."""
    monkeypatch.setenv(cutsim.THREADS_ENV, "2")
    for samples in (20_000, 100_000):
        peak = _traced_peak([
            "simulate", "--n", "63", "--k", "2", "--samples", str(samples),
            "--out", str(tmp_path / "sim.csv"),
        ])
        assert peak - samples * 2 * 8 <= (2 * 8 + 4) * 2**20, samples


def test_limit_memory_beyond_grid_does_not_grow(tmp_path) -> None:
    """kcut limit evaluates and writes its grid a block at a time: the
    traced peak of ``--cdf`` beyond the grid array, with the build of
    the CDF's cache where it is cold, stays within 16 MB at 20 000 and at
    100 000 points."""
    for points in (20_000, 100_000):
        peak = _traced_peak([
            "limit", "--r", "1", "--k", "2", "--gamma", "0.3", "--cdf",
            f"--grid=-20:8:{points}", "--out", str(tmp_path / "cdf.csv"),
        ])
        assert peak - points * 8 <= 16 * 2**20, points


def test_csv_blocks_keep_the_bytes(tmp_path, monkeypatch) -> None:
    """The CSVs of simulate and limit are the same bytes whatever the
    block: blocks of 7 lines (two samples at k = 2, so blocks end
    mid-sample-range; 7 grid points) against the default's one block."""
    commands = {
        "sim.csv": ["simulate", "--n", "20", "--k", "2", "--samples", "9"],
        "edge.csv": [
            "simulate", "--n", "9", "--k", "3", "--samples", "5",
            "--variant", "edge",
        ],
        "cdf.csv": ["limit", "--r", "1", "--k", "2", "--gamma", "0.3",
                    "--cdf", "--grid=-4:4:30"],
        "cf.csv": ["limit", "--r", "1", "--k", "2", "--gamma", "0.3",
                   "--cf", "--grid=0:9:30"],
        "tail.csv": ["limit", "--r", "1", "--k", "1", "--gamma", "0.0",
                     "--tail", "--grid=3:0.5:30"],
    }
    written = {}
    for lines in (None, 7):
        with monkeypatch.context() as m:
            if lines is not None:
                m.setattr(cli, "_CSV_LINES", lines)
            for name, argv in commands.items():
                out = tmp_path / f"{lines}-{name}"
                assert cli.main([*argv, "--out", str(out)]) == 0
                written.setdefault(name, []).append(out.read_bytes())
    for name, (whole, blocks) in written.items():
        assert whole == blocks, name
    assert written["sim.csv"][0].count(b"\n") == 1 + 9 * 3


def test_simulate_above_the_split_within_1gb(tmp_path) -> None:
    """A record sample of n = 2**26 - 1 nodes (k = 2) is swept by bottom
    subtrees within the 8 MB piece, so ``kcut simulate`` runs it in a
    child process whose address space is capped at 1 GB (set in the
    child only)."""
    src = Path(cli.__file__).resolve().parents[1]
    limit = 1 << 30

    def cap() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = {**os.environ, "PYTHONPATH": str(src), cutsim.THREADS_ENV: "1"}
    out = tmp_path / "big.csv"
    done = subprocess.run(
        [
            sys.executable, "-m", "kcut.cli", "simulate", "--n", "67108863",
            "--k", "2", "--samples", "1", "--out", str(out),
        ],
        capture_output=True, text=True, timeout=300, preexec_fn=cap, env=env,
    )
    assert done.returncode == 0, done.stderr
    rows = out.read_text().splitlines()
    assert rows[0] == "sample_index,r,count" and len(rows) == 4
    first, second, total = (int(row.split(",")[2]) for row in rows[1:])
    assert 0 < second <= first and total == first + second


def test_simulate_bad_n_exits_2(tmp_path) -> None:
    rc = cli.main(
        [
            "simulate", "--n", "0", "--k", "1", "--samples", "1",
            "--out", str(tmp_path / "x.csv"),
        ]
    )
    assert rc == 2


def test_simulate_k_past_record_bound_exits_2(tmp_path, capsys) -> None:
    rc = cli.main(
        [
            "simulate", "--n", "7", "--k", "300", "--samples", "1",
            "--out", str(tmp_path / "x.csv"),
        ]
    )
    assert rc == 2
    assert "k must be at most 256" in capsys.readouterr().err


def test_out_of_memory_exits_4(tmp_path, monkeypatch, capsys) -> None:
    """An allocation refused mid-command (numpy raises a subclass of
    MemoryError) prints one error line instead of a traceback and exits
    4.  The command is replaced, so nothing large is allocated."""

    def refuse(args):
        raise MemoryError("Unable to allocate 3.75 GiB for an array")

    monkeypatch.setattr(cli, "_cmd_simulate", refuse)
    rc = cli.main(
        [
            "simulate", "--n", "67108863", "--k", "2", "--samples", "1",
            "--out", str(tmp_path / "x.csv"),
        ]
    )
    assert rc == 4
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "error: out of memory: Unable to allocate 3.75 GiB for an array"
    ]


# ---------------------------------------------------------------------------
# exact-mean
# ---------------------------------------------------------------------------


def test_exact_mean_known_value(capsys) -> None:
    assert cli.main(["exact-mean", "--n", "7", "--k", "1", "--r", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("exact ")
    assert float(out.split()[1]) == pytest.approx(10.0 / 3.0, abs=1e-10)


def test_exact_mean_compare_asymptotic(capsys) -> None:
    rc = cli.main(
        [
            "exact-mean", "--n", "4096", "--k", "1", "--r", "1",
            "--compare-asymptotic",
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert [line.split()[0] for line in lines] == [
        "exact", "asymptotic", "gap",
    ]
    exact, approx, gap = (float(line.split()[1]) for line in lines)
    assert gap == pytest.approx(exact - approx, rel=1e-12)
    assert abs(gap) < 0.05 * exact


def test_exact_mean_edge_flag(capsys) -> None:
    assert (
        cli.main(["exact-mean", "--n", "15", "--k", "1", "--r", "1", "--edge"])
        == 0
    )
    edge = float(capsys.readouterr().out.split()[1])
    assert cli.main(["exact-mean", "--n", "15", "--k", "1", "--r", "1"]) == 0
    node = float(capsys.readouterr().out.split()[1])
    # Full 15-node tree, k=1: per-level sums 2/1 + 4/2 + 8/3 (edge,
    # root excluded and its clock frozen) vs 1 + 2/2 + 4/3 + 8/4.
    assert edge == pytest.approx(20.0 / 3.0, abs=1e-9)
    assert node == pytest.approx(16.0 / 3.0, abs=1e-9)


def test_exact_mean_bad_params(capsys) -> None:
    assert cli.main(["exact-mean", "--n", "7", "--k", "1", "--r", "2"]) == 2


def test_exact_mean_past_the_float_range_exits_3(capsys) -> None:
    argv = ["exact-mean", "--n", str(2**1100), "--k", "2", "--r", "1"]
    assert cli.main(argv) == 3
    assert "exceeds the float range" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def test_constants_json_published_values(capsys) -> None:
    assert cli.main(["constants", "--k", "2", "--r", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert 1.0 / data["c2"] == pytest.approx(math.sqrt(8.0 / math.pi), rel=1e-12)
    assert data["c3"] == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-12)
    assert all("/" in v for v in data["c5"].values())
    assert data["k"] == 2 and data["r"] == 1


def test_constants_rational_rendering(capsys) -> None:
    assert cli.main(["constants", "--k", "2", "--r", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    # The published k=2 core coefficients in exact form.
    assert data["c5"]["1,3"] == "1/3"
    assert data["c5"]["1,4"] == "-1/4"
    assert data["c5"]["2,6"] == "1/18"


# ---------------------------------------------------------------------------
# limit
# ---------------------------------------------------------------------------


def test_limit_density_csv(tmp_path) -> None:
    out = tmp_path / "dens.csv"
    rc = cli.main(
        [
            "limit", "--r", "1", "--k", "1", "--gamma", "0.0",
            "--density", "--grid", "0.5:4:8", "--out", str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "x,density"
    assert len(lines) == 9
    x0, v0 = (float(c) for c in lines[1].split(","))
    p = limitdist.LimitParams(1, 1, 0.0)
    assert v0 == pytest.approx(limitdist.levy_density(x0, p), rel=1e-15)


def test_limit_default_kind_is_density(tmp_path) -> None:
    out = tmp_path / "d.csv"
    rc = cli.main(
        [
            "limit", "--r", "1", "--k", "2", "--gamma", "0.3",
            "--grid", "1:2:3", "--out", str(out),
        ]
    )
    assert rc == 0
    assert out.read_text().startswith("x,density")


def test_limit_cf_csv(tmp_path) -> None:
    out = tmp_path / "cf.csv"
    rc = cli.main(
        [
            "limit", "--r", "1", "--k", "1", "--gamma", "0.0", "--cf",
            "--grid=-2:2:5", "--out", str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,real,imag"
    mid = lines[3].split(",")  # t = 0 row
    assert float(mid[1]) == pytest.approx(1.0)
    assert float(mid[2]) == pytest.approx(0.0)
    # The rows come from one array call and equal calls one t at a time.
    p = limitdist.LimitParams(1, 1, 0.0)
    for line in lines[1:]:
        t, real, imag = map(float, line.split(","))
        assert complex(real, imag) == limitdist.char_fn(t, p)


def test_limit_cdf_monotone_csv(tmp_path) -> None:
    out = tmp_path / "cdf.csv"
    rc = cli.main(
        [
            "limit", "--r", "1", "--k", "1", "--gamma", "0.0", "--cdf",
            "--grid=-8:2:21", "--out", str(out),
        ]
    )
    assert rc == 0
    vals = [
        float(line.split(",")[1])
        for line in out.read_text().strip().split("\n")[1:]
    ]
    assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
    assert 0.0 <= vals[0] <= vals[-1] <= 1.0


def test_limit_bad_grid_exits_2(tmp_path, capsys) -> None:
    base = [
        "limit", "--r", "1", "--k", "1", "--gamma", "0.0",
        "--out", str(tmp_path / "x.csv"),
    ]
    assert cli.main(base + ["--grid", "1:2"]) == 2
    assert cli.main(base + ["--grid", "1:2:0"]) == 2
    capsys.readouterr()
    assert cli.main(base + ["--density", "--grid", "0:2:5"]) == 2
    assert "got 0.0" in capsys.readouterr().err
    assert cli.main(base + ["--tail", "--grid=-1:2:4"]) == 2
    assert "got -1.0" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["nan:1:3", "0:inf:3", "-inf:1:1"])
def test_limit_non_finite_grid_exits_2(tmp_path, capsys, grid) -> None:
    out = tmp_path / "x.csv"
    rc = cli.main(
        [
            "limit", "--r", "1", "--k", "1", "--gamma", "0.0", "--cdf",
            f"--grid={grid}", "--out", str(out),
        ]
    )
    assert rc == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_limit_numeric_error_exits_3(tmp_path, monkeypatch) -> None:
    class Bad:
        err_estimate = 1.0

    monkeypatch.setattr(limitdist, "_cdf_cache", lambda _: Bad())
    rc = cli.main(
        [
            "limit", "--r", "1", "--k", "1", "--gamma", "0.0", "--cdf",
            "--grid", "0:1:3", "--out", str(tmp_path / "x.csv"),
        ]
    )
    assert rc == 3


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------


def test_experiment_end_to_end(tmp_path, capsys) -> None:
    cfg = {
        "k": 1,
        "r": 1,
        "n_list": [64],
        "samples": 120,
        "seed": 9,
        "gamma_target": 0.0,
        "csv_path": str(tmp_path / "rep.csv"),
        "json_path": str(tmp_path / "rep.json"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["experiment", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "n=64" in out and "ks=" in out
    assert (tmp_path / "rep.csv").exists()
    report = json.loads((tmp_path / "rep.json").read_text())
    assert report["config"]["seed"] == 9
    assert report["results"][0]["sample_count"] == 120


def test_experiment_unknown_key_exits_2(tmp_path) -> None:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"k": 1, "n_list": [64], "oops": True}))
    assert cli.main(["experiment", "--config", str(path)]) == 2


def test_experiment_mistyped_config_exits_2(tmp_path, capsys) -> None:
    path = tmp_path / "cfg.json"
    for bad in ({"samples": 2.5}, {"gamma_target": "0.5"}, {"n_list": [100.7]}):
        path.write_text(json.dumps({"k": 1, "n_list": [64], **bad}))
        assert cli.main(["experiment", "--config", str(path)]) == 2
        assert next(iter(bad)) in capsys.readouterr().err


def test_experiment_missing_file_exits_2(tmp_path) -> None:
    assert (
        cli.main(["experiment", "--config", str(tmp_path / "nope.json")]) == 2
    )


def test_experiment_invalid_json_exits_2(tmp_path) -> None:
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    assert cli.main(["experiment", "--config", str(path)]) == 2


# ---------------------------------------------------------------------------
# import graph
# ---------------------------------------------------------------------------

# Run in a fresh interpreter: pytest and the oracles import scipy.  After
# each step no scipy module may be loaded.
_IMPORT_GRAPH = """
import contextlib, io, json, os, sys
sys.path.insert(0, sys.argv[1])
out = sys.argv[2]

def no_scipy():
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    assert not loaded, loaded

import kcut.cutsim
no_scipy()
from kcut import cli
no_scipy()
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["simulate", "--n", "63", "--k", "2", "--samples", "50",
                     "--out", out + "/sim.csv"]) == 0
    no_scipy()
    assert cli.main(["constants", "--k", "2", "--r", "1"]) == 0
    no_scipy()
    assert cli.main(["exact-mean", "--n", "1023", "--k", "2", "--r", "1",
                     "--compare-asymptotic"]) == 0
    no_scipy()
    assert cli.main(["limit", "--r", "1", "--k", "2", "--gamma", "0.3",
                     "--cdf", "--grid=-4:4:9", "--out", out + "/cdf.csv"]) == 0
    no_scipy()
    assert cli.main(["limit", "--r", "2", "--k", "3", "--gamma", "0.9",
                     "--cdf", "--grid=-4:4:9", "--out", out + "/cdf23.csv"]) == 0
    no_scipy()
import kcut.exactmean, kcut.harness, kcut.limitdist
no_scipy()
config = {"k": 2, "r": None, "n_list": [63, 255], "samples": 200, "seed": 3,
          "csv_path": out + "/exp.csv", "json_path": out + "/exp.json"}
with open(out + "/exp.cfg", "w") as fh:
    json.dump(config, fh)
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["experiment", "--config", out + "/exp.cfg"]) == 0
no_scipy()
assert cli.main(["exact-mean", "--n", "127", "--k", "2", "--r", "1"]) == 0
"""


def test_commands_load_only_the_scipy_they_use(tmp_path, capsys) -> None:
    """No command loads any scipy module: simulate, constants,
    exact-mean, limit (at r/k = 1/2 and 2/3) and experiment; exact-mean
    prints what it prints in process."""
    src = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_GRAPH, str(src), str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert cli.main(["exact-mean", "--n", "127", "--k", "2", "--r", "1"]) == 0
    assert done.stdout == capsys.readouterr().out
