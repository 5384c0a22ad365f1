"""The benchmark's three workloads.

Each workload builds its inputs from the seed (``setup``), runs one
round of operations through public functions of ``kcut`` (``round``),
and checks the outputs of the last round (``check``).  A round starts
with every ``lru_cache`` of the package emptied, so each round pays the
cold cache builds that every ``kcut`` process pays.  ``direct`` times the
layers too cheap or too internal to wrap, after a traced round.
"""

from __future__ import annotations

import csv
import math
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from kcut import cli, cutsim, exactmean, harness, limitdist, series

import checks

K = 2
# gamma = frac(-lg 5), the subsequence parameter of n = 2**40 and
# n = 2**160 (acceptance check 11a's ladder).  Taken from ScaleParams so
# that every LimitParams built here hashes alike and shares one CDF cache.
GAMMA = limitdist.ScaleParams.from_n(1 << 160, K).gamma


class Ops:
    """Counts the operations a run attempts and those that fail."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            self.errors.append(f"{getattr(fn, '__name__', fn)}: {exc!r}")
            return None

    def cli(self, argv: list[str]) -> None:
        code = self.call(cli.main, argv)
        if code not in (0, None):
            self.failed += 1
            self.errors.append(f"kcut {argv[0]} exited {code}")


def clear_caches() -> None:
    """Empty every lru_cache found on a module of the package."""
    from kcut import specfun

    for module in (cli, cutsim, exactmean, harness, limitdist, series, specfun):
        for obj in vars(module).values():
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                clear()


def _read_counts(path: Path, k: int) -> np.ndarray:
    """Per-order counts from a ``kcut simulate`` CSV, shape (samples, k);
    also checks each ``total`` row against the sum of its orders."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["sample_index", "r", "count"] or (len(rows) - 1) % (k + 1):
        checks.fail(f"{path.name}: unexpected CSV layout")
    body = np.array([row[2] for row in rows[1:]], dtype=np.int64).reshape(-1, k + 1)
    if not np.array_equal(body[:, :k].sum(axis=1), body[:, k]):
        checks.fail(f"{path.name}: a total row is not the sum of its orders")
    return body[:, :k]


def _seed(seed: int, stream: int) -> int:
    return seed * 100 + stream


# ---------------------------------------------------------------------------
# simulate: the `kcut simulate` path and the direct process.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimInputs:
    runs: tuple  # (label, n, variant, samples, seed, path)
    process_tree: cutsim.CompleteTree
    process_samples: int
    process_seed: int
    seed: int


class Simulate:
    """Large tree (n = 2**15 - 1): exponential draws and the level sweep
    dominate.  Small tree (n = 63) with many samples: one Philox
    substream per sample dominates.  Process batch at n = 255 against
    the record totals at n = 255."""

    name = "simulate"
    LARGE_N, LARGE_SAMPLES = (1 << 15) - 1, 256
    SMALL_N, SMALL_SAMPLES = 63, 20000
    MID_N, MID_SAMPLES = 255, 2000

    def setup(self, seed: int, out: Path) -> SimInputs:
        runs = (
            ("large-node", self.LARGE_N, "node", self.LARGE_SAMPLES, _seed(seed, 1)),
            ("large-edge", self.LARGE_N, "edge", self.LARGE_SAMPLES, _seed(seed, 1)),
            ("small-node", self.SMALL_N, "node", self.SMALL_SAMPLES, _seed(seed, 2)),
            ("mid-node", self.MID_N, "node", self.MID_SAMPLES, _seed(seed, 3)),
        )
        return SimInputs(
            runs=tuple(r + (out / f"simulate-{r[0]}.csv",) for r in runs),
            process_tree=cutsim.CompleteTree(self.MID_N),
            process_samples=self.MID_SAMPLES,
            process_seed=_seed(seed, 4),
            seed=seed,
        )

    def round(self, inp: SimInputs, ops: Ops, span) -> dict:
        for _label, n, variant, samples, seed, path in inp.runs:
            with span("cli.simulate"):
                ops.cli(
                    [
                        "simulate", "--n", str(n), "--k", str(K),
                        "--variant", variant, "--samples", str(samples),
                        "--seed", str(seed), "--out", str(path),
                    ]
                )
        totals = ops.call(
            cutsim.simulate_process_batch,
            inp.process_tree, K, inp.process_seed, inp.process_samples,
        )
        return {"process": totals}

    def check(self, inp: SimInputs, out: dict) -> None:
        counts = {}
        for label, n, variant, samples, seed, path in inp.runs:
            c = _read_counts(path, K)
            if c.shape[0] != samples:
                checks.fail(f"{label}: {c.shape[0]} rows, asked for {samples}")
            checks.records_monotone(c)
            for r in range(1, K + 1):
                exact = exactmean.expected_records(
                    exactmean.MeanQuery(n=n, k=K, r=r, variant=variant)
                )
                checks.mean_near_exact(c[:, r - 1], exact, f"{label} r={r}")
            counts[label] = c
        checks.same_law(
            out["process"], counts["mid-node"].sum(axis=1),
            "process vs record totals at n=255",
        )
        # Re-draw a window on each side of a seed-chosen split point.
        rng = np.random.default_rng(inp.seed)
        small = counts["small-node"]
        split = int(rng.integers(1, small.shape[0]))
        lo = max(0, split - 64)
        tree = cutsim.CompleteTree(self.SMALL_N)
        seed = inp.runs[2][4]
        for first, size in ((lo, split - lo), (split, 64)):
            part = cutsim.simulate_records_batch(tree, K, seed, size, first_index=first)
            checks.same_rows(small, part, first, "small-node split")

    def direct(self, inp: SimInputs) -> dict:
        tree = cutsim.CompleteTree(self.LARGE_N)
        return {
            "cutsim.substream.us_per_sample": time_substream(inp.seed),
            "cutsim.simulate_records_batch.peak_alloc_mb":
                records_peak_mb(tree, inp.seed),
        }


def time_substream(seed: int, count: int = 4000) -> float:
    start = time.perf_counter()
    for i in range(count):
        cutsim.substream(seed, i)
    return (time.perf_counter() - start) / count * 1e6


def peak_alloc_mb(fn, *args, **kwargs) -> float:
    """Peak bytes allocated during one call, in MB, by tracemalloc."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / float(1 << 20)
    finally:
        tracemalloc.stop()


def records_peak_mb(tree: cutsim.CompleteTree, seed: int) -> float:
    """One chunk of the record batch, with the chunk the CLI and the
    harness pass; the peak of a call is that of its largest chunk."""
    chunk = max(16, (1 << 22) // tree.n)
    return peak_alloc_mb(
        cutsim.simulate_records_batch, tree, K, seed, chunk, chunk=chunk
    )


# ---------------------------------------------------------------------------
# experiment: harness.run_experiment on the k-cut number itself.
# ---------------------------------------------------------------------------


class Experiment:
    """k = 2, total across record orders, node variant, three sizes on
    the gamma = frac(-lg 5) ladder inside [2**12, 2**16], two threads.
    2048 samples make two 1024-sample blocks per size, so both threads
    work on every size."""

    name = "experiment"

    def setup(self, seed: int, out: Path) -> harness.ExperimentConfig:
        return harness.ExperimentConfig(
            k=K, r=None, variant="node", gamma_target=GAMMA,
            n_min=1 << 12, n_max=1 << 16, n_count=3,
            samples=2048, seed=_seed(seed, 5), threads=2,
        )

    def round(self, config, ops: Ops, span) -> dict:
        return {"report": ops.call(harness.run_experiment, config)}

    def check(self, config, out: dict) -> None:
        results = out["report"].results
        checks.sizes_on_subsequence(
            [res.n for res in results], config.gamma_target, config.delta
        )
        if len(results) != config.n_count:
            checks.fail(f"{len(results)} sizes, asked for {config.n_count}")
        checks.experiment_results(results)

    def direct(self, config) -> dict:
        tree = cutsim.CompleteTree(max(config.sizes()))
        return {
            "cutsim.substream.us_per_sample": time_substream(config.seed),
            "cutsim.simulate_records_batch.peak_alloc_mb":
                records_peak_mb(tree, config.seed),
            "limitdist.char_fn.us_per_call": time_char_fn(
                limitdist.LimitParams(1, K, config.gamma_target)
            ),
        }


def time_char_fn(p: limitdist.LimitParams, count: int = 12) -> float:
    ts = np.linspace(0.5, 24.0, count)
    limitdist.char_fn(float(ts[0]), p)
    start = time.perf_counter()
    for t in ts:
        limitdist.char_fn(float(t), p)
    return (time.perf_counter() - start) / count * 1e6


# ---------------------------------------------------------------------------
# limit_law: `kcut limit --cdf` and acceptance check 11a's route.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LimitInputs:
    p: limitdist.LimitParams
    grid_path: Path
    scales: tuple  # (label, ScaleParams, seed, block sizes)


class LimitLaw:
    """(r, k) = (1, 2) at gamma = frac(-lg 5): a cold `kcut limit --cdf`
    on a grid, then xi draws at n = 2**40 and 2**160 in blocks (the first
    block pays the centring quadrature), then KS of each draw set
    against the warm limit CDF.

    The KS at 2**160 is a bias of 0.041 plus noise, so the draw count
    sets how often a correct program fails the 0.05 check.  Over blocks
    of one pool, 4096 draws gave 0.045 +- 0.005 (up to 0.054) and 8192
    gave 0.043 +- 0.003; 20 736 draws put 0.05 about four standard
    deviations out."""

    name = "limit_law"
    GRID = "-400:8:4097"
    FIRST_BLOCK = 256
    BLOCK = 2048

    def setup(self, seed: int, out: Path) -> LimitInputs:
        scales = []
        for e, blocks in ((40, 2), (160, 10)):
            sizes = [self.FIRST_BLOCK] + [self.BLOCK] * blocks
            scale = limitdist.ScaleParams.from_n(1 << e, K)
            scales.append((f"n2e{e}", scale, _seed(seed, 6 + e), tuple(sizes)))
        return LimitInputs(
            p=limitdist.LimitParams(1, K, GAMMA),
            grid_path=out / "limit-cdf.csv",
            scales=tuple(scales),
        )

    def round(self, inp: LimitInputs, ops: Ops, span) -> dict:
        p = inp.p
        ops.cli(
            [
                "limit", "--r", str(p.r), "--k", str(p.k), "--gamma", repr(p.gamma),
                "--cdf", f"--grid={self.GRID}", "--out", str(inp.grid_path),
            ]
        )
        table = series.constants(p.k, p.r)
        out = {}
        for label, scale, seed, sizes in inp.scales:
            parts, start = [], 0
            for size in sizes:
                parts.append(
                    ops.call(
                        limitdist.xi_sampler_batch, scale, p, table, seed, size,
                        first_index=start,
                    )
                )
                start += size
            draws = np.concatenate(parts)
            seen = {}

            def cdf(w, seen=seen):
                seen["w"], seen["f"] = w, limitdist.limit_cdf(w, p, table)
                return seen["f"]

            ks = ops.call(harness.ks_statistic, draws, cdf)
            out[label] = (draws, ks, seen)
        return out

    def check(self, inp: LimitInputs, out: dict) -> None:
        with open(inp.grid_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["w", "cdf"]:
            checks.fail("limit CSV has an unexpected header")
        grid = np.array(rows[1:], dtype=float)
        checks.cdf_grid(grid[:, 0], grid[:, 1])
        stats = {}
        for label, (draws, ks, seen) in out.items():
            if not np.array_equal(seen["w"], np.sort(draws)):
                checks.fail(f"{label}: the CDF was not evaluated at the sorted draws")
            mine = checks.ks_one_sample(draws, seen["f"])
            if not math.isclose(mine, ks, rel_tol=1e-12, abs_tol=1e-15):
                checks.fail(f"{label}: harness KS {ks} differs from {mine}")
            stats[label] = mine
        checks.ks_at_most(stats["n2e160"], checks.XI_KS_MAX, "xi at 2**160")
        checks.ks_falls(stats["n2e40"], stats["n2e160"], "xi from 2**40 to 2**160")

    def direct(self, inp: LimitInputs) -> dict:
        """The xi peak is that of one full sampler chunk at 2**160."""
        _label, scale, seed, _sizes = inp.scales[-1]
        return {
            "limitdist.char_fn.us_per_call": time_char_fn(inp.p),
            "limitdist.xi_sampler_batch.peak_alloc_mb": peak_alloc_mb(
                limitdist.xi_sampler_batch, scale, inp.p, None, seed, self.BLOCK
            ),
        }


WORKLOADS = {w.name: w for w in (Simulate(), Experiment(), LimitLaw())}
