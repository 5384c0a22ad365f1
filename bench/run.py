"""kcut benchmark: one workload per run, in a fresh process.

    python3 bench/run.py --workload simulate --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The run times the set-up (child interpreters importing numpy,
scipy and kcut, then building the inputs), then runs whole rounds of the
workload's operations until ``--seconds`` have passed (at least one
round), checks the outputs of the last round, and prints one JSON line:
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median round),
``setup_s`` and ``peak_rss_mb``.  ``--trace 1`` runs untraced rounds for
``--seconds``, then traced rounds for ``--seconds``, writes the spans to
``bench/out/`` and reports the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One thread per BLAS/OpenMP pool: all load comes from the workload's own
# threads.  Set before numpy is imported, here and in the set-up children.
for _var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("simulate", "experiment", "limit_law")

_IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import numpy, scipy, kcut.cli\n"
    "print(time.perf_counter() - t)\n"
)


def time_imports() -> float:
    """Median seconds a fresh interpreter takes to import the package."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kcut" / "__init__.py").is_file():
        print(f"error: no kcut package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    OUT.mkdir(exist_ok=True)

    import_s = time_imports()

    import layers
    import workloads
    from spans import Tracer

    workload = workloads.WORKLOADS[args.workload]
    build_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = workload.setup(args.seed, OUT)
        build_times.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(build_times)

    ops = workloads.Ops()

    def rounds(tracer):
        """Whole rounds until the run length has passed; per round the
        wall time, CPU time, spans and outputs."""
        done = []
        begin = time.perf_counter()
        while not done or time.perf_counter() - begin < args.seconds:
            workloads.clear_caches()
            if tracer is not None:
                first_span = len(tracer.spans)
                layers.install(tracer)
            span = tracer.span if tracer is not None else layers.no_span
            cpu0, t0 = cpu_seconds(), time.perf_counter()
            try:
                with contextlib.redirect_stdout(sys.stderr):
                    out = workload.round(inputs, ops, span)
            finally:
                if tracer is not None:
                    tracer.unwrap()
            wall = time.perf_counter() - t0
            done.append(
                {
                    "wall": wall,
                    "cpu": cpu_seconds() - cpu0,
                    "out": out,
                    "spans": tracer.spans[first_span:] if tracer else None,
                }
            )
        return done

    plain = rounds(None)
    traced = []
    if args.trace:
        tracer = Tracer()
        traced = rounds(tracer)
        direct = workload.direct(inputs)
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json")

    correct = ops.failed == 0
    for err in ops.errors:
        print(f"failed operation: {err}", file=sys.stderr)
    last = (traced or plain)[-1]["out"]
    try:
        workload.check(inputs, last)
    except Exception as exc:  # any check error makes the run incorrect
        print(f"check failed: {exc!r}", file=sys.stderr)
        correct = False

    plain_wall = statistics.median(r["wall"] for r in plain)
    if args.trace:
        metrics = layers.metrics(traced, direct)
        metrics["run.cpu_s"] = (statistics.median(r["cpu"] for r in plain), "s")
        metrics["trace.overhead_s"] = (
            statistics.median(r["wall"] for r in traced) - plain_wall, "s"
        )
    else:
        metrics = {
            "wall_s": (plain_wall, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
            ),
        }
    result = {
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(
        f"{args.workload}: {len(plain)} untraced and {len(traced)} traced "
        f"rounds; wall, cpu per round: "
        f"{[(round(r['wall'], 3), round(r['cpu'], 2)) for r in plain + traced]}",
        file=sys.stderr,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
