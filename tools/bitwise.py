"""Save the package's outputs to an ``.npz`` file, or compare two saves.

A change that claims to leave every output as it was is checked by
saving on both trees and comparing::

    PYTHONPATH=<parent checkout>/src python tools/bitwise.py save parent.npz
    PYTHONPATH=<changed checkout>/src python tools/bitwise.py save change.npz
    python tools/bitwise.py compare parent.npz change.npz

``save`` imports ``kcut`` from wherever Python finds it, so one copy of
this script serves both trees.  It runs the record, edge, process and
xi batches at ``KCUT_THREADS`` = 1, 2 and 3 with their default and with
small scratch budgets (so that chunks of one row and of a few rows
run), and the record and edge batches with their defaults at every
``(n, k)`` that the tests and the benchmark draw records at;
``limit_cdf`` on ``-400:8:4097``, ``char_fn`` on a 404-point t grid
and ``cdf_certificate`` for seven shapes; ``kcut experiment``'s
CSV for three configurations; and ``rescale_counts``,
``asymptotic_mean`` and ``ScaleParams`` values.  ``--small`` saves a
reduced set in about a second, for a smoke test.  ``compare`` counts
the arrays that differ in dtype or in any value (``np.array_equal``),
prints for each its largest absolute and relative difference (for a CSV
text, per column), and exits 1 if any differ, 0 if none do.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

SHAPES = [
    (1, 2, (-math.log2(5.0)) % 1.0), (1, 1, 0.0), (1, 1, 0.3), (2, 3, 0.9),
    (3, 4, 0.6), (7, 8, 0.3), (1, 8, 0.5),
]

# What ``save`` runs: the full set, and the reduced one of ``--small``.
FULL = {
    "threads": ("1", "2", "3"),
    "budgets": (None, 1, 2000),  # _SCRATCH_VALUES of the process batch
    "process_n": (4, 255, 256, 1023),
    "pieces": (None, 1, 3000),  # _RECORD_VALUES of the record batches
    "record_n": (4, 63, 300, 1023, 5037),
    "ks": (1, 2, 3),
    "chunks": (None, 1, 7),
    # (n, k) of every record draw in the tests and bench/.
    "record_sizes": (
        (1, 1), (2, 1), (3, 1), (3, 2), (3, 256), (4, 2), (7, 2), (10, 2),
        (15, 1), (15, 2), (16, 2), (20, 2), (21, 3), (31, 2), (63, 2),
        (63, 3), (127, 2), (129, 2), (255, 1), (255, 2), (255, 3), (256, 2),
        (300, 2), (600, 3), (1023, 2), (1024, 1), (1024, 2), (2047, 2),
        (2048, 2), (2100, 2), (4100, 3), (5037, 2), (6483, 1), (14116, 1),
        (16384, 2), (23822, 2), (32767, 2), (32768, 1), (32768, 2),
        (51268, 2), (65536, 1), (2**18 - 1, 2), (2**18, 2),
    ),
    "xi_budgets": (None, 1, 50_000),  # _XI_CHUNK_VALUES
    "xi_lg": (20, 40, 160),
    "xi_shapes": ((1, 1), (1, 2), (2, 3)),
    "shapes": SHAPES,
    "grid_points": 4097,
    "experiments": (("node", None), ("node", 1), ("edge", 2)),
    "experiment_n": [63, 1023, 5037],
    "experiment_samples": 400,
    "scale_k": range(1, 9),
}
SMALL = {
    "threads": ("1", "2"),
    "budgets": (None,),
    "process_n": (4,),
    "pieces": (None,),
    "record_n": (63, 1023),
    "ks": (2,),
    "chunks": (None, 7),
    "record_sizes": ((63, 3), (5037, 2)),
    "xi_budgets": (None,),
    "xi_lg": (40,),
    "xi_shapes": ((1, 2),),
    "shapes": SHAPES[:1],
    "grid_points": 257,
    "experiments": (("node", None),),
    "experiment_n": [63],
    "experiment_samples": 100,
    "scale_k": (2,),
}


@contextlib.contextmanager
def _patched(module, name: str, value):
    """Set ``module.name`` to ``value`` (None: leave it) for the block."""
    old = getattr(module, name)
    if value is not None:
        setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, old)


def _batches(plan: dict, threads: str, out: dict) -> None:
    from kcut import cutsim, limitdist
    from kcut.cutsim import CompleteTree

    for budget in plan["budgets"]:
        with _patched(cutsim, "_SCRATCH_VALUES", budget):
            for n in plan["process_n"]:
                for k in plan["ks"]:
                    out[f"process-{threads}-{budget}-{n}-{k}"] = (
                        cutsim.simulate_process_batch(
                            CompleteTree(n), k, 5, 60, first_index=2**64 - 7
                        )
                    )
    for piece in plan["pieces"]:
        with _patched(cutsim, "_RECORD_VALUES", piece):
            for n in plan["record_n"]:
                samples = 200 if n < 1000 else 24
                for k in plan["ks"]:
                    for chunk in plan["chunks"]:
                        for name, batch in (
                            ("node", cutsim.simulate_records_batch),
                            ("edge", cutsim.simulate_edge_records_batch),
                        ):
                            out[f"{name}-{threads}-{piece}-{n}-{k}-{chunk}"] = batch(
                                CompleteTree(n), k, 11, samples, first_index=3,
                                chunk=chunk,
                            )
    for n, k in plan["record_sizes"]:
        samples = max(2, min(64, (1 << 17) // n))
        for name, batch in (
            ("node", cutsim.simulate_records_batch),
            ("edge", cutsim.simulate_edge_records_batch),
        ):
            out[f"{name}-{threads}-size-{n}-{k}"] = batch(
                CompleteTree(n), k, 13, samples, first_index=2**64 - 1
            )
    for budget in plan["xi_budgets"]:
        with _patched(limitdist, "_XI_CHUNK_VALUES", budget):
            for lg in plan["xi_lg"]:
                for r, k in plan["xi_shapes"]:
                    scale = limitdist.ScaleParams.from_n(1 << lg, k)
                    p = limitdist.LimitParams(r, k, scale.gamma)
                    draws = 40 if lg == 160 else 120
                    out[f"xi-{threads}-{budget}-{lg}-{r}-{k}"] = (
                        limitdist.xi_sampler_batch(
                            scale, p, None, 9, draws, first_index=5
                        )
                    )


def _limit_law(plan: dict, threads: str, out: dict) -> None:
    from kcut import limitdist

    grid = np.linspace(-400.0, 8.0, plan["grid_points"])
    t = np.concatenate([[0.0, 1e-10, 3e-7, 0.004], np.geomspace(0.01, 3e3, 400)])
    for r, k, g in plan["shapes"]:
        p = limitdist.LimitParams(r, k, g)
        out[f"cdf-{threads}-{r}-{k}-{g}"] = limitdist.limit_cdf(grid, p)
        out[f"cf-{threads}-{r}-{k}-{g}"] = limitdist.char_fn(t, p)
        cert = limitdist.cdf_certificate(p)
        out[f"cert-{threads}-{r}-{k}-{g}"] = np.array(
            [cert["cdf_err_estimate"], cert["cdf_t_max"], cert["cdf_panels"]]
        )


def _experiments(plan: dict, threads: str, out: dict) -> None:
    from kcut import cli

    with tempfile.TemporaryDirectory() as tmp:
        csv_path = os.path.join(tmp, "out.csv")
        cfg_path = os.path.join(tmp, "cfg.json")
        for variant, r in plan["experiments"]:
            config = {
                "k": 2, "r": r, "variant": variant, "n_list": plan["experiment_n"],
                "samples": plan["experiment_samples"], "seed": 31,
                "csv_path": csv_path,
            }
            with open(cfg_path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli.main(["experiment", "--config", cfg_path])
            if status != 0:
                raise RuntimeError(f"kcut experiment failed on {config}")
            with open(csv_path, encoding="utf-8") as fh:
                out[f"experiment-{threads}-{variant}-{r}"] = np.array(fh.read())


def _scalars(plan: dict, out: dict) -> None:
    from kcut import cutsim, exactmean, limitdist

    counts = np.arange(0.0, 400.0, 7.0)
    for k in plan["scale_k"]:
        for n in (4, 63, 5037, 2**40 + 3):
            for r in [None, *range(1, k + 1)]:
                out[f"rescale-{k}-{n}-{r}"] = np.asarray(
                    cutsim.rescale_counts(counts, r, k, n)
                )
                if r is not None:
                    out[f"asym-{k}-{n}-{r}"] = np.array(
                        exactmean.asymptotic_mean(n, k, r)
                    )
        for lg in (4, 20, 40, 160, 1100):
            sc = limitdist.ScaleParams.from_n(1 << lg, k)
            out[f"scale-{k}-{lg}"] = np.array(
                [sc.m, sc.L, sc.alpha, sc.beta, sc.gamma]
            )


def save(path: str, small: bool = False) -> int:
    """Write every output of the plan to ``path``; return the count."""
    plan = SMALL if small else FULL
    out: dict[str, np.ndarray] = {}
    old = os.environ.get("KCUT_THREADS")
    try:
        for threads in plan["threads"]:
            os.environ["KCUT_THREADS"] = threads
            _batches(plan, threads, out)
            _limit_law(plan, threads, out)
            _experiments(plan, threads, out)
    finally:
        if old is None:
            os.environ.pop("KCUT_THREADS", None)
        else:
            os.environ["KCUT_THREADS"] = old
    _scalars(plan, out)
    np.savez(path, **out)
    return len(out)


def compare(path_a: str, path_b: str) -> list[str]:
    """Names of the arrays that differ between two saves, in dtype or in
    any value.  The saves must hold the same names."""
    with np.load(path_a) as a, np.load(path_b) as b:
        odd = sorted(set(a.files) ^ set(b.files))
        if odd:
            raise ValueError(f"the saves hold different arrays: {odd}")
        return [
            name for name in a.files
            if not (a[name].dtype == b[name].dtype and np.array_equal(a[name], b[name]))
        ]


def _gaps(a: np.ndarray, b: np.ndarray) -> str:
    """Largest absolute and relative difference of ``b`` from ``a``."""
    if a.dtype.kind in "biu":
        a, b = a.astype(float), b.astype(float)
    gap = np.abs(a - b)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(gap == 0.0, 0.0, gap / np.abs(a))
    return f"abs {np.nanmax(gap, initial=0.0):.3g} rel {np.nanmax(rel, initial=0.0):.3g}"


def describe(a: np.ndarray, b: np.ndarray) -> str:
    """How two arrays that differ do: their dtypes or shapes if those
    differ, else their largest gaps; a CSV text (one string, a header
    row, numeric cells) per column that differs."""
    if a.dtype.kind == b.dtype.kind == "U":
        return _csv_gaps(str(a), str(b))
    if a.dtype != b.dtype or a.shape != b.shape:
        return f"{a.dtype}{a.shape} against {b.dtype}{b.shape}"
    return _gaps(a, b)


def _csv_gaps(a: str, b: str) -> str:
    rows_a, rows_b = a.splitlines(), b.splitlines()
    if rows_a[0] != rows_b[0] or len(rows_a) != len(rows_b):
        return "text with other rows or columns"
    va, vb = (
        np.array([row.split(",") for row in rows[1:]], dtype=float)
        for rows in (rows_a, rows_b)
    )
    return "; ".join(
        f"{name} {_gaps(va[:, j], vb[:, j])}"
        for j, name in enumerate(rows_a[0].split(","))
        if not np.array_equal(va[:, j], vb[:, j], equal_nan=True)
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    s = sub.add_parser("save", help="save the outputs to an .npz file")
    s.add_argument("out", metavar="OUT.npz")
    s.add_argument("--small", action="store_true", help="the reduced set")
    c = sub.add_parser("compare", help="count the arrays that differ")
    c.add_argument("a", metavar="A.npz")
    c.add_argument("b", metavar="B.npz")
    args = parser.parse_args(argv)
    if args.mode == "save":
        print(save(args.out, args.small), "arrays saved")
        return 0
    differ = compare(args.a, args.b)
    with np.load(args.a) as a, np.load(args.b) as b:
        print(f"{len(a.files)} arrays, {len(differ)} differ")
        for name in differ:
            print(f"  {name}: {describe(a[name], b[name])}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
