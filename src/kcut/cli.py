"""The ``kcut`` command-line interface.

Subcommands:

- ``simulate``    -- record-count samples to CSV;
- ``exact-mean``  -- exact expected record counts (optionally against
  the asymptotic formula);
- ``constants``   -- the coefficient table for (k, r) as JSON;
- ``limit``       -- limit-law curves (density, tail, characteristic
  function, CDF) on a grid, to CSV;
- ``experiment``  -- the full simulate/rescale/compare pipeline from a
  JSON config file.

Each command loads only the modules it runs, and none loads scipy: the
special functions are numpy code in :mod:`kcut.specfun`.

Exit codes: 0 on success, 2 for configuration problems (bad arguments,
unreadable files, invalid parameter combinations), 3 when a numerical
procedure cannot certify its accuracy target, 4 when memory runs out
(an allocation that numpy or Python refuses).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np

# The handlers of limit and experiment import limitdist and harness in
# their own bodies, so simulate, constants and exact-mean do not load them.
from . import __version__, cutsim, exactmean, series

__all__ = ["main", "build_parser"]


# ---------------------------------------------------------------------------
# Helpers.
# ---------------------------------------------------------------------------


# Lines a block of a CSV that simulate or limit writes: each block is
# formatted (limit: evaluated too) and written before the next, so the
# memory a command takes beyond its arrays does not grow with the output.
_CSV_LINES = 1 << 14


def _write_blocks(path: str, blocks) -> None:
    """Write the strings of ``blocks`` to ``path``, one after another."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for text in blocks:
            fh.write(text)


def _rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _json_table(table: series.ConstantTable) -> dict:
    """ConstantTable as a JSON-ready dict: Fractions become "p/q"
    strings, real numbers stay JSON numbers (exact round-trip)."""

    def key2(pair: tuple[int, int]) -> str:
        return f"{pair[0]},{pair[1]}"

    return {
        "k": table.k,
        "r": table.r,
        "c1": {str(i): float(v) for i, v in sorted(table.c1.items())},
        "c2": float(table.c2),
        "c3": float(table.c3),
        "c5": {key2(k): _rational(v) for k, v in sorted(table.c5.items())},
        "c6": {key2(k): _rational(v) for k, v in sorted(table.c6.items())},
        "c7": {str(i): float(v) for i, v in sorted(table.c7.items())},
        "c8": {key2(k): float(v) for k, v in sorted(table.c8.items())},
        "k0": float(table.k0),
    }


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(
            f"grid must look like start:stop:steps, got {text!r}"
        )
    try:
        start, stop = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError as exc:
        raise ValueError(
            f"grid must look like start:stop:steps, got {text!r}"
        ) from exc
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"grid ends must be finite, got {text!r}")
    if steps < 1:
        raise ValueError(f"grid needs at least one step, got {steps}")
    if steps == 1:
        return np.array([start])
    return np.linspace(start, stop, steps)


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def _cmd_simulate(args: argparse.Namespace) -> int:
    tree = cutsim.CompleteTree(args.n)
    batch = (
        cutsim.simulate_edge_records_batch
        if args.variant == "edge"
        else cutsim.simulate_records_batch
    )
    counts = batch(tree, args.k, args.seed, args.samples)
    # One line per order and one total per sample, as (index, value)
    # pairs, formatted one block of samples at a time.
    samples, k = counts.shape
    lines = "".join(f"%d,{r},%d\n" for r in range(1, k + 1)) + "%d,total,%d\n"
    step = max(1, _CSV_LINES // (k + 1))

    def blocks():
        yield "sample_index,r,count\n"
        for lo in range(0, samples, step):
            part = counts[lo : lo + step]
            pairs = np.empty((len(part), k + 1, 2), dtype=np.int64)
            pairs[:, :, 0] = np.arange(lo, lo + len(part))[:, None]
            pairs[:, :k, 1] = part
            pairs[:, k, 1] = part.sum(axis=1)
            yield (lines * len(part)) % tuple(pairs.ravel().tolist())

    _write_blocks(args.out, blocks())
    print(f"wrote {samples} samples to {args.out}")
    return 0


def _cmd_exact_mean(args: argparse.Namespace) -> int:
    query = exactmean.MeanQuery(
        n=args.n,
        k=args.k,
        r=args.r,
        y=math.inf if args.y is None else args.y,
        variant="edge" if args.edge else "node",
    )
    value = exactmean.expected_records(query)
    print(f"exact {value:.15g}")
    if args.compare_asymptotic:
        approx = exactmean.asymptotic_mean(args.n, args.k, args.r)
        print(f"asymptotic {approx:.15g}")
        print(f"gap {value - approx:.15g}")
    return 0


def _cmd_constants(args: argparse.Namespace) -> int:
    table = series.constants(args.k, args.r)
    print(json.dumps(_json_table(table), indent=2, sort_keys=True))
    return 0


def _cmd_limit(args: argparse.Namespace) -> int:
    from . import limitdist

    p = limitdist.LimitParams(args.r, args.k, args.gamma)
    grid = _parse_grid(args.grid)
    kind = args.kind or "density"
    if kind == "cdf":
        table = series.constants(args.k, args.r)
        header, evaluate = "w,cdf", lambda x: limitdist.limit_cdf(x, p, table)
    elif kind == "cf":
        header, evaluate = "t,real,imag", lambda t: limitdist.char_fn(t, p)
    else:
        fn = limitdist.levy_density if kind == "density" else limitdist.levy_tail
        header, evaluate = f"x,{kind}", lambda x: fn(x, p)
    # The grid is monotone, so its ends are its extremes: any point the
    # function refuses, or a CDF it cannot certify, raises here, before
    # the file is opened.
    evaluate(grid[[0, -1]])

    def blocks():
        yield header + "\n"
        for i in range(0, grid.size, _CSV_LINES):
            x = grid[i : i + _CSV_LINES]
            if kind == "cf":
                yield "".join(
                    f"{t:.17g},{z.real:.17g},{z.imag:.17g}\n"
                    for t, z in zip(x, evaluate(x))
                )
            else:
                yield "".join(f"{w:.17g},{v:.17g}\n" for w, v in zip(x, evaluate(x)))

    _write_blocks(args.out, blocks())
    print(f"wrote {grid.size} rows to {args.out}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from . import harness

    with open(args.config, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    config = harness.ExperimentConfig.from_dict(data)
    report = harness.run_experiment(config)
    for res in report.results:
        print(
            f"n={res.n} gamma_n={res.gamma_n:.6f} "
            f"samples={res.sample_count} ks={res.ks_vs_limit:.6g} "
            f"mean_gap_sigmas={res.mean_gap_sigmas:.3g}"
        )
    for path in harness.write_report(report):
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point.
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kcut",
        description="Simulate the k-cut process on complete binary trees "
        "and evaluate its moments and limit law.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser(
        "simulate", help="draw record-count samples and write them to CSV"
    )
    sim.add_argument("--n", type=int, required=True, help="tree size")
    sim.add_argument("--k", type=int, required=True, help="cut threshold")
    sim.add_argument(
        "--variant", choices=("node", "edge"), default="node"
    )
    sim.add_argument("--samples", type=int, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True, metavar="FILE.csv")
    sim.set_defaults(func=_cmd_simulate)

    em = sub.add_parser(
        "exact-mean", help="exact expected record count by quadrature"
    )
    em.add_argument("--n", type=int, required=True)
    em.add_argument("--k", type=int, required=True)
    em.add_argument("--r", type=int, required=True)
    em.add_argument(
        "--y", type=float, default=None,
        help="condition on the root's removal time",
    )
    em.add_argument("--edge", action="store_true")
    em.add_argument("--compare-asymptotic", action="store_true")
    em.set_defaults(func=_cmd_exact_mean)

    con = sub.add_parser(
        "constants", help="coefficient table for (k, r) as JSON"
    )
    con.add_argument("--k", type=int, required=True)
    con.add_argument("--r", type=int, required=True)
    con.set_defaults(func=_cmd_constants)

    lim = sub.add_parser(
        "limit", help="limit-law curves on a grid, written to CSV"
    )
    lim.add_argument("--r", type=int, required=True)
    lim.add_argument("--k", type=int, required=True)
    lim.add_argument("--gamma", type=float, required=True)
    kind = lim.add_mutually_exclusive_group()
    kind.add_argument(
        "--density", dest="kind", action="store_const", const="density"
    )
    kind.add_argument(
        "--tail", dest="kind", action="store_const", const="tail"
    )
    kind.add_argument("--cf", dest="kind", action="store_const", const="cf")
    kind.add_argument("--cdf", dest="kind", action="store_const", const="cdf")
    lim.add_argument(
        "--grid", required=True, metavar="a:b:steps",
        help="evaluation grid start:stop:steps",
    )
    lim.add_argument("--out", required=True, metavar="FILE.csv")
    lim.set_defaults(func=_cmd_limit, kind=None)

    exp = sub.add_parser(
        "experiment", help="run a configured experiment end to end"
    )
    exp.add_argument("--config", required=True, metavar="FILE.json")
    exp.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ArithmeticError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
