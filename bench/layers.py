"""Which public functions the traced run wraps, and the per-layer
metrics computed from their spans.

A metric of a layer the workload does not call reads 0; README.md maps
each metric to the workloads that exercise it.
"""

from __future__ import annotations

import contextlib
import statistics
from collections import defaultdict

import numpy as np

from kcut import cutsim, exactmean, harness, limitdist, series

import spans as sp


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _record_attrs(args, kwargs, result):
    tree = _arg(args, kwargs, 0, "tree")
    return {"nodes": tree.n * _arg(args, kwargs, 3, "n_samples")}


def _process_attrs(args, kwargs, result):
    return {"cuts": int(np.sum(result))}


def _cdf_attrs(args, kwargs, result):
    return {
        "points": int(np.size(_arg(args, kwargs, 0, "w"))),
        "params": repr(_arg(args, kwargs, 1, "p")),
    }


def _xi_attrs(args, kwargs, result):
    scale = _arg(args, kwargs, 0, "scale")
    return {"draws": int(np.size(result)), "size": f"n2e{scale.n.bit_length() - 1}"}


def install(tracer: sp.Tracer) -> None:
    """Wrap the layers' public functions at their module attributes."""
    tracer.wrap(cutsim, "simulate_records_batch", _record_attrs)
    tracer.wrap(cutsim, "simulate_edge_records_batch", _record_attrs)
    tracer.wrap(cutsim, "simulate_process_batch", _process_attrs)
    tracer.wrap(harness, "run_experiment")
    tracer.wrap(harness, "ks_statistic")
    tracer.wrap(exactmean, "expected_records")
    tracer.wrap(series, "constants")
    tracer.wrap(limitdist, "limit_cdf", _cdf_attrs)
    tracer.wrap(limitdist, "xi_sampler_batch", _xi_attrs)


@contextlib.contextmanager
def no_span(name: str):
    yield None


def _total(spans, key=None) -> float:
    return sum(sp.duration(s) if key is None else s[key] for s in spans)


def _rate(spans, key: str) -> float:
    busy = _total(spans)
    return _total(spans, key) / busy if busy > 0 else 0.0


def round_metrics(spans: list[dict]) -> dict:
    by = defaultdict(list)
    for s in spans:
        by[s["name"]].append(s)

    def self_s(name: str) -> float:
        return sum(sp.self_time(s, spans) for s in by[name])

    rec = by["cutsim.simulate_records_batch"]
    proc = by["cutsim.simulate_process_batch"]
    m = {
        "cutsim.simulate_records_batch.s": _total(rec),
        "cutsim.simulate_records_batch.node_samples_per_s": _rate(rec, "nodes"),
        "cutsim.simulate_edge_records_batch.s":
            _total(by["cutsim.simulate_edge_records_batch"]),
        "cutsim.simulate_process_batch.s": _total(proc),
        "cutsim.simulate_process_batch.cuts_per_s": _rate(proc, "cuts"),
        "cli.simulate.self_s": self_s("cli.simulate"),
        "harness.run_experiment.self_s": self_s("harness.run_experiment"),
        "harness.ks_statistic.self_s": self_s("harness.ks_statistic"),
        "harness.thread_overlap": sp.overlap(rec) if rec else 0.0,
        "exactmean.expected_records.s": _total(by["exactmean.expected_records"]),
        "series.constants.s": _total(by["series.constants"]),
    }
    # The first limit_cdf call per parameter set builds the CDF cache.
    cold, warm, seen = [], [], set()
    for s in by["limitdist.limit_cdf"]:
        (warm if s["params"] in seen else cold).append(s)
        seen.add(s["params"])
    m["limitdist.limit_cdf.cold_s"] = _total(cold)
    m["limitdist.limit_cdf.warm_points_per_s"] = _rate(warm, "points")
    # The first xi call per size pays the weights and the centring.
    for size in ("n2e40", "n2e160"):
        calls = [s for s in by["limitdist.xi_sampler_batch"] if s["size"] == size]
        m[f"limitdist.xi_sampler_batch.first_s.{size}"] = (
            sp.duration(calls[0]) if calls else 0.0
        )
        m[f"limitdist.xi_sampler_batch.draws_per_s.{size}"] = _rate(calls[1:], "draws")
    return m


# Timed directly by the workloads, outside the traced rounds.
UNITS = {
    "cutsim.substream.us_per_sample": "us",
    "cutsim.simulate_records_batch.peak_alloc_mb": "MB",
    "limitdist.char_fn.us_per_call": "us",
    "limitdist.xi_sampler_batch.peak_alloc_mb": "MB",
}


def metrics(traced_rounds: list[dict], direct: dict) -> dict:
    """Median over traced rounds of each span metric, plus the direct
    timings; name -> (value, unit)."""
    per_round = [round_metrics(r["spans"]) for r in traced_rounds]
    out = {}
    for name in per_round[0]:
        value = statistics.median(m[name] for m in per_round)
        out[name] = (value, unit_of(name))
    for name in UNITS:
        out[name] = (direct.get(name, 0.0), UNITS[name])
    return out


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if "_per_s" in name:
        return "1/s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("thread_overlap"):
        return "ratio"
    return "s"
