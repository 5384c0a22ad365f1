"""Tests for the tree structure, simulators, and rescaling."""

from __future__ import annotations

import math
import os
import sys
import tracemalloc
from fractions import Fraction as F
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcut import cutsim, exactmean, harness, limitdist, series
from kcut.cutsim import CompleteTree
from oracles import (
    brute_force_distribution,
    height,
    simulate_process,
    subtree_size,
)


# ---------------------------------------------------------------------------
# Tree geometry.
# ---------------------------------------------------------------------------


def test_tree_heights() -> None:
    assert height(12, 1) == 0
    assert height(12, 2) == height(12, 3) == 1
    assert height(12, 7) == 2
    assert height(12, 12) == 3
    assert CompleteTree(12).max_height == 3
    with pytest.raises(ValueError):
        height(12, 0)
    with pytest.raises(ValueError):
        height(12, 13)
    for bad in (0, True, 7.5, "7"):
        with pytest.raises(ValueError):
            CompleteTree(bad)
    tree = CompleteTree(np.int64(7))
    assert type(tree.n) is int
    assert tree.size_classes() == CompleteTree(7).size_classes()


def test_level_counts_partition_nodes() -> None:
    """``size_classes`` expanded in order gives every node's subtree
    size in heap order, and level h holds 2**h nodes in at most three
    classes (the last level ``n - 2**m + 1``)."""
    for n in range(1, 301):
        levels = CompleteTree(n).size_classes()
        m = len(levels) - 1
        assert m == CompleteTree(n).max_height
        sizes = [z for level in levels for z, c in level for _ in range(c)]
        assert sizes == [subtree_size(n, v) for v in range(1, n + 1)], n
        for h, level in enumerate(levels):
            assert 1 <= len(level) <= 3
            want = (1 << h) if h < m else n - (1 << m) + 1
            assert sum(c for _, c in level) == want, (n, h)
    for n in ((1 << 1100), 10**50 + 7):
        levels = CompleteTree(n).size_classes()
        assert sum(c for level in levels for _, c in level) == n


@given(
    n=st.integers(min_value=1, max_value=1 << 20),
    i=st.integers(min_value=1, max_value=1 << 20),
)
@settings(max_examples=300, deadline=None)
def test_subtree_size_recursion(n: int, i: int) -> None:
    if i > n:
        return
    left = subtree_size(n, 2 * i) if 2 * i <= n else 0
    right = subtree_size(n, 2 * i + 1) if 2 * i + 1 <= n else 0
    assert subtree_size(n, i) == 1 + left + right


def test_subtree_size_whole_tree() -> None:
    assert subtree_size(1000, 1) == 1000


# ---------------------------------------------------------------------------
# Brute-force oracle.
# ---------------------------------------------------------------------------


def test_brute_force_known_pmfs() -> None:
    assert brute_force_distribution(1, 2) == {2: F(1)}
    assert brute_force_distribution(2, 1) == {1: F(1, 2), 2: F(1, 2)}
    assert brute_force_distribution(3, 1) == {
        1: F(1, 3),
        2: F(1, 3),
        3: F(1, 3),
    }


def test_brute_force_mean_is_harmonic_sum() -> None:
    pmf = brute_force_distribution(3, 1)
    assert sum(t * p for t, p in pmf.items()) == 2


def test_brute_force_probabilities_sum_to_one() -> None:
    for n in (1, 2, 3, 4):
        for k in (1, 2, 3):
            pmf = brute_force_distribution(n, k)
            assert sum(pmf.values()) == 1
            assert min(pmf) >= k
            assert max(pmf) <= k * n


def test_brute_force_caps() -> None:
    with pytest.raises(ValueError):
        brute_force_distribution(5, 1)
    with pytest.raises(ValueError):
        brute_force_distribution(2, 4)


# ---------------------------------------------------------------------------
# Record simulators.
# ---------------------------------------------------------------------------


def test_records_root_always_counts() -> None:
    for seed in range(20):
        (counts,) = cutsim.simulate_records_batch(CompleteTree(9), 3, seed, 1)
        assert (counts >= 1).all()
        assert 3 <= counts.sum() <= 3 * 9


def test_records_single_node_tree() -> None:
    counts = cutsim.simulate_records_batch(CompleteTree(1), 4, 0, 1)
    assert counts.tolist() == [[1, 1, 1, 1]]
    assert counts.sum() == 4


def test_records_mean_two_nodes() -> None:
    """n=2, k=1: the child is a record with probability 1/2."""
    totals = cutsim.simulate_records_batch(
        CompleteTree(2), 1, seed=9, n_samples=40_000
    ).sum(axis=1)
    se = totals.std(ddof=1) / math.sqrt(totals.size)
    assert totals.mean() == pytest.approx(1.5, abs=4 * se)


def test_edge_records_degenerate_cases() -> None:
    single = cutsim.simulate_edge_records_batch(CompleteTree(1), 2, 0, 1)
    assert single.sum() == 0
    for seed in range(10):
        counts = cutsim.simulate_edge_records_batch(
            CompleteTree(2), 3, seed, 1
        )
        assert counts.sum() == 3


def test_edge_records_bounds() -> None:
    tot = cutsim.simulate_edge_records_batch(
        CompleteTree(10), 2, seed=3, n_samples=500
    ).sum(axis=1)
    assert (tot >= 0).all() and (tot <= 2 * 9).all()


def test_records_batch_split_invariance() -> None:
    tree = CompleteTree(15)
    whole = cutsim.simulate_records_batch(tree, 2, seed=7, n_samples=100)
    head = cutsim.simulate_records_batch(tree, 2, seed=7, n_samples=60)
    tail = cutsim.simulate_records_batch(
        tree, 2, seed=7, n_samples=40, first_index=60
    )
    assert np.array_equal(whole, np.vstack([head, tail]))
    again = cutsim.simulate_records_batch(
        tree, 2, seed=7, n_samples=100, chunk=13
    )
    assert np.array_equal(whole, again)


@pytest.mark.parametrize(
    "split",
    [{}, {"chunk": 5, "threads": 2}],
    ids=["whole", "chunk5-threads2"],
)
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [21, 31, 600, 4100])
def test_records_batch_matches_naive_sweep(
    n: int, k: int, split, monkeypatch
) -> None:
    """Both variants equal a per-node loop over the same order-major
    uniforms: with ``P_{r,v} = U_{1,v} ... U_{r,v}``, ``v`` is an
    r-record iff ``P_{r,v}`` exceeds the largest k-th product of its
    proper ancestors (0 if none), the root excluded in the edge variant,
    where the root itself never counts.  n = 21, 600 and 4100 leave the
    last level part full; chunks of 5 on two workers (threaded here
    despite the short rows) put the per-order counts of one batch across
    chunk and worker boundaries.  Rows of 600 and 4100 nodes are drawn
    per sample, by default in one cache-sized piece a worker, and rows
    of 4100 nodes, above ``_COUNT_ROW``, are counted one call a row."""
    monkeypatch.setattr(cutsim, "_MIN_THREADED_ROW", 1)
    tree, seed, first = CompleteTree(n), 4, 5
    node = cutsim.simulate_records_batch(tree, k, seed, 12, first, **split)
    edge = cutsim.simulate_edge_records_batch(tree, k, seed, 12, first, **split)
    for i in range(12):
        u = cutsim.substream(seed, first + i).random((k, tree.n))
        p = np.cumprod(u, axis=0)
        want_node, want_edge = np.zeros(k, int), np.zeros(k, int)
        for v in range(1, tree.n + 1):
            above = [p[k - 1, (v >> s) - 1] for s in range(1, v.bit_length())]
            want_node += p[:, v - 1] > max(above, default=0.0)
            if v > 1:
                want_edge += p[:, v - 1] > max(above[:-1], default=0.0)
        assert node[i].tolist() == want_node.tolist()
        assert edge[i].tolist() == want_edge.tolist()


def test_records_batch_sweeps_chunks_in_pieces(monkeypatch) -> None:
    """A chunk of more rows than fit ``_RECORD_VALUES`` is swept piece by
    piece with the same counts: pieces of one row give the default's
    output, for rows drawn by lanes (n = 21, k = 2: one shared chunk)
    and rows drawn per sample in chunks of 7 on two workers (n = 600)."""
    batches = (cutsim.simulate_records_batch, cutsim.simulate_edge_records_batch)
    cases = [(21, {}), (600, {"chunk": 7, "threads": 2})]
    want = [batch(CompleteTree(n), 2, 4, 40, 5, **split)
            for n, split in cases for batch in batches]
    monkeypatch.setattr(cutsim, "_RECORD_VALUES", 1)
    got = [batch(CompleteTree(n), 2, 4, 40, 5, **split)
           for n, split in cases for batch in batches]
    for w, g in zip(want, got):
        assert np.array_equal(w, g)


def test_batch_rejects_bad_k() -> None:
    tree = CompleteTree(7)
    for k in (0, True, 2.0):
        with pytest.raises(ValueError, match="k must be"):
            cutsim.simulate_records_batch(tree, k, 1, 2)
        with pytest.raises(ValueError, match="k must be"):
            cutsim.simulate_process_batch(tree, k, 1, 2)
    # A record batch multiplies k uniforms per node, at most 256 of them.
    # At k = 256 the root of n = 3 is a record of every order.
    for batch, least, most in (
        (cutsim.simulate_records_batch, 1, 3),
        (cutsim.simulate_edge_records_batch, 0, 2),
    ):
        with pytest.raises(ValueError, match="k must be at most 256 .*got 257"):
            batch(tree, 257, 1, 2)
        counts = batch(CompleteTree(3), 256, 1, 2)
        assert counts.shape == (2, 256)
        assert least <= counts.min() and counts.max() <= most


def test_batches_reject_bool_and_non_integer_counts_and_seeds() -> None:
    """Every batch takes ``n_samples``, ``seed``, ``first_index`` and
    ``chunk`` as integers: a bool or a float raises a ValueError naming
    the parameter, as do a negative count and a chunk below 1, and a
    negative seed keeps its 64-bit mask."""
    tree = CompleteTree(7)
    scale = limitdist.ScaleParams.from_n(1 << 20, 2)
    params = limitdist.LimitParams(1, 2, scale.gamma)
    batches = [
        partial(cutsim.simulate_records_batch, tree, 2),
        partial(cutsim.simulate_edge_records_batch, tree, 2),
        partial(cutsim.simulate_process_batch, tree, 2),
        partial(limitdist.xi_sampler_batch, scale, params, None),
    ]
    bad = [
        ("seed", (True, 2), {}),
        ("seed", (1.0, 2), {}),
        ("n_samples", (1, True), {}),
        ("n_samples", (1, 2.0), {}),
        ("first_index", (1, 2), {"first_index": True}),
        ("first_index", (1, 2), {"first_index": 1.5}),
        ("n_samples", (1, -1), {}),
        ("chunk", (1, 2), {"chunk": True}),
        ("chunk", (1, 2), {"chunk": 2.5}),
        ("chunk", (1, 2), {"chunk": 0}),
    ]
    for batch in batches:
        for name, args, kwargs in bad:
            with pytest.raises(ValueError, match=name):
                batch(*args, **kwargs)
        assert np.array_equal(batch(-1, 3), batch((1 << 64) - 1, 3))


def test_batch_chunk_must_be_positive() -> None:
    tree = CompleteTree(7)
    for chunk in (0, -3):
        with pytest.raises(ValueError):
            cutsim.simulate_records_batch(tree, 2, 0, 5, chunk=chunk)
        with pytest.raises(ValueError):
            cutsim.simulate_process_batch(tree, 2, 0, 5, chunk=chunk)


def _peak(batch, *args, **kwargs) -> int:
    """Peak bytes traced while ``batch(*args, **kwargs)`` runs."""
    tracemalloc.start()
    try:
        batch(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_records_batch_default_chunk_bounds_memory() -> None:
    """With the default chunk each worker holds at most 8 MB of rows and
    their scratch at a time, however many samples it is asked for."""
    for threads in (1, 2):
        peak = _peak(
            cutsim.simulate_records_batch, CompleteTree(2**15 - 1), 2, 0, 300,
            threads=threads,
        )
        assert peak < (8 * threads + 1) * 2**20, threads


def test_records_batch_peak_without_temporaries() -> None:
    """The level sweep writes into per-worker buffers: the uniforms,
    turned into running products in place, the ancestor maxima, one
    level temp and one ``(rows, k, n)`` record mask, which the 8 MB a
    worker counts.  Besides them a batch holds the buffers numpy's
    iterator takes for short levels (up to 0.2 MB a worker), the fetched
    states and the counts.  At n = 2**18 - 1 a row with its scratch is
    7 MB, so each worker holds a single row."""
    for n, samples in ((2**15 - 1, 300), (2**18 - 1, 4)):
        for batch in (
            cutsim.simulate_records_batch, cutsim.simulate_edge_records_batch
        ):
            peak = _peak(batch, CompleteTree(n), 2, 0, samples, threads=2)
            assert peak <= (2 * 8 + 0.5) * 2**20, (n, batch)


@pytest.mark.parametrize("variant", ["node", "edge"])
@pytest.mark.parametrize("k", [1, 3])
def test_records_per_order_means_match_exactmean(k: int, variant: str) -> None:
    """Each order's mean record count at n = 255 lies within 4 standard
    errors of the exact mean from independent quadrature."""
    batch = {
        "node": cutsim.simulate_records_batch,
        "edge": cutsim.simulate_edge_records_batch,
    }[variant]
    n, n_samples = 255, 100_000
    counts = batch(CompleteTree(n), k, 1900 + 10 * k + (variant == "edge"), n_samples)
    for r in range(1, k + 1):
        want = exactmean.expected_records(
            exactmean.MeanQuery(n=n, k=k, r=r, variant=variant)
        )
        draws = counts[:, r - 1]
        se = draws.std(ddof=1) / math.sqrt(n_samples)
        assert abs(draws.mean() - want) <= 4.0 * se, (r, draws.mean(), want, se)


def test_records_and_process_totals_agree_in_law_k3() -> None:
    """Record totals and process cut counts at n = 63, k = 3 pass a
    two-sample KS test at the 0.1 % level, 1.95 * sqrt(2/N)."""
    tree, n_each = CompleteTree(63), 20_000
    recs = cutsim.simulate_records_batch(tree, 3, 1931, n_each).sum(axis=1)
    proc = cutsim.simulate_process_batch(tree, 3, 1932, n_each)
    stat = harness.ks_two_sample(recs, proc)
    assert stat < 1.95 * math.sqrt(2.0 / n_each)


def test_records_mean_monotone_in_n() -> None:
    k = 2
    samples = 100_000
    means = []
    half_widths = []
    for n in (15, 31, 63, 127):
        tot = cutsim.simulate_records_batch(
            CompleteTree(n), k, seed=1234, n_samples=samples
        ).sum(axis=1)
        means.append(tot.mean())
        half_widths.append(3.0 * tot.std(ddof=1) / math.sqrt(samples))
    for i in range(len(means) - 1):
        assert means[i + 1] >= means[i] - (half_widths[i] + half_widths[i + 1])


# ---------------------------------------------------------------------------
# The batch runner: threads, re-keyed streams.
# ---------------------------------------------------------------------------


def test_resolve_threads(monkeypatch) -> None:
    monkeypatch.delenv(cutsim.THREADS_ENV, raising=False)
    cpus = (
        len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count()
    )
    assert cutsim.resolve_threads(None) == cpus
    assert cutsim.resolve_threads() == cpus
    assert cutsim.resolve_threads(6) == 6
    assert cutsim.resolve_threads(np.int64(3)) == 3
    for bad in (0, -3, 2.0, True):
        with pytest.raises(ValueError, match="threads"):
            cutsim.resolve_threads(bad)
    monkeypatch.setenv(cutsim.THREADS_ENV, "4")
    assert cutsim.resolve_threads(None) == 4
    assert cutsim.resolve_threads(2) == 2
    for bad in ("zero", "0", "-3", "1.5"):
        monkeypatch.setenv(cutsim.THREADS_ENV, bad)
        with pytest.raises(ValueError, match=cutsim.THREADS_ENV):
            cutsim.resolve_threads(None)
        with pytest.raises(ValueError, match=cutsim.THREADS_ENV):
            cutsim.simulate_records_batch(CompleteTree(7), 1, 0, 3)


def _assert_same_draws(
    got: np.random.Generator, want: np.random.Generator
) -> None:
    assert np.array_equal(
        got.standard_exponential(9), want.standard_exponential(9)
    )
    assert np.array_equal(got.standard_gamma(2, 9), want.standard_gamma(2, 9))
    assert np.array_equal(got.random(9), want.random(9))
    assert got.integers(2**32, dtype=np.uint32) == want.integers(
        2**32, dtype=np.uint32
    )


def test_substream_rejects_bool_and_non_integer_keys() -> None:
    """``substream`` keys by integers only: ``True`` does not stand for 1
    nor a float for an int, in either argument."""
    for args, name in (
        ((True, 0), "seed"),
        ((1.0, 0), "seed"),
        ((2, True), "sample_index"),
        ((2, 1.0), "sample_index"),
    ):
        with pytest.raises(ValueError, match=name):
            cutsim.substream(*args)


def _philox_block(seed: int, i: int) -> np.ndarray:
    """The Philox block at counter ``(i, 0, 0, 0)`` under key ``(seed,
    0)``, straight from numpy's Philox, which adds 1 to its 256-bit
    counter before each block."""
    key = np.array([seed % 2**64, 0], dtype=np.uint64)
    return np.random.Philox(counter=(i - 1) % 2**256, key=key).random_raw(4)


def test_restream_draws_equal_substream() -> None:
    """A re-keyed generator is in the state of a fresh substream, also
    after a draw that leaves half a 64-bit word buffered.  Numpy integer
    seeds and indices key the same streams as Python ints, in
    ``substream`` and in the batch functions.  A substream's SFC64 state
    is the Philox block at its index, also at the top of the index
    range, and a fetch or a batch that wraps past index ``2**64 - 1``
    goes on at sample 0."""
    for seed in (0, 7, -1):
        stream = cutsim._Restream(seed)
        for i in (0, 1, 13, 2**64 + 5, 1):
            _assert_same_draws(stream.at(i), cutsim.substream(seed, i))
            _assert_same_draws(
                cutsim.substream(np.int64(seed), np.uint64(i % 2**64)),
                cutsim.substream(seed, i),
            )
    for batch in (cutsim.simulate_records_batch, cutsim.simulate_process_batch):
        want = batch(CompleteTree(7), 2, 5, 3, first_index=1)
        got = batch(
            CompleteTree(np.int64(7)), 2, np.int64(5), 3,
            first_index=np.int64(1),
        )
        assert np.array_equal(got, want)
    # Philox4x64-10 at counter 0 under key 0, from Random123's known
    # answers: this pins what "the block at counter i" means.
    assert _philox_block(0, 0).tolist() == [
        0x16554D9ECA36314C, 0xDB20FE9D672D0FDC,
        0xD7E772CEE186176B, 0x7E68B68AEC7BA23B,
    ]
    top = 2**64
    for seed in (3, -2):
        for i in (0, 1, top - 3, top - 2, top - 1):
            state = cutsim.substream(seed, i).bit_generator.state
            assert state["bit_generator"] == "SFC64"
            assert np.array_equal(state["state"]["state"], _philox_block(seed, i))
        # One fetch across the wrap: indices top - 3 .. top + 2 are
        # samples top - 3 .. top - 1, then 0, 1, 2.
        stream = cutsim._Restream(seed)
        stream.fetch(top - 3, 6)
        for i in range(top - 3, top + 3):
            _assert_same_draws(stream.at(i), cutsim.substream(seed, i % top))
        across = cutsim.simulate_records_batch(
            CompleteTree(7), 2, seed, 6, first_index=top - 3, chunk=4
        )
        assert np.array_equal(
            across[3:], cutsim.simulate_records_batch(CompleteTree(7), 2, seed, 3)
        )


def test_substreams_look_independent() -> None:
    """Adjacent substreams share no visible structure: the first uniforms
    of 10**5 consecutive substreams pass a KS test for uniformity at the
    1 % level, and the first 1024 uniforms of each of 1000 substreams
    are uncorrelated with the next one's, position by position, within
    4 standard errors of 0."""
    stream = cutsim._Restream(2026)
    count = 100_000
    stream.fetch(0, count)
    first = np.sort([stream.at(i).random() for i in range(count)])
    steps = np.arange(1, count + 1) / count
    ks = max(np.max(steps - first), np.max(first - (steps - 1 / count)))
    assert ks < math.sqrt(-math.log(0.005) / 2) / math.sqrt(count)

    rows = np.array([stream.at(i).random(1024) for i in range(1000)])
    pairs = rows[:-1].size
    rho = np.corrcoef(rows[:-1].ravel(), rows[1:].ravel())[0, 1]
    assert abs(rho) < 4 / math.sqrt(pairs)


def _per_sample_rows(seed: int, first: int, count: int, values: int) -> np.ndarray:
    stream = cutsim._Restream(seed)
    return np.array(
        [stream.at(first + j).random(values) for j in range(count)]
    ).reshape(count, values)


@pytest.mark.parametrize("values", [1, 5, 32, 45, 256, 257])
def test_lane_draws_equal_substream(values: int) -> None:
    """Lanes give each sample the uniforms of its own re-keyed generator,
    bit for bit, for 1, 2 and 3 lanes, on row lengths on both sides of
    the crossover and not a multiple of the column block, also in
    scratch with more lanes than the chunk and across index
    ``2**64 - 1``."""
    stream = cutsim._Restream(9)
    for first in (0, 2**64 - 2):
        for lanes in (1, 2, 3):
            rows = np.empty((lanes, values))
            scratch = np.empty(
                (cutsim._lane_words(values), lanes + 2), dtype=np.uint64
            )
            cutsim._fill_lanes(stream.fetch(first, lanes), rows, scratch)
            assert np.array_equal(rows, _per_sample_rows(9, first, lanes, values))


def test_lanes_fill_short_rows_only(monkeypatch) -> None:
    """Batches of rows of at most ``_LANE_ROW`` values go by lanes where
    a chunk holds ``_LANE_ROWS_PER_VALUE`` rows a value, every other row
    per sample, and both give the same output.  Lanes run on every
    worker whose share still holds that many rows: two record workers
    of 1000 rows of 126 values (n = 63) each make a lane call, while the
    process batch keeps its one worker.  A chunk of lanes across the
    ``2**64`` wrap goes on at sample 0.  The xi batch follows the same
    rule: its (1, 1) rows at n = 2**20 hold 164 values in chunks of 1140
    draws, too few for two workers, its (1, 2) rows at 2**40 2059
    values."""
    calls = []
    fill_lanes = cutsim._fill_lanes

    def spy(states, rows, scratch):
        calls.append(rows.shape)
        fill_lanes(states, rows, scratch)

    def per_sample(batch, *args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(cutsim, "_LANE_ROW", 0)
            return batch(*args, **kwargs)

    monkeypatch.setattr(cutsim, "_fill_lanes", spy)
    top = 2**64
    for batch in (
        cutsim.simulate_records_batch,
        cutsim.simulate_edge_records_batch,
        cutsim.simulate_process_batch,
    ):
        threads = {} if batch is cutsim.simulate_process_batch else {"threads": 2}
        # n = 4, k = 2: 8 values a row, lanes in chunks of 48 or more.
        calls.clear()
        got = batch(CompleteTree(4), 2, 3, 110, first_index=top - 3, chunk=50)
        assert calls == [(50, 8), (50, 8)]
        assert np.array_equal(
            got, per_sample(batch, CompleteTree(4), 2, 3, 110, first_index=top - 3)
        )
        assert np.array_equal(got[3:], batch(CompleteTree(4), 2, 3, 107))
        # 126 and 258 values a row, on both sides of _LANE_ROW.
        lanes = [(2000, 126)] if threads == {} else [(1000, 126)] * 2
        for n, want in ((63, lanes), (129, [])):
            calls.clear()
            got = batch(CompleteTree(n), 2, 3, 2000, **threads)
            assert calls == want
            assert np.array_equal(
                got, per_sample(batch, CompleteTree(n), 2, 3, 2000, **threads)
            )
    for (r, k, lg), want in (((1, 1, 20), [(1140, 164)]), ((1, 2, 40), [])):
        scale = limitdist.ScaleParams.from_n(2**lg, k)
        args = (scale, limitdist.LimitParams(r, k, scale.gamma), None, 3, 1200)
        calls.clear()
        got = limitdist.xi_sampler_batch(*args)
        assert calls == want
        assert np.array_equal(got, per_sample(limitdist.xi_sampler_batch, *args))


def test_lane_batch_peak_within_budget() -> None:
    """At n = 4 a record row is 8 uniforms and its lane scratch, a block
    of 8 columns and five state vectors, is larger than the row.  Rows
    drawn by lanes keep one 32 MB chunk, shared by the workers, which
    counts both and the row's ancestor maxima, level temp and mask, so a
    chunk holds fewer rows.  Besides the 16 MB output the peak is that
    budget plus 8 MB for what it does not count: the fetched states, 32
    bytes a row (4.7 MB), and numpy's iterator buffers."""
    tracemalloc.start()
    try:
        counts = cutsim.simulate_records_batch(
            CompleteTree(4), 2, 0, 10**6, threads=2
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= counts.nbytes + (32 + 8) * 2**20


# Rows of 600 and 512 values: the tests below set _MIN_THREADED_ROW to 1
# so that threads engage on them.
_RECORDS_TREE = CompleteTree(300)
_PROCESS_TREE = CompleteTree(256)
_BATCHES = {
    "node": partial(cutsim.simulate_records_batch, _RECORDS_TREE, 2, 5),
    "edge": partial(cutsim.simulate_edge_records_batch, _RECORDS_TREE, 2, 5),
    "process": partial(cutsim.simulate_process_batch, _PROCESS_TREE, 2, 5),
}


@pytest.mark.parametrize("kind", ["node", "edge", "process"])
def test_batch_thread_and_chunk_invariance(kind, monkeypatch) -> None:
    monkeypatch.setattr(cutsim, "_MIN_THREADED_ROW", 1)
    batch = _BATCHES[kind]
    # The process batch always runs on one worker.
    splits = [{}] if kind == "process" else [{"threads": t} for t in (1, 2, 3)]
    for first in (0, 13):
        for size in (0, 1, 2, 5, 40):
            want = batch(n_samples=size, first_index=first, **splits[0])
            assert len(want) == size
            for split in splits:
                for chunk in (None, 1, 7):
                    got = batch(
                        n_samples=size, first_index=first, chunk=chunk, **split
                    )
                    assert got.dtype == want.dtype
                    assert np.array_equal(got, want), (split, chunk)


def test_batch_threads_stress(monkeypatch) -> None:
    """Eight workers, more than most test hosts have cores, switching
    every microsecond, still fill every row with its own sample."""
    monkeypatch.setattr(cutsim, "_MIN_THREADED_ROW", 1)
    tree = _RECORDS_TREE
    want = cutsim.simulate_records_batch(tree, 2, 8, 400, threads=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = cutsim.simulate_records_batch(
            tree, 2, 8, 400, chunk=16, threads=8
        )
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# Process simulator.
# ---------------------------------------------------------------------------


def test_process_single_node() -> None:
    for k in (1, 2, 5):
        assert simulate_process(CompleteTree(1), k, seed=0) == k


def test_process_determinism_and_batch_agreement() -> None:
    tree = CompleteTree(15)
    a = simulate_process(tree, 2, seed=10, sample_index=4)
    b = simulate_process(tree, 2, seed=10, sample_index=4)
    assert a == b
    singles = [
        simulate_process(tree, 2, seed=10, sample_index=i)
        for i in range(25)
    ]
    batch = cutsim.simulate_process_batch(tree, 2, seed=10, n_samples=25)
    assert singles == batch.tolist()
    rechunked = cutsim.simulate_process_batch(
        tree, 2, seed=10, n_samples=25, chunk=7
    )
    assert np.array_equal(batch, rechunked)


# The "chunk5-threads2" id is kept from when this split also ran on two
# workers, so that the suite's test names stay stable.
@pytest.mark.parametrize(
    "split", [{}, {"chunk": 5}], ids=["whole", "chunk5-threads2"]
)
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [21, 31, 100, 256])
def test_process_batch_matches_plain_process(n: int, k: int, split) -> None:
    """The lockstep sweep, with its carried connected flags and block
    counts, gives the plain process's total row for row.  n = 21 and
    100 leave the last level part full and n + 1 off the block width;
    k = 1 makes every cut a removal; chunks of 5 finish samples at
    different steps across chunk boundaries."""
    tree, seed, first = CompleteTree(n), 4, 5
    totals = cutsim.simulate_process_batch(tree, k, seed, 12, first, **split)
    assert totals.tolist() == [
        simulate_process(tree, k, seed, first + i) for i in range(12)
    ]


def test_process_batch_defaults_to_one_worker(monkeypatch) -> None:
    """The process sweep holds the GIL, so it starts no pool, even on
    rows of 2046 values (n = 1023, k = 2) and with ``KCUT_THREADS`` at
    2, where the record batch does start one."""

    class NoPool(Exception):
        pass

    def no_pool(*args, **kwargs):
        raise NoPool

    monkeypatch.setattr(cutsim, "ThreadPoolExecutor", no_pool)
    monkeypatch.setenv(cutsim.THREADS_ENV, "2")
    tree = CompleteTree(1023)
    totals = cutsim.simulate_process_batch(tree, 2, 6, 4)
    assert totals.tolist() == [simulate_process(tree, 2, 6, i) for i in range(4)]
    with pytest.raises(NoPool):
        cutsim.simulate_records_batch(tree, 2, 6, 4)


@given(
    n=st.integers(min_value=1, max_value=40),
    k=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=-(2**63), max_value=2**64 - 1),
)
@settings(max_examples=60, deadline=None)
def test_process_batch_matches_plain_process_property(
    n: int, k: int, seed: int
) -> None:
    tree = CompleteTree(n)
    totals = cutsim.simulate_process_batch(tree, k, seed, 6, chunk=4)
    assert totals.tolist() == [
        simulate_process(tree, k, seed, i) for i in range(6)
    ]


def test_process_batch_peak_without_cumulative_rows() -> None:
    """Besides the uniforms and the lane scratch (32 MB together by
    default: 254 values a row go by lanes, whose column block and state
    vectors take 37 of every 291 values) a process batch holds the
    counters, the connected flags and the block counts; no step builds
    a cumulative sum over whole rows."""
    tracemalloc.start()
    try:
        cutsim.simulate_process_batch(CompleteTree(127), 2, 0, 20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 56 * 2**20


def test_process_batch_counts_past_int16() -> None:
    # k = 2**15 + 1 overflows an int16 counter; the batch must still
    # match the plain reference.
    k = 2**15 + 1
    batch = cutsim.simulate_process_batch(CompleteTree(1), k, 3, 2)
    assert batch.tolist() == [
        simulate_process(CompleteTree(1), k, 3, sample_index=i)
        for i in range(2)
    ]


def test_process_total_bounds() -> None:
    totals = cutsim.simulate_process_batch(
        CompleteTree(7), 2, seed=2, n_samples=400
    )
    assert (totals >= 2).all() and (totals <= 2 * 7).all()


def test_process_matches_brute_force() -> None:
    samples = 60_000
    pmf = brute_force_distribution(4, 2)
    totals = cutsim.simulate_process_batch(
        CompleteTree(4), 2, seed=77, n_samples=samples
    )
    for value, prob in pmf.items():
        p = float(prob)
        se = math.sqrt(p * (1 - p) / samples)
        assert np.mean(totals == value) == pytest.approx(p, abs=4 * se)


def test_process_and_records_agree_in_law() -> None:
    tree = CompleteTree(15)
    n_each = 5000
    a = np.sort(
        cutsim.simulate_records_batch(
            tree, 2, seed=21, n_samples=n_each
        ).sum(axis=1)
    )
    b = np.sort(cutsim.simulate_process_batch(tree, 2, seed=22, n_samples=n_each))
    grid = np.concatenate([a, b])
    grid.sort()
    gap = np.max(
        np.abs(
            np.searchsorted(a, grid, side="right") / n_each
            - np.searchsorted(b, grid, side="right") / n_each
        )
    )
    # 1% two-sample critical value: 1.63 * sqrt(2/n).
    assert gap < 1.63 * math.sqrt(2.0 / n_each)


# ---------------------------------------------------------------------------
# Rescaling.
# ---------------------------------------------------------------------------


def test_rescale_zero_count_gives_minus_mu() -> None:
    table = series.constants(2, 1)
    value = cutsim.rescale_counts(0.0, 1, table, 64)
    assert value == pytest.approx(-series.mu(1, 2, 64), abs=1e-12)


def test_rescale_k1_formula() -> None:
    table = series.constants(1, 1)
    n, count = 1 << 10, 137.0
    lg = 10.0
    expected = count * lg**2 / n - series.mu(1, 1, n)
    assert cutsim.rescale_counts(count, 1, table, n) == pytest.approx(
        expected, rel=1e-14
    )


def test_rescale_k2_prefactor() -> None:
    table = series.constants(2, 1)
    n = 1 << 8
    lg = 8.0
    prefactor = math.sqrt(8.0 / math.pi) * lg**1.5 / n
    got = cutsim.rescale_counts(1.0, 1, table, n) - cutsim.rescale_counts(
        0.0, 1, table, n
    )
    assert got == pytest.approx(prefactor, rel=1e-12)


def test_rescale_total_mode_weights() -> None:
    """Total-mode centering is sum_r (C2(r)/C2(1)) lg**(-(r-1)/k) mu_r."""
    k, n = 2, 1 << 8
    lg = 8.0
    c2_1 = series.constants(k, 1).c2
    c2_2 = series.constants(k, 2).c2
    center = series.mu(1, k, n) + (c2_2 / c2_1) * lg ** (-0.5) * series.mu(
        2, k, n
    )
    table = series.constants(k, 1)
    assert cutsim.rescale_counts(0.0, None, table, n) == pytest.approx(
        -center, rel=1e-12
    )


def test_rescale_counts_validation() -> None:
    table = series.constants(2, 1)
    counts = cutsim.simulate_records_batch(CompleteTree(16), 2, 0, 1)
    order1 = cutsim.rescale_counts(float(counts[0, 0]), 1, table, 16)
    assert math.isfinite(order1)
    with pytest.raises(ValueError):
        cutsim.rescale_counts(1.0, 2, table, 16)  # table built for r=1
    for r in (0, 3, True):
        with pytest.raises(ValueError, match="r must be"):
            cutsim.rescale_counts(1.0, r, table, 16)
    total = simulate_process(CompleteTree(16), 2, seed=0)
    assert math.isfinite(cutsim.rescale_counts(float(total), None, table, 16))
    with pytest.raises(ValueError):
        cutsim.rescale_counts(1.0, 1, table, 3)
