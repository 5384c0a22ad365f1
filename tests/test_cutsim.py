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

from kcut import cutsim, series
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
@pytest.mark.parametrize("n", [21, 31])
def test_records_batch_matches_naive_sweep(
    n: int, k: int, split, monkeypatch
) -> None:
    """Both variants equal a per-node loop over the same node-major
    draws: ``v`` is an r-record iff ``T_{r,v}`` is below the least k-th
    clock of its proper ancestors, the root excluded in the edge
    variant, where the root itself never counts.  n = 21 leaves the
    last level part full; chunks of 5 on two workers (threaded here
    despite the short rows) put the per-order counts of one batch
    across chunk and worker boundaries."""
    monkeypatch.setattr(cutsim, "_MIN_THREADED_ROW", 1)
    tree, seed, first = CompleteTree(n), 4, 5
    node = cutsim.simulate_records_batch(tree, k, seed, 12, first, **split)
    edge = cutsim.simulate_edge_records_batch(tree, k, seed, 12, first, **split)
    for i in range(12):
        e = cutsim.substream(seed, first + i).standard_exponential((tree.n, k))
        t = np.cumsum(e, axis=1)
        want_node, want_edge = np.zeros(k, int), np.zeros(k, int)
        for v in range(1, tree.n + 1):
            above = [t[(v >> s) - 1, k - 1] for s in range(1, v.bit_length())]
            want_node += t[v - 1] < min(above, default=math.inf)
            if v > 1:
                want_edge += t[v - 1] < min(above[:-1], default=math.inf)
        assert node[i].tolist() == want_node.tolist()
        assert edge[i].tolist() == want_edge.tolist()


def test_batch_rejects_bad_k() -> None:
    tree = CompleteTree(7)
    for k in (0, True, 2.0):
        with pytest.raises(ValueError, match="k must be"):
            cutsim.simulate_records_batch(tree, k, 1, 2)
        with pytest.raises(ValueError, match="k must be"):
            cutsim.simulate_process_batch(tree, k, 1, 2)


def test_batch_chunk_must_be_positive() -> None:
    tree = CompleteTree(7)
    for chunk in (0, -3):
        with pytest.raises(ValueError):
            cutsim.simulate_records_batch(tree, 2, 0, 5, chunk=chunk)
        with pytest.raises(ValueError):
            cutsim.simulate_process_batch(tree, 2, 0, 5, chunk=chunk)


def test_records_batch_default_chunk_bounds_memory() -> None:
    """With the default chunk a batch holds about 32 MB of clocks at a
    time, however many samples it is asked for."""
    tracemalloc.start()
    try:
        cutsim.simulate_records_batch(CompleteTree(2**15 - 1), 2, 0, 300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20


def test_records_batch_peak_without_temporaries() -> None:
    """The level sweep writes into per-worker buffers: besides the
    32 MB of clocks a batch holds only the ancestor minima and one
    ``(rows, n)`` record mask, reused for every order."""
    tracemalloc.start()
    try:
        cutsim.simulate_records_batch(CompleteTree(2**15 - 1), 2, 0, 300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 60 * 2**20


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


def test_restream_draws_equal_substream() -> None:
    """A re-keyed generator is in the state of a fresh substream, also
    after a draw that leaves half a 64-bit word buffered.  Numpy integer
    seeds and indices key the same streams as Python ints, in
    ``substream`` and in the batch functions."""
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


_RECORDS_TREE = CompleteTree(300)  # 600 values a row: threads engage
_PROCESS_TREE = CompleteTree(256)  # 512 values a row
_BATCHES = {
    "node": partial(cutsim.simulate_records_batch, _RECORDS_TREE, 2, 5),
    "edge": partial(cutsim.simulate_edge_records_batch, _RECORDS_TREE, 2, 5),
    "process": partial(cutsim.simulate_process_batch, _PROCESS_TREE, 2, 5),
}


@pytest.mark.parametrize("kind", ["node", "edge", "process"])
def test_batch_thread_and_chunk_invariance(kind) -> None:
    batch = _BATCHES[kind]
    for first in (0, 13):
        for size in (0, 1, 2, 5, 40):
            want = batch(n_samples=size, first_index=first, threads=1)
            assert len(want) == size
            for threads in (1, 2, 3):
                for chunk in (None, 1, 7):
                    got = batch(
                        n_samples=size, first_index=first, threads=threads,
                        chunk=chunk,
                    )
                    assert got.dtype == want.dtype
                    assert np.array_equal(got, want), (threads, chunk)


def test_batch_threads_stress() -> None:
    """Eight workers, more than most test hosts have cores, switching
    every microsecond, still fill every row with its own sample."""
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
