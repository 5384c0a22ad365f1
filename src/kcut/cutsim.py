"""Simulators for the k-cut process on complete binary trees.

Two views of the same law are implemented:

- ``simulate_process_batch`` -- the literal cutting procedure: repeatedly
  pick a uniform node still connected to the root, increase its counter,
  and detach its subtree once the counter reaches ``k``; stop when the
  root is removed.  Returns the number of cuts.
- ``simulate_records_batch`` -- the equivalent clock/record construction:
  each node ``v`` carries cumulative exponential clock sums ``T_{1,v} <
  ... < T_{k,v}``; ``v`` is an ``r``-record iff ``T_{r,v}`` is below the
  minimum ``k``-th clock sum over its proper ancestors.  The total
  record count across ``r`` has the same law as the cut count.
- ``simulate_edge_records_batch`` -- the edge variant: only non-root
  nodes can be records and the ancestor minimum skips the root
  (equivalently, the root's ``k``-th clock is conditioned to be
  infinite, which is how it is computed).

``rescale_counts`` applies the affine normalization under which record
counts converge in law.  The plain single-sample process run and the
exact cut-count law of tiny trees, which the simulators are checked
against, are test oracles in ``tests/oracles.py``.

Randomness is counter-based: sample ``i`` of seed ``s`` always draws
from a Philox generator keyed ``(s, i)``, so results are reproducible
and independent of how samples are partitioned across threads or
chunks.  Every batch here and in :mod:`kcut.limitdist` runs through one
runner, :func:`_run_batch`: it splits the samples into one contiguous
range per worker thread (:func:`resolve_threads`: all CPUs unless told
otherwise), and each worker re-keys one generator per sample and
allocates its scratch once.  The chunks of all workers together hold
at most ``chunk`` samples, by default as many as fit one 32 MB budget
(:func:`_chunk_rows`).
"""

from __future__ import annotations

import math
import operator
import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import series

__all__ = [
    "CompleteTree",
    "simulate_process_batch",
    "simulate_records_batch",
    "simulate_edge_records_batch",
    "rescale_counts",
    "substream",
    "resolve_threads",
    "THREADS_ENV",
]

_MASK64 = (1 << 64) - 1

THREADS_ENV = "KCUT_THREADS"

# Scratch budget of one batch call, in float64 values (32 MB), shared by
# all of its workers.
_SCRATCH_VALUES = 1 << 22

# Rows of fewer values run on one thread.  Below this the per-sample
# loop, which holds the GIL, dominates and threads lose.  Records with
# k = 2 on 2 CPUs, two threads against one: 1.45x the time at n = 63,
# 1.03x at n = 255 (510 values a row), 0.77x at n = 511.
_MIN_THREADED_ROW = 512


def substream(seed: int, sample_index: int) -> np.random.Generator:
    """Generator for one sample: Philox keyed by ``(seed, sample_index)``.

    This is the package-wide stream-split rule.  Any partition of a
    sample range across threads or processes reproduces identical draws
    because each sample owns its counter-based key.
    """
    seed, sample_index = operator.index(seed), operator.index(sample_index)
    key = np.array([seed & _MASK64, sample_index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class _Restream:
    """One generator that :meth:`at` re-keys in place to the state of a
    fresh ``substream(seed, i)``: key ``(seed, i)``, zero counter, empty
    buffers.  Re-keying costs about a tenth of building a generator."""

    def __init__(self, seed: int) -> None:
        self._gen = substream(seed, 0)
        self._key = np.array([seed & _MASK64, 0], dtype=np.uint64)
        # The state setter copies these arrays, so they can be reused.
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, np.uint64), "key": self._key},
            "buffer": np.zeros(4, np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def at(self, sample_index: int) -> np.random.Generator:
        self._key[1] = sample_index & _MASK64
        self._gen.bit_generator.state = self._state
        return self._gen


def resolve_threads(threads: int | None = None) -> int:
    """Worker count of a batch: ``threads`` if given, else the
    ``KCUT_THREADS`` environment variable, else the number of CPUs this
    process may run on.  A count that is not an integer of at least 1
    raises ``ValueError``."""
    source = "threads"
    if threads is None:
        env = os.environ.get(THREADS_ENV)
        if not env:
            try:
                return len(os.sched_getaffinity(0))
            except AttributeError:  # no affinity call on this platform
                return os.cpu_count() or 1
        source = THREADS_ENV
        try:
            threads = int(env)
        except ValueError as exc:
            raise ValueError(
                f"{THREADS_ENV} must be an integer, got {env!r}"
            ) from exc
    if (
        isinstance(threads, bool)
        or not isinstance(threads, (int, np.integer))
        or threads < 1
    ):
        raise ValueError(f"{source} must be an integer >= 1, got {threads!r}")
    return int(threads)


def _as_int(name: str, value) -> int:
    """``value`` as a Python int; a bool or a non-integer raises
    ``ValueError`` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class CompleteTree:
    """Complete binary tree on ``n`` nodes with implicit 1-based heap
    indexing: node ``i`` has children ``2i`` and ``2i+1`` when those are
    at most ``n``; every level is full except possibly the last, whose
    nodes occupy the leftmost positions."""

    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _as_int("n", self.n))
        if self.n < 1:
            raise ValueError(f"tree needs n >= 1 nodes, got {self.n!r}")

    @property
    def max_height(self) -> int:
        """Height of the deepest level, ``m = floor(lg n)``."""
        return self.n.bit_length() - 1

    def size_classes(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The tree's shape: for each height ``h = 0 .. m``, the
        ``(size, count)`` pairs of that level's subtrees, left to right.

        The last level holds ``n - 2**m + 1`` nodes, filled from the
        left, and a node at height ``h`` spans ``s = 2**(m - h)`` of its
        slots.  So a level holds subtrees of ``2 s - 1`` nodes, at most
        one partly filled subtree, and subtrees of ``s - 1`` nodes; pairs
        of count or size 0 are left out.  Exact ints, so any ``n`` works.
        """
        m = self.max_height
        last = self.n - (1 << m) + 1
        levels = []
        for h in range(m + 1):
            s = 1 << (m - h)
            full, part = divmod(last, s)
            pairs = (
                (2 * s - 1, full),
                (s - 1 + part, int(part > 0)),
                (s - 1, (1 << h) - full - int(part > 0)),
            )
            levels.append(tuple((z, c) for z, c in pairs if z and c))
        return tuple(levels)


def _check_k(k: int) -> None:
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")


def _check_samples(k: int, n_samples: int) -> None:
    _check_k(k)
    if n_samples < 0:
        raise ValueError("n_samples must be nonnegative")


def _chunk_rows(floats_per_row: int, chunk: int | None = None) -> int:
    """Samples in flight at once in one batch call, over all its
    workers: ``chunk`` if given, else as many as keep the largest
    per-sample scratch array within 2**22 float64 values (32 MB).
    Draws never depend on the chunk."""
    if chunk is None:
        return max(1, _SCRATCH_VALUES // floats_per_row)
    if chunk < 1:
        raise ValueError(f"chunk must be a positive integer, got {chunk!r}")
    return chunk


def _worker_count(n_rows: int, row_values: int, threads: int | None) -> int:
    """Workers for ``n_rows`` rows of work of ``row_values`` values each:
    :func:`resolve_threads` of ``threads``, capped at ``n_rows``; rows of
    fewer than 512 values get one worker."""
    workers = min(resolve_threads(threads), max(n_rows, 1))
    return 1 if row_values < _MIN_THREADED_ROW else workers


def _on_workers(
    n_rows: int, workers: int, start: Callable[[int, int], Callable[[], None]]
) -> None:
    """Split rows ``0 .. n_rows - 1`` into one contiguous range per worker
    and run them on ``workers`` threads.  ``start(lo, hi)`` is called for
    every range first, on the calling thread, and returns the job that
    runs that range: so scratch it allocates comes from the main malloc
    arena, not from per-thread arenas that keep it cached (peak RSS of
    the limit_law benchmark: 145 MB that way, 125 MB this way)."""
    cuts = [n_rows * w // workers for w in range(workers + 1)]
    jobs = [start(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    if workers == 1:
        jobs[0]()
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for future in [pool.submit(job) for job in jobs]:
            future.result()


def _run_batch(
    n_samples: int,
    row_values: int,
    seed: int,
    first_index: int,
    chunk: int | None,
    threads: int | None,
    worker: Callable[[int], tuple[Callable, Callable]],
    row_scratch: int | None = None,
) -> None:
    """Run one batch of samples ``0 .. n_samples - 1`` on worker threads.

    ``row_values`` is the size of a sample's largest scratch row, and
    ``row_scratch`` (default ``row_values``) the float64 values per
    sample that the 32 MB budget counts.  The samples
    are split into one contiguous range per worker.  For each worker,
    ``worker(rows)`` is called once; it allocates scratch for ``rows``
    samples and returns ``(draw, sweep)``.  Then, chunk by chunk,
    ``draw(j, rng)`` fills scratch row ``j`` for sample ``lo + j`` from
    the generator keyed ``(seed, first_index + lo + j)``, and
    ``sweep(lo, hi)`` finishes samples ``lo .. hi - 1`` from the first
    ``hi - lo`` rows.  Each sample owns its key, so the results do not
    depend on the worker count or the chunk.

    The workers are :func:`_worker_count` of the samples and
    ``row_values``, capped at :func:`_chunk_rows`, which they share.
    """
    seed, first_index = operator.index(seed), operator.index(first_index)
    in_flight = _chunk_rows(row_scratch or row_values, chunk)
    workers = min(_worker_count(n_samples, row_values, threads), in_flight)
    rows = in_flight // workers
    if n_samples == 0:
        return

    def start(lo: int, hi: int) -> Callable[[], None]:
        draw, sweep = worker(min(rows, hi - lo))

        def run() -> None:
            stream = _Restream(seed)
            for a in range(lo, hi, rows):
                b = min(a + rows, hi)
                for j in range(b - a):
                    draw(j, stream.at(first_index + a + j))
                sweep(a, b)

        return run

    _on_workers(n_samples, workers, start)


# ---------------------------------------------------------------------------
# Record-based simulation (node and edge variants).
# ---------------------------------------------------------------------------


def _records_batch(
    tree: CompleteTree,
    k: int,
    seed: int,
    n_samples: int,
    first_index: int,
    edge: bool,
    chunk: int | None,
    threads: int | None,
) -> np.ndarray:
    """Per-order record counts for samples ``first_index ..
    first_index + n_samples - 1`` as an ``(n_samples, k)`` int64 array.

    Each sample draws its ``(n, k)`` exponentials node-major from its own
    substream; the ancestor minima come from a level sweep vectorized
    across the chunk.  Then each order ``r`` takes one comparison of the
    ``r``-th clock sums with the minima into a contiguous ``(rows, n)``
    mask and one count along its rows.  A node whose ``r``-th clock sum
    ties an ancestor minimum exactly (a probability-zero event) is not a
    record.  The edge variant is the node sweep with the root's ``k``-th
    clock set to infinity and the root's row dropped.
    """
    _check_samples(k, n_samples)
    n = tree.n
    out = np.empty((n_samples, k), dtype=np.int64)

    def worker(rows: int):
        t = np.empty((rows, n, k))
        # anc[:, v-1] = min of k-th clocks over proper ancestors of v.
        anc = np.empty((rows, n))
        anc[:, 0] = np.inf
        mask = np.empty((rows, n), dtype=bool)

        def draw(j: int, rng: np.random.Generator) -> None:
            rng.standard_exponential(out=t[j])

        def sweep(lo: int, hi: int) -> None:
            c = hi - lo
            tc, ac = t[:c], anc[:c]
            for r in range(1, k):
                tc[:, :, r] += tc[:, :, r - 1]
            if edge:
                tc[:, 0, k - 1] = np.inf
            tk = tc[:, :, k - 1]
            # Level h holds nodes 2**h .. 2**(h+1) - 1, children of the
            # level above taken in order, two apiece: the first children
            # get the minima directly, the second children a copy.
            for h in range(1, tree.max_height + 1):
                lo_h, hi_h = 1 << h, min(2 << h, n + 1)
                first = ac[:, lo_h - 1 : hi_h - 1 : 2]
                up = slice(lo_h // 2 - 1, lo_h // 2 - 1 + first.shape[1])
                np.minimum(ac[:, up], tk[:, up], out=first)
                second = ac[:, lo_h : hi_h - 1 : 2]
                second[...] = first[:, : second.shape[1]]
            # One order at a time: a sum along contiguous rows is far
            # cheaper than one over the middle axis of a (c, n, k) mask.
            is_record = mask[:c]
            for r in range(k):
                np.less(tc[:, :, r], ac, out=is_record)
                out[lo:hi, r] = is_record[:, int(edge) :].sum(axis=1)

        return draw, sweep

    _run_batch(n_samples, n * k, seed, first_index, chunk, threads, worker)
    return out


def simulate_records_batch(
    tree: CompleteTree,
    k: int,
    seed: int,
    n_samples: int,
    first_index: int = 0,
    chunk: int | None = None,
    threads: int | None = None,
) -> np.ndarray:
    """Node-variant record counts, shape ``(n_samples, k)``.

    Column ``r - 1`` holds ``X_{n,r}``.  Sample ``i`` uses substream
    ``(seed, first_index + i)``, so disjoint ranges computed anywhere
    assemble into the same sequence.  ``chunk`` (samples in flight at
    once, shared by the ``threads`` workers; see :func:`resolve_threads`)
    defaults to the package's 32 MB scratch budget.  Neither changes
    the output.
    """
    return _records_batch(
        tree, k, seed, n_samples, first_index, False, chunk, threads
    )


def simulate_edge_records_batch(
    tree: CompleteTree,
    k: int,
    seed: int,
    n_samples: int,
    first_index: int = 0,
    chunk: int | None = None,
    threads: int | None = None,
) -> np.ndarray:
    """Edge-variant record counts, shape ``(n_samples, k)``; otherwise
    as :func:`simulate_records_batch`, and coupled with it per sample."""
    return _records_batch(
        tree, k, seed, n_samples, first_index, True, chunk, threads
    )


# ---------------------------------------------------------------------------
# Direct process simulation.
# ---------------------------------------------------------------------------


def simulate_process_batch(
    tree: CompleteTree,
    k: int,
    seed: int,
    n_samples: int,
    first_index: int = 0,
    chunk: int | None = None,
    threads: int | None = None,
) -> np.ndarray:
    """Vectorized cut-count totals from the direct process, shape
    ``(n_samples,)``.

    All samples of a chunk advance in lockstep: each step rebuilds the
    connected set from the counters by a parent-to-child sweep, then
    every unfinished sample picks one uniform connected node.  Sample
    ``i`` consumes the uniforms of substream ``(seed, first_index + i)``
    in cut order, one per cut.
    ``chunk`` (samples in flight at once, shared by the ``threads``
    workers; see :func:`resolve_threads`) defaults to the package's
    32 MB scratch budget for the ``k * n`` uniforms of a sample.
    """
    _check_samples(k, n_samples)
    n = tree.n
    out = np.empty(n_samples, dtype=np.int64)
    # A node's counter reaches k, so int16 holds it only for k < 2**15.
    counter = np.int16 if k < 1 << 15 else np.int64

    def worker(rows: int):
        # Every cut consumes exactly one uniform, and there are at most
        # k*n cuts, so the whole per-sample stream is drawn up front.
        u = np.empty((rows, k * n))
        cnt = np.empty((rows, n + 1), dtype=counter)
        conn = np.empty((rows, n + 1), dtype=bool)
        cum = np.empty((rows, n + 1), dtype=np.int64)

        def draw(j: int, rng: np.random.Generator) -> None:
            rng.random(out=u[j])

        def sweep(lo: int, hi: int) -> None:
            # Row i of cnt, conn and cum belongs to the i-th unfinished
            # sample, whose uniforms are row live[i] of u.  Every
            # unfinished sample cuts once per step.
            live = np.arange(hi - lo)
            cnt[: live.size] = 0
            step = 0
            while live.size:
                a = live.size
                ca, ok = cnt[:a], conn[:a]
                np.less(ca, k, out=ok)
                ok[:, 0] = False
                for h in range(1, tree.max_height + 1):
                    lo_h, hi_h = 1 << h, min(2 << h, n + 1)
                    # Left (even) children, then right (odd) ones: the
                    # c-th of either kind has parent lo_h // 2 + c.
                    for start in (lo_h, lo_h + 1):
                        kids = ok[:, start:hi_h:2]
                        kids &= ok[:, lo_h // 2 : lo_h // 2 + kids.shape[1]]
                counts = ok.sum(axis=1)
                j = np.floor(u[live, step] * counts).astype(np.int64)
                j = np.minimum(j, counts - 1)
                np.cumsum(ok, axis=1, out=cum[:a])
                pick = np.less_equal(cum[:a], j[:, None], out=ok).sum(axis=1)
                ca[np.arange(a), pick] += 1
                finished = (pick == 1) & (ca[:, 1] == k)
                if finished.any():
                    out[lo + live[finished]] = step + 1
                    keep = ~finished
                    live = live[keep]
                    cnt[: live.size] = ca[keep]
                step += 1

        return draw, sweep

    _run_batch(n_samples, k * n, seed, first_index, chunk, threads, worker)
    return out


# ---------------------------------------------------------------------------
# Rescaling.
# ---------------------------------------------------------------------------


def rescale_counts(
    counts: np.ndarray | float,
    r: int | None,
    table: series.ConstantTable,
    n: int,
):
    """Affine normalization of record counts; vectorized over ``counts``.

    With ``lg = lg n`` and constants from ``table``:

    - order ``r``: ``counts * lg**(r/k + 1) / (n * C2(r)) - mu(r, n)``;
    - ``r is None`` (total across orders): ``counts * lg**(1/k + 1) /
      (n * C2(1)) - sum_r (C2(r)/C2(1)) * lg**(-(r-1)/k) * mu(r, n)``.

    Under either normalization the law converges to ``1 - C3 * W`` for
    the matching limit variable ``W``.
    """
    if n < 4:
        raise ValueError(f"rescaling needs n >= 4, got {n!r}")
    k = table.k
    lg = math.log2(n)
    if r is None:
        c2_1 = series.constants(k, 1).c2
        scale = lg ** (1.0 / k + 1.0) / (n * c2_1)
        center = sum(
            (series.constants(k, rr).c2 / c2_1)
            * lg ** (-(rr - 1.0) / k)
            * series.mu(rr, k, n)
            for rr in range(1, k + 1)
        )
        return counts * scale - center
    series._check_r(r, k)
    if r != table.r:
        raise ValueError(f"table was built for r={table.r}, got r={r!r}")
    scale = lg ** (r / k + 1.0) / (n * table.c2)
    return counts * scale - series.mu(r, k, n)
