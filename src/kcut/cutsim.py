"""Simulators for the k-cut process on complete binary trees.

Two views of the same law are implemented:

- ``simulate_process_batch`` -- the literal cutting procedure: repeatedly
  pick a uniform node still connected to the root, increase its counter,
  and detach its subtree once the counter reaches ``k``; stop when the
  root is removed.  Returns the number of cuts.  ``simulate_process``
  runs one sample the plain, non-vectorized way and is the reference
  the batch is tested against.
- ``simulate_records_batch`` -- the equivalent clock/record construction:
  each node ``v`` carries cumulative exponential clock sums ``T_{1,v} <
  ... < T_{k,v}``; ``v`` is an ``r``-record iff ``T_{r,v}`` is below the
  minimum ``k``-th clock sum over its proper ancestors.  The total
  record count across ``r`` has the same law as the cut count.
- ``simulate_edge_records_batch`` -- the edge variant: only non-root
  nodes can be records and the ancestor minimum skips the root
  (equivalently, the root's ``k``-th clock is conditioned to be
  infinite, which is how it is computed).

``brute_force_distribution`` computes the exact cut-count law for tiny
trees by dynamic programming and serves as the verification oracle for
both simulators.  ``rescale_counts`` applies the affine normalization
under which record counts converge in law.

Randomness is counter-based: sample ``i`` of seed ``s`` always draws
from a Philox generator keyed ``(s, i)``, so results are reproducible
and independent of how samples are partitioned across threads or
chunks.  Batches run in chunks of samples sized by one rule,
:func:`_chunk_rows`, unless the caller passes ``chunk``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import series

__all__ = [
    "CompleteTree",
    "simulate_process",
    "simulate_process_batch",
    "simulate_records_batch",
    "simulate_edge_records_batch",
    "brute_force_distribution",
    "rescale_counts",
    "substream",
]

_MASK64 = (1 << 64) - 1


def substream(seed: int, sample_index: int) -> np.random.Generator:
    """Generator for one sample: Philox keyed by ``(seed, sample_index)``.

    This is the package-wide stream-split rule.  Any partition of a
    sample range across threads or processes reproduces identical draws
    because each sample owns its counter-based key.
    """
    key = np.array(
        [seed & _MASK64, sample_index & _MASK64], dtype=np.uint64
    )
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class CompleteTree:
    """Complete binary tree on ``n`` nodes with implicit 1-based heap
    indexing: node ``i`` has children ``2i`` and ``2i+1`` when those are
    at most ``n``; every level is full except possibly the last, whose
    nodes occupy the leftmost positions."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"tree needs n >= 1 nodes, got {self.n!r}")

    @property
    def max_height(self) -> int:
        """Height of the deepest level, ``m = floor(lg n)``."""
        return self.n.bit_length() - 1

    def height(self, i: int) -> int:
        """Depth of node ``i``; the root (i=1) has height 0."""
        if not 1 <= i <= self.n:
            raise ValueError(f"node index {i} outside [1, {self.n}]")
        return i.bit_length() - 1

    def level_count(self, h: int) -> int:
        """Number of nodes at height ``h``."""
        m = self.max_height
        if h < 0 or h > m:
            return 0
        if h < m:
            return 1 << h
        return self.n - ((1 << m) - 1)

    def subtree_size(self, i: int) -> int:
        """Nodes in the subtree rooted at ``i``, via interval clamping:
        the descendants of ``i`` at depth ``d`` below it occupy indices
        ``[i * 2**d, (i + 1) * 2**d - 1]`` intersected with ``[1, n]``."""
        if not 1 <= i <= self.n:
            raise ValueError(f"node index {i} outside [1, {self.n}]")
        size = 0
        lo, hi = i, i
        while lo <= self.n:
            size += min(hi, self.n) - lo + 1
            lo, hi = 2 * lo, 2 * hi + 1
        return size


def _check_k(k: int) -> None:
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")


def _chunk_rows(floats_per_row: int, chunk: int | None = None) -> int:
    """Samples per chunk of a batch: ``chunk`` if given, else as many as
    keep the largest per-sample scratch array within 2**22 float64
    values (32 MB).  Draws never depend on the chunk."""
    if chunk is None:
        return max(1, (1 << 22) // floats_per_row)
    if chunk < 1:
        raise ValueError(f"chunk must be a positive integer, got {chunk!r}")
    return chunk


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
) -> np.ndarray:
    """Per-order record counts for samples ``first_index ..
    first_index + n_samples - 1`` as an ``(n_samples, k)`` int64 array.

    Each sample draws its ``(n, k)`` exponentials node-major from its own
    substream; the ancestor minima come from a level sweep vectorized
    across the chunk.  A node whose ``r``-th clock sum ties an ancestor
    minimum exactly (a probability-zero event) is not a record.  The
    edge variant is the node sweep with the root's ``k``-th clock set to
    infinity and the root's row dropped.
    """
    _check_k(k)
    if n_samples < 0:
        raise ValueError("n_samples must be nonnegative")
    n = tree.n
    chunk = _chunk_rows(n * k, chunk)
    out = np.empty((n_samples, k), dtype=np.int64)
    for done in range(0, n_samples, chunk):
        c = min(chunk, n_samples - done)
        t = np.empty((c, n, k))
        for i in range(c):
            rng = substream(seed, first_index + done + i)
            rng.standard_exponential(out=t[i])
        for r in range(1, k):
            t[:, :, r] += t[:, :, r - 1]
        if edge:
            t[:, 0, k - 1] = np.inf
        tk = t[:, :, k - 1]
        # anc[:, v-1] = min of k-th clocks over proper ancestors of v.
        # Level h holds nodes 2**h .. 2**(h+1) - 1, children of the
        # level above taken in order, two apiece.
        anc = np.empty((c, n))
        anc[:, 0] = np.inf
        for h in range(1, tree.max_height + 1):
            lo, hi = 1 << h, min(2 << h, n + 1)
            up = slice(lo // 2 - 1, lo - 1)
            above = np.minimum(anc[:, up], tk[:, up])
            anc[:, lo - 1 : hi - 1] = np.repeat(above, 2, axis=1)[:, : hi - lo]
        is_record = t < anc[:, :, None]
        out[done : done + c] = is_record[:, int(edge) :].sum(axis=1)
    return out


def simulate_records_batch(
    tree: CompleteTree,
    k: int,
    seed: int,
    n_samples: int,
    first_index: int = 0,
    chunk: int | None = None,
) -> np.ndarray:
    """Node-variant record counts, shape ``(n_samples, k)``.

    Column ``r - 1`` holds ``X_{n,r}``.  Sample ``i`` uses substream
    ``(seed, first_index + i)``, so disjoint ranges computed anywhere
    assemble into the same sequence.  ``chunk`` (samples per pass)
    defaults to the package's 32 MB scratch budget.
    """
    return _records_batch(tree, k, seed, n_samples, first_index, False, chunk)


def simulate_edge_records_batch(
    tree: CompleteTree,
    k: int,
    seed: int,
    n_samples: int,
    first_index: int = 0,
    chunk: int | None = None,
) -> np.ndarray:
    """Edge-variant record counts, shape ``(n_samples, k)``; otherwise
    as :func:`simulate_records_batch`, and coupled with it per sample."""
    return _records_batch(tree, k, seed, n_samples, first_index, True, chunk)


# ---------------------------------------------------------------------------
# Direct process simulation.
# ---------------------------------------------------------------------------


def simulate_process(
    tree: CompleteTree, k: int, seed: int, sample_index: int = 0
) -> int:
    """Run the cutting procedure once and return the number of cuts
    until the root dies.

    This is the plain reference that :func:`simulate_process_batch` is
    tested against row for row.  Each step selects uniformly among nodes
    whose own counter and all of whose ancestors' counters are still
    below ``k`` (reachability is evaluated lazily from the counters;
    detached subtrees are never updated).  One uniform variate is
    consumed per cut.
    """
    _check_k(k)
    rng = substream(seed, sample_index)
    n = tree.n
    cnt = [0] * (n + 1)
    total = 0
    while True:
        connected: list[int] = []
        alive = [False] * (n + 1)
        for v in range(1, n + 1):
            if cnt[v] < k and (v == 1 or alive[v >> 1]):
                alive[v] = True
                connected.append(v)
        pick = connected[int(rng.random() * len(connected))]
        cnt[pick] += 1
        total += 1
        if pick == 1 and cnt[1] == k:
            return total


def simulate_process_batch(
    tree: CompleteTree,
    k: int,
    seed: int,
    n_samples: int,
    first_index: int = 0,
    chunk: int | None = None,
) -> np.ndarray:
    """Vectorized cut-count totals from the direct process, shape
    ``(n_samples,)``.

    All samples of a chunk advance in lockstep: each step rebuilds the
    connected set from the counters by a parent-to-child sweep, then
    every unfinished sample picks one uniform connected node.  Sample
    ``i`` consumes the uniforms of substream ``(seed, first_index + i)``
    in cut order, one per cut, exactly like :func:`simulate_process`.
    ``chunk`` (samples per pass) defaults to the package's 32 MB scratch
    budget for the ``k * n`` uniforms of a sample.
    """
    _check_k(k)
    if n_samples < 0:
        raise ValueError("n_samples must be nonnegative")
    n = tree.n
    chunk = _chunk_rows(k * n, chunk)
    out = np.empty(n_samples, dtype=np.int64)
    # A node's counter reaches k, so int16 holds it only for k < 2**15.
    counter = np.int16 if k < 1 << 15 else np.int64
    levels = [
        np.arange(1 << h, min((1 << (h + 1)) - 1, n) + 1)
        for h in range(1, tree.max_height + 1)
    ]
    for done in range(0, n_samples, chunk):
        c = min(chunk, n_samples - done)
        # Every cut consumes exactly one uniform, and there are at most
        # k*n cuts, so the whole per-sample stream can be drawn up front.
        u = np.empty((c, k * n))
        for i in range(c):
            u[i] = substream(seed, first_index + done + i).random(k * n)
        cnt = np.zeros((c, n + 1), dtype=counter)
        totals = np.zeros(c, dtype=np.int64)
        active = np.arange(c)
        step = 0
        while active.size:
            sub = cnt[active]
            conn = np.zeros((active.size, n + 1), dtype=bool)
            conn[:, 1] = sub[:, 1] < k
            for idx in levels:
                conn[:, idx] = conn[:, idx >> 1] & (sub[:, idx] < k)
            counts = conn.sum(axis=1)
            j = np.floor(u[active, step] * counts).astype(np.int64)
            j = np.minimum(j, counts - 1)
            cum = np.cumsum(conn, axis=1)
            pick = (cum <= j[:, None]).sum(axis=1)
            cnt[active, pick] += 1
            totals[active] += 1
            finished = (pick == 1) & (cnt[active, 1] == k)
            if finished.any():
                sel = active[finished]
                out[done + sel] = totals[sel]
                active = active[~finished]
            step += 1
    return out


# ---------------------------------------------------------------------------
# Exact tiny-instance oracle.
# ---------------------------------------------------------------------------

_BRUTE_MAX_N = 4
_BRUTE_MAX_K = 3


def brute_force_distribution(n: int, k: int) -> dict[int, Fraction]:
    """Exact pmf of the total cut count, by enumeration.

    States are the per-node counter vectors; transition probabilities
    are uniform over the connected set.  Only feasible for ``n <= 4``,
    ``k <= 3`` (the configured caps).
    """
    if not 1 <= n <= _BRUTE_MAX_N:
        raise ValueError(f"brute force capped at n <= {_BRUTE_MAX_N}")
    if not 1 <= k <= _BRUTE_MAX_K:
        raise ValueError(f"brute force capped at k <= {_BRUTE_MAX_K}")

    @lru_cache(maxsize=None)
    def remaining(state: tuple[int, ...]) -> tuple[tuple[int, Fraction], ...]:
        connected = [
            v
            for v in range(1, n + 1)
            if state[v - 1] < k
            and all(state[(v >> s) - 1] < k for s in range(1, v.bit_length()))
        ]
        p = Fraction(1, len(connected))
        dist: dict[int, Fraction] = {}
        for v in connected:
            nxt = list(state)
            nxt[v - 1] += 1
            if v == 1 and nxt[0] == k:
                dist[1] = dist.get(1, Fraction(0)) + p
                continue
            for more, q in remaining(tuple(nxt)):
                dist[more + 1] = dist.get(more + 1, Fraction(0)) + p * q
        return tuple(sorted(dist.items()))

    return dict(remaining((0,) * n))


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
    if not 1 <= r <= k:
        raise ValueError(f"r must lie in [1, k={k}], got {r!r}")
    if r != table.r:
        raise ValueError(f"table was built for r={table.r}, got r={r!r}")
    scale = lg ** (r / k + 1.0) / (n * table.c2)
    return counts * scale - series.mu(r, k, n)
