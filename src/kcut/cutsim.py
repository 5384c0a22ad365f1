"""Simulators for the k-cut process on complete binary trees.

Two views of the same law are implemented:

- ``simulate_process_batch`` -- the literal cutting procedure: repeatedly
  pick a uniform node still connected to the root, increase its counter,
  and detach its subtree once the counter reaches ``k``; stop when the
  root is removed.  Returns the number of cuts.  The samples of a chunk
  cut in lockstep; each carries its connected flags from cut to cut and
  picks through counts of connected nodes per block of about
  ``sqrt(n)`` heap columns, so a pick reads about ``sqrt(n)`` values of
  a sample, not ``n``.
- ``simulate_records_batch`` -- the equivalent clock/record construction:
  each node ``v`` carries cumulative exponential clock sums ``T_{1,v} <
  ... < T_{k,v}``; ``v`` is an ``r``-record iff ``T_{r,v}`` is below the
  minimum ``k``-th clock sum over its proper ancestors.  The total
  record count across ``r`` has the same law as the cut count.  The
  sums are never formed: a clock is ``-log U`` for a uniform ``U``, so
  the running product ``P_{r,v} = U_{1,v} ... U_{r,v}`` is
  ``e^{-T_{r,v}}``, and ``v`` is an ``r``-record iff ``P_{r,v}`` exceeds
  the largest ``P_{k,a}`` of its proper ancestors ``a``.  ``k`` is at
  most 256: ``P_k`` is subnormal only if ``T_k > 708``, with probability
  7e-86 at ``k = 256`` (but 4e-15 at 512).
- ``simulate_edge_records_batch`` -- the edge variant: only non-root
  nodes can be records and the ancestor minimum skips the root
  (equivalently, the root's ``k``-th clock is conditioned to be
  infinite, its product 0, which is how it is computed).

``rescale_counts`` applies the affine normalization under which record
counts converge in law.  The plain single-sample process run and the
exact cut-count law of tiny trees, which the simulators are checked
against, are test oracles in ``tests/oracles.py``.

Randomness is counter-based: sample ``i`` of seed ``s`` always draws
from an SFC64 generator whose state is the Philox block at counter
``i`` under key ``(s, 0)`` (:func:`substream`), so results are
reproducible and independent of how samples are partitioned across
threads or chunks.  Every batch here and in :mod:`kcut.limitdist` runs
through one runner, :func:`_run_batch`, which alone fills the samples'
rows of uniforms: it splits the samples into one contiguous range per
worker thread (:func:`resolve_threads`: all CPUs unless told otherwise;
always one for the process batch), and each worker allocates one block
of rows once, reads the states of a chunk's samples in one Philox call
and fills the chunk's rows from them.  Short rows, as the record,
process and xi batches read on small trees, are drawn by lanes
(:func:`_fill_lanes`): all of a chunk's SFC64 states step together as
numpy ``uint64`` vectors, one column of the chunk's uniforms a step,
where a Python call per sample would cost more than the row.  Longer
rows, and chunks of few samples, re-key one generator per sample
instead (the crossover is ``_LANE_ROW``).  Both give the same bits.
The chunks of all workers together hold at most ``chunk`` samples.  A
record batch sweeps its rows in pieces of as many as fit 8 MB with
their scratch (``_RECORD_VALUES``), so that a piece stays near its
core's L2 cache.  By default its rows drawn per sample come in chunks
of one piece a worker; rows drawn by lanes, and the process batch's
rows, come in chunks that share one 32 MB budget (:func:`_chunk_rows`),
lane scratch included.  The xi batch of :mod:`kcut.limitdist` sizes
its own chunk.
"""

from __future__ import annotations

import math
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

# A record-batch worker sweeps its rows in pieces of as many as fit this
# many float64 values (8 MB) with their ancestor maxima, level temp and
# record mask, so that a piece stays in or near the core's L2 cache
# through the sweep's passes; rows drawn per sample come in chunks of
# one piece.  A larger piece means fewer numpy calls per node, which
# matters on two threads: calls under about 100 us hold the GIL for a
# large share of their time.  Seconds for the three record batches of
# the experiment benchmark (n = 5037, 23822, 51268; k = 2; 2048 samples
# each), best of 15, on 2 CPUs with 2 MB of L2 each: 2**18 values 0.756
# on one thread and 0.479 on two, 2**19 0.814 and 0.484, 2**20 0.858
# and 0.461, one 32 MB chunk shared by the workers and swept whole 1.04
# and 0.527.  Rows drawn by lanes keep 32 MB chunks: a lane step costs
# about the same for 2 000 lanes as for 14 000 (5.3 against 4.2 ns a
# value at 254 values a row).
_RECORD_VALUES = 1 << 20

# Rows of at least this many nodes count each order's records with one
# count_nonzero call a row (about 0.25 us a call plus 0.03-0.1 ns a
# value); shorter rows sum the mask's bytes in one int32 call (0.13 ns a
# value; numpy's bool sum takes 0.27-0.5).  They tie at about 4096 nodes.
_COUNT_ROW = 4096

# Rows of fewer values run on one thread, unless lanes fill them (see
# _worker_count).  Below this the per-sample loop, which holds the GIL,
# dominates and threads lose.  Two threads against one on 2 CPUs, k = 2,
# best of 11, two runs: records filled per sample 1.13-1.19x the time
# at 510 values a row (n = 255; 1.12x in a later run of 20 000 samples),
# 0.96-0.97x at 766, 0.88-0.97x at 1022 and 0.80-0.87x at 1534; xi draws
# 1.07x at 164 values, 1.12-1.20x at 328 and 0.73x at 2059.  Lanes step
# whole numpy vectors, so two workers win on the rows they fill (best
# of 15): records 0.60x at 30 values (n = 15, 100 000 samples), 0.82x
# at 126 (n = 63) and 0.87x at 254 (n = 127), 20 000 samples each.
# The process batch loses at every size measured: 1.11-1.15x at 126
# values, 1.21-1.24x at 510, 1.50-1.54x at 1022 and 1.79-1.87x at 2046.
# Its lockstep sweep is many small numpy calls that hold the GIL (two
# threads take 1.43x one thread's time on its fancy-index gathers, 1.02x
# on its short-axis cumsums), so it always runs on one worker.
_MIN_THREADED_ROW = 1024

# Uniform rows of at most _LANE_ROW values are filled by lanes
# (:func:`_fill_lanes`) in chunks of at least _LANE_ROWS_PER_VALUE rows a
# value; other rows are filled per sample.  A lane step costs about
# 3.5 us however few lanes it has, a re-keyed sample about 1.3 us
# however short its row.  ns a value, lanes against per sample,
# single-threaded, best of 5 or 7, Philox fetch included, on 2 CPUs:
# 8.8 against 161 at 8 values x 10**6 rows; 4.3 against 11.9 at 126 x
# 20 000; 4.2 against 7.2 at 254 x 20 000, 5.4 against 6.7 at 254 x
# 2000, 7.4 against 6.8 at 254 x 1000; 4.5 against 4.2 at 510 x 4096
# and 18 against 1.7 at 10 074 x 256.  At rows = 6 x values lanes win
# or tie: 128 against 184 at 8 values, 8.5 against 11.8 at 126, 6.0
# against 6.6 at 254 (at 4 x values, 7.4 against 6.5 at 254).  Between
# 256 and 512 values they win only in full chunks, by up to 20 %.
_LANE_ROW = 256
_LANE_ROWS_PER_VALUE = 6
# Lanes step this many columns before writing them into the rows
# (32 against 16: 3.8 against 4.3 ns a value at 126 x 20 000).
_LANE_COLUMNS = 32


class _Unseeded(np.random.bit_generator.ISeedSequence):
    """Zero seed words, for a bit generator whose state is set right
    after it is built: a ``SeedSequence`` would spend microseconds
    hashing words that are then overwritten."""

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return np.zeros(n_words, dtype=dtype)


_UNSEEDED = _Unseeded()


def substream(seed: int, sample_index: int) -> np.random.Generator:
    """Generator for one sample: SFC64 whose 256-bit state is the Philox
    block at counter ``sample_index`` under key ``(seed, 0)``.

    This is the package-wide stream-split rule.  Any partition of a
    sample range across threads or processes reproduces identical draws
    because each sample owns its state; Philox serves only as a keyed
    hash of the index, so distinct indices get distinct, effectively
    independent SFC64 streams.  Both arguments are taken modulo
    ``2**64``.  They must be integers, not bools (``ValueError`` naming
    the one that is not).
    """
    seed, sample_index = _as_int("seed", seed), _as_int("sample_index", sample_index)
    return _Restream(seed).at(sample_index)


class _Restream:
    """One SFC64 generator that :meth:`at` re-keys in place to the state
    of a fresh ``substream(seed, i)``.

    :meth:`fetch` reads the states of a range of samples with one Philox
    call (two if the range wraps past index ``2**64 - 1``); :meth:`at`
    then sets each from its row, in under 1 us a sample.
    """

    def __init__(self, seed: int) -> None:
        self._philox = np.random.Philox(_UNSEEDED)
        self._gen = np.random.Generator(np.random.SFC64(_UNSEEDED))
        # The state setters copy what they are given, so these dicts are
        # reused: _blocks sets the counter, at the SFC64 words.
        self._keys = {
            "bit_generator": "Philox",
            "state": {"counter": None, "key": [seed & _MASK64, 0]},
            "buffer": [0] * 4,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        self._state = {
            "bit_generator": "SFC64",
            "state": {"state": None},
            "has_uint32": 0,
            "uinteger": 0,
        }
        self._first, self._states = 0, ()

    def _blocks(self, start: int, count: int) -> np.ndarray:
        # Philox blocks at counters start .. start + count - 1, for
        # 0 <= start <= start + count <= 2**64.  Numpy's Philox adds 1 to
        # its 256-bit counter before each block, so it starts one below:
        # 2**256 - 1 for start = 0.
        below = [(start - 1) & _MASK64] + [0 if start else _MASK64] * 3
        self._keys["state"]["counter"] = below
        self._philox.state = self._keys
        return self._philox.random_raw(4 * count).reshape(count, 4)

    def fetch(self, first: int, count: int) -> np.ndarray:
        """Read the states of samples ``first .. first + count - 1`` and
        return them, one row of four SFC64 words a sample."""
        self._states = ()  # free the last range's states first
        start = first & _MASK64
        head = min(count, _MASK64 + 1 - start)
        states = self._blocks(start, head)
        if head < count:  # the indices wrap to 0 mid-range
            states = np.concatenate([states, self._blocks(0, count - head)])
        self._first, self._states = first, states
        return states

    def at(self, sample_index: int) -> np.random.Generator:
        row = sample_index - self._first
        if not 0 <= row < len(self._states):
            self.fetch(sample_index, 1)
            row = 0
        self._state["state"]["state"] = self._states[row]
        self._gen.bit_generator.state = self._state
        return self._gen


def _lane_words(row_values: int) -> int:
    """Scratch words a lane of :func:`_fill_lanes` takes on rows of
    ``row_values`` values: its column block and five state words."""
    return min(_LANE_COLUMNS, row_values) + 5


def _fill_lanes(states: np.ndarray, rows: np.ndarray, scratch: np.ndarray) -> None:
    """Fill row ``j`` of ``rows`` with the first uniforms of the SFC64
    generator in state ``states[j]``, as its ``random(out=rows[j])``
    would, bit for bit.

    The generators step together, one lane each: word ``j`` of the
    vectors ``a, b, c, w`` is generator ``j``'s state, and a step is
    numpy's ``sfc64_next`` and ``next_double`` on whole vectors::

        tmp = a + b + w;  w += 1;  a = b ^ (b >> 11)
        b = c + (c << 3);  c = rotl(c, 24) + tmp
        value = (tmp >> 11) * 2**-53

    uint64 arrays wrap silently (numpy scalars would warn), so every
    operand here is an array.  The outputs of a block of steps, one
    column each, are written into the rows together.  ``scratch`` is a
    uint64 array of :func:`_lane_words` rows and at least
    ``len(states)`` columns, one a lane.
    """
    count, values = rows.shape
    width = len(scratch) - 5
    cols = scratch[:width, :count]
    a, b, c, w, s = scratch[width:, :count]
    np.copyto(scratch[width : width + 4, :count], states.T)
    for first in range(0, values, width):
        block = cols[: min(width, values - first)]
        for tmp in block:
            np.add(a, b, out=tmp)
            tmp += w
            w += 1
            np.right_shift(b, 11, out=a)
            a ^= b
            np.multiply(c, 9, out=b)  # c + (c << 3)
            np.right_shift(c, 40, out=s)
            c <<= 24
            c |= s
            c += tmp
        block >>= 11
        np.multiply(block.T, 2.0**-53, out=rows[:, first : first + len(block)])


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


def _chunk_rows(floats_per_row: int, chunk: int | None = None) -> int:
    """Samples in flight at once in one batch call, over all its
    workers: ``chunk`` if given, else as many as keep the largest
    per-sample scratch array within 2**22 float64 values (32 MB).  The
    record batches pass their own chunk (see ``_RECORD_VALUES``), and so
    does the xi batch.  Draws never depend on the chunk."""
    if chunk is None:
        return max(1, _SCRATCH_VALUES // floats_per_row)
    chunk = _as_int("chunk", chunk)
    if chunk < 1:
        raise ValueError(f"chunk must be a positive integer, got {chunk!r}")
    return chunk


def _worker_count(n_rows: int, row_values: int, threads: int | None) -> int:
    """Workers for ``n_rows`` rows of work of ``row_values`` values each:
    :func:`resolve_threads` of ``threads``, capped at ``n_rows``.  Rows
    of fewer than ``_MIN_THREADED_ROW`` values get one worker, except
    rows that lanes may fill (at most ``_LANE_ROW`` values): they get as
    many as leave each at least ``_LANE_ROWS_PER_VALUE * row_values``
    rows, and at least one."""
    workers = min(resolve_threads(threads), max(n_rows, 1))
    if row_values >= _MIN_THREADED_ROW:
        return workers
    if row_values <= _LANE_ROW:
        lane_rows = _LANE_ROWS_PER_VALUE * row_values
        return max(1, min(workers, n_rows // lane_rows))
    return 1


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
    worker: Callable[[np.ndarray, np.ndarray], Callable[[int, int], None]],
    result: tuple[tuple[int, ...], type] = ((), np.float64),
) -> np.ndarray:
    """Run one batch of samples ``0 .. n_samples - 1`` on worker threads
    and return its output, an array of shape ``(n_samples, *shape)`` and
    type ``dtype`` for ``result = (shape, dtype)``.

    ``n_samples``, ``seed`` and ``first_index`` must be integers, not
    bools (``ValueError`` naming the one that is not); ``n_samples`` is
    at least 0.  ``row_values`` is the number of uniforms a sample reads
    up front; without a ``chunk``, the batch's 32 MB budget
    (:func:`_chunk_rows`) counts them, plus the lane scratch where lanes
    may fill the rows, per sample; the record and xi batches pass their
    own chunks.  The samples are split into one contiguous range per
    worker.  For each worker, a ``(rows, row_values)`` float64 block is
    allocated and ``worker(block, out)`` is called once; it allocates
    the rest of its scratch and returns ``sweep``.  Then, chunk by
    chunk, row ``j`` of
    the block takes the first ``row_values`` uniforms of the generator
    keyed ``(seed, first_index + lo + j)``, for sample ``lo + j``, and
    ``sweep(lo, hi)`` finishes samples ``lo .. hi - 1`` into ``out``
    from the first ``hi - lo`` rows.  Each sample owns its key, so the
    results do not depend on the worker count or the chunk.

    Rows of at most ``_LANE_ROW`` values are filled by lanes
    (:func:`_fill_lanes`, all of a chunk's generators stepped together)
    where the chunk holds at least ``_LANE_ROWS_PER_VALUE * row_values``
    samples, since a step costs about as much for one lane as for
    hundreds.  Every other row is filled per sample, one re-keyed
    generator and one call each.  Both give the same bits.

    The workers are :func:`_worker_count` of ``row_values`` and of the
    samples, capped at :func:`_chunk_rows`, which the workers share.
    Rows short enough for lanes run on as many workers as leave each
    chunk enough samples for lanes.
    """
    n_samples = _as_int("n_samples", n_samples)
    if n_samples < 0:
        raise ValueError(f"n_samples must be nonnegative, got {n_samples}")
    seed, first_index = _as_int("seed", seed), _as_int("first_index", first_index)
    shape, dtype = result
    out = np.empty((n_samples, *shape), dtype=dtype)
    lanes = row_values <= _LANE_ROW
    row_scratch = row_values + (_lane_words(row_values) if lanes else 0)
    in_flight = _chunk_rows(row_scratch, chunk)
    workers = _worker_count(min(n_samples, in_flight), row_values, threads)
    rows = in_flight // workers
    min_lane_rows = _LANE_ROWS_PER_VALUE * row_values
    if n_samples == 0:
        return out

    def start(lo: int, hi: int) -> Callable[[], None]:
        block = np.empty((min(rows, hi - lo), row_values))
        sweep = worker(block, out)
        scratch = None
        if lanes and len(block) >= min_lane_rows:
            shape = (_lane_words(row_values), len(block))
            scratch = np.empty(shape, dtype=np.uint64)

        def run() -> None:
            stream = _Restream(seed)
            for a in range(lo, hi, rows):
                b = min(a + rows, hi)
                if scratch is not None and b - a >= min_lane_rows:
                    _fill_lanes(
                        stream.fetch(first_index + a, b - a), block[: b - a], scratch
                    )
                else:
                    stream.fetch(first_index + a, b - a)
                    for j in range(b - a):
                        stream.at(first_index + a + j).random(out=block[j])
                sweep(a, b)

        return run

    _on_workers(n_samples, workers, start)
    return out


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

    Each sample draws its ``k * n`` uniforms order-major, as ``(k, n)``
    (the ``n`` nodes' first uniforms, then their second, ...), from its
    own substream, and turns them into the running products ``P_r =
    e^{-T_r}`` along the orders.  A worker sweeps its chunk in pieces of
    as many rows as fit ``_RECORD_VALUES`` (8 MB) with their ancestor
    maxima, level temp and record mask, so that a piece stays near the
    core's L2 cache through the sweep.  Without a ``chunk``, rows drawn
    per sample come one piece a worker at a time, and rows drawn by
    lanes in one 32 MB chunk shared by the workers, since a lane step
    costs about as much for few lanes as for many.  The ancestor maxima
    of ``P_k`` come from a level sweep vectorized across the piece: each
    level's parent maxima go once into a contiguous temp, and from there
    to the first and the second children.  Then one comparison ``P_r >
    max`` for every order fills a ``(rows, k, n)`` mask, which is counted
    row by row (one call a row on rows of at least ``_COUNT_ROW`` nodes,
    one call a piece on shorter rows).  A tie (probability zero) is not
    a record.  A uniform of exactly 0 (probability 2**-53 a value) is an
    infinite clock: no record of its order or later, and no bound on its
    descendants.  The edge variant is the node sweep with the root's
    ``P_k`` set to 0 and the root left out of the counts.
    """
    _check_k(k)
    if k > 256:  # P_k stays a normal double: see the module docstring
        raise ValueError(f"k must be at most 256 for records, got {k}")
    n, m = tree.n, tree.max_height
    row_values = k * n
    # The most parents a level has: 2**(m - 2) above level m - 1, or half
    # the last level's n - 2**m + 1 nodes, rounded up.
    width = max(1 << m >> 2, (n - (1 << m) + 2) // 2)
    # A row's uniforms, ancestor maxima, level temp and mask bytes; a
    # piece, the rows swept at a time, holds _RECORD_VALUES of them.
    row_scratch = row_values + n + width + -(-row_values // 8)
    piece = max(1, _RECORD_VALUES // row_scratch)
    if chunk is None and row_values <= _LANE_ROW:  # drawn by lanes
        chunk = _chunk_rows(row_scratch + _lane_words(row_values))
    elif chunk is None:
        n_samples = _as_int("n_samples", n_samples)
        chunk = _worker_count(n_samples, row_values, threads) * piece

    def worker(block: np.ndarray, out: np.ndarray):
        t = block.reshape(len(block), k, n)
        rows = min(len(block), piece)
        # anc[:, v-1] = max of k-th products over proper ancestors of v.
        anc = np.empty((rows, n))
        anc[:, 0] = 0.0
        up = np.empty((rows, width))
        mask = np.empty((rows, k, n), dtype=bool)

        def sweep(lo: int, hi: int) -> None:
            for first in range(lo, hi, rows):
                last = min(first + rows, hi)
                sweep_piece(t[first - lo : last - lo], out[first:last])

        def sweep_piece(tc: np.ndarray, counts: np.ndarray) -> None:
            c = len(tc)
            ac, uc = anc[:c], up[:c]
            for r in range(1, k):
                tc[:, r] *= tc[:, r - 1]
            if edge:
                tc[:, k - 1, 0] = 0.0
            pk = tc[:, k - 1]
            # Level h holds nodes a .. b - 1, children of the w nodes of
            # the level above, two apiece in order: their maxima go to a
            # contiguous temp, then to the first and second children.
            for h in range(1, m + 1):
                a, b = 1 << h, min(2 << h, n + 1)
                w = (b - a + 1) // 2
                par = slice(a // 2 - 1, a // 2 - 1 + w)
                u = uc[:, :w]
                np.maximum(ac[:, par], pk[:, par], out=u)
                ac[:, a - 1 : b - 1 : 2] = u
                ac[:, a : b - 1 : 2] = u[:, : (b - a) // 2]
            is_record = mask[:c]
            np.greater(tc, ac[:, None, :], out=is_record)
            if edge:
                is_record[:, :, 0] = False
            if n < _COUNT_ROW:  # the count fits int32
                counts[:] = is_record.view(np.uint8).sum(axis=2, dtype=np.int32)
            else:
                counts.reshape(-1)[:] = [
                    np.count_nonzero(row) for row in is_record.reshape(c * k, n)
                ]

        return sweep

    return _run_batch(
        n_samples, row_values, seed, first_index, chunk, threads, worker,
        result=((k,), np.int64),
    )


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

    Column ``r - 1`` holds ``X_{n,r}``, for ``k`` at most 256.  Sample
    ``i`` reads its ``k * n`` uniforms, order-major, from substream
    ``(seed, first_index + i)``, so disjoint ranges computed anywhere
    assemble into the same sequence.  ``chunk`` (samples in flight at
    once, shared by the ``threads`` workers; see :func:`resolve_threads`)
    defaults to one piece a worker, as many rows as fit 8 MB with their
    ancestor maxima, level temp and record mask, or to 32 MB shared by
    the workers where lanes draw the rows (``n * k`` at most 256).
    Neither changes the output.
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
) -> np.ndarray:
    """Vectorized cut-count totals from the direct process, shape
    ``(n_samples,)``.

    All samples of a chunk advance in lockstep, one cut per step.  Each
    sample keeps its node counters, its connected flags and the number
    of connected nodes in each block of ``2**ceil(lg(n + 1) / 2)`` heap
    columns, so a pick reads about ``sqrt(n)`` values per sample.  It
    takes ``j = floor(u * count)`` and finds the ``(j + 1)``-th connected
    node in heap order: the block from a cumulative sum of the block
    counts, the node from one over that block.  When a node's counter
    reaches ``k``, its subtree's flags are cleared level by level: at
    depth ``d`` below ``v`` it is the heap range ``v * 2**d .. (v + 1) *
    2**d - 1``, which lies inside one block or covers whole ones.
    Sample ``i`` consumes the uniforms of substream ``(seed,
    first_index + i)`` in cut order, one per cut.
    ``chunk`` (samples in flight at once) defaults to the package's
    32 MB scratch budget for the ``k * n`` uniforms of a sample; it does
    not change the output.  The sweep is many small numpy calls that
    hold the GIL, so the batch runs on one worker whatever
    ``KCUT_THREADS`` says.
    """
    _check_k(k)
    n = tree.n
    # A node's counter reaches k, so int16 holds it only for k < 2**15.
    counter = np.int16 if k < 1 << 15 else np.int64
    # Columns 0 .. n in blocks of 2**shift; column 0 is never connected.
    shift = (n.bit_length() + 1) // 2
    width, blocks = 1 << shift, (n >> shift) + 1

    def worker(u: np.ndarray, out: np.ndarray):
        # Every cut consumes exactly one uniform, and there are at most
        # k*n cuts, so the whole per-sample stream is drawn up front.
        rows = len(u)
        cnt = np.empty((rows, n + 1), dtype=counter)
        conn = np.empty((rows, blocks, width), dtype=bool)
        flat = conn.reshape(rows, blocks * width)
        per = np.empty((rows, blocks), dtype=np.int64)

        def clear(rs: np.ndarray, vs: np.ndarray) -> None:
            # Disconnect the subtree of node vs[i] in row rs[i], one
            # depth below it at a time, keeping the block counts.
            d = 0
            while rs.size:
                first = vs << d
                if d <= shift:
                    b = first >> shift
                    cols = (first & (width - 1))[:, None] + np.arange(1 << d)
                    at = (rs[:, None], b[:, None], cols)
                    per[rs, b] -= conn[at].sum(axis=1)
                    conn[at] = False
                else:
                    b = (first >> shift)[:, None] + np.arange(1 << (d - shift))
                    r = np.broadcast_to(rs[:, None], b.shape)
                    inside = b < blocks
                    at = (r[inside], b[inside])
                    per[at] = 0
                    conn[at] = False
                d += 1
                deeper = (vs << d) <= n
                rs, vs = rs[deeper], vs[deeper]

        def sweep(lo: int, hi: int) -> None:
            # Row i of u, cnt, conn and per belongs to sample lo + i;
            # live holds the unfinished ones, which cut once per step.
            live = np.arange(hi - lo)
            a = live.size
            cnt[:a] = 0
            flat[:a] = False
            flat[:a, 1 : n + 1] = True
            per[:a] = conn[:a].sum(axis=2)
            step = 0
            while live.size:
                below = np.cumsum(per[live], axis=1)
                counts = below[:, -1]
                j = np.floor(u[live, step] * counts).astype(np.int64)
                j = np.minimum(j, counts - 1)
                # Block b holds the (j+1)-th connected node; j becomes
                # its rank among the connected nodes of that block.
                b = (below <= j[:, None]).sum(axis=1)
                j -= below[np.arange(live.size), b] - per[live, b]
                seen = np.cumsum(conn[live, b], axis=1)
                pick = b * width + (seen <= j[:, None]).sum(axis=1)
                hits = cnt[live, pick] + 1
                cnt[live, pick] = hits
                # The root's k-th hit ends a sample; any other node's
                # disconnects its subtree.
                dead = hits == k
                finished = dead & (pick == 1)
                dead &= ~finished
                if dead.any():
                    clear(live[dead], pick[dead])
                step += 1
                if finished.any():
                    out[lo + live[finished]] = step
                    live = live[~finished]

        return sweep

    return _run_batch(
        n_samples, k * n, seed, first_index, chunk, 1, worker,
        result=((), np.int64),
    )


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
