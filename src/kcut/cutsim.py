"""Simulators for the k-cut process on complete binary trees.

Two views of the same law are implemented:

- ``simulate_process_batch`` -- the literal cutting procedure: repeatedly
  pick a uniform node still connected to the root, increase its counter,
  and detach its subtree once the counter reaches ``k``; stop when the
  root is removed.  Returns the number of cuts.  The samples of a chunk
  cut in lockstep; each carries its connected flags from cut to cut as
  bits, 64 heap columns a 64-bit word, with the number of connected
  nodes in each word.  A pick reads the ``n / 64`` word counts and one
  word of a sample, not ``n`` flags, and a removal clears the subtree's
  words in a fixed number of numpy calls, whatever its depth.
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
Rows drawn per sample of fewer than ``_SERIAL_FILL_ROW`` values are
filled one worker at a time, while the others sweep, because each
re-key holds the GIL.  The chunks of all workers together hold at most
a batch's chunk of samples; only the record batches take it as an
input.

Memory: a record-batch worker holds at most 8 MB of scratch
(``_RECORD_VALUES``) at any ``n`` and ``k``, plus the output it was
asked for.  It sweeps its rows in pieces of as many as fit 8 MB with
their scratch, lane scratch included, so that a piece stays near its
core's L2 cache, and by default its rows come in chunks of one piece.
A sample whose row does not fit 8 MB with its scratch
(``_SPLIT_SCRATCH``, a constant of its own) is swept by bottom
subtrees instead: the top levels, then the bottom subtrees in
heap order, in groups that fit one piece, one sample on one worker at a
time.  The process batch's rows come in chunks that share one 32 MB
budget (:func:`_chunk_rows`), lane scratch included, besides its
per-tree table.  The xi batch of :mod:`kcut.limitdist` sizes its own
chunk.
"""

from __future__ import annotations

import functools
import math
import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from threading import Lock

import numpy as np

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
# and 0.527.  Rows drawn by lanes come in pieces too, their lane words
# counted: a row's scratch is then at most about 650 values, so a piece
# holds 1 600 rows or more, at least _LANE_ROWS_PER_VALUE a value.  A
# lane step costs a little more on few lanes (5.3 against 4.2 ns a value
# at 254 values a row, 2 000 lanes against 14 000).  This is the one
# scratch budget of a record-batch worker, at any n and k.
_RECORD_VALUES = 1 << 20

# A record sample whose row does not fit _SPLIT_SCRATCH values (8 MB) with
# its scratch (_row_scratch) is swept by bottom subtrees (see
# _records_by_subtrees), in a draw order of its own.  This is a constant
# of its own, not _RECORD_VALUES, so that draws never depend on the
# budget.  The record trees of the tests and the benchmark (n = 2**18 at
# k = 2 the largest, 917 504 values with its scratch) stay below it, so
# their draws are those of the whole-row sweep.  A bottom subtree holds
# at most _SUBTREE_VALUES uniforms: 2**16 - 1 nodes at k = 2, 511 at
# k = 256.
_SPLIT_SCRATCH = 1 << 20
_SUBTREE_VALUES = 1 << 17

# Rows of at least this many nodes count each order's records with one
# count_nonzero call a row (about 0.25 us a call plus 0.03-0.1 ns a
# value); shorter rows sum the mask's bytes in one int32 call (0.13 ns a
# value; numpy's bool sum takes 0.27-0.5).  They tie at about 4096 nodes.
_COUNT_ROW = 4096

# Rows of fewer values run on one thread, unless lanes fill them (see
# _worker_count).  Below this the per-sample loop, which holds the GIL,
# dominates and threads lose.  Two threads against one on 2 CPUs, k = 2,
# best of 11, two runs, before rows were filled one worker at a time
# (_SERIAL_FILL_ROW): records filled per sample 1.13-1.19x the time
# at 510 values a row (n = 255; 1.12x in a later run of 20 000 samples),
# 0.96-0.97x at 766, 0.88-0.97x at 1022 and 0.80-0.87x at 1534; xi draws
# 1.07x at 164 values and 1.12-1.20x at 328.  Since (median of 15 or
# 21): records 1.35x at 510 values in 2000 samples (one chunk a worker,
# so no fill overlaps a sweep) but 0.82x in 20 000, 0.84x at 1022
# (4891 samples); xi draws 0.68x at 2059 (n = 2**40, k = 2).  Lanes step
# whole numpy vectors, so two workers win on the rows they fill (best
# of 15): records 0.60x at 30 values (n = 15, 100 000 samples), 0.82x
# at 126 (n = 63) and 0.87x at 254 (n = 127), 20 000 samples each.
# Rows drawn per sample of at least this many values get a second worker
# only where each worker takes more than one chunk: two workers with one
# chunk each ran k = 2 records at 23.6 against 17.7 ns a node-sample on
# one at 2046 values (n = 1023, 580 samples) and 19.1 against 12.8 at
# 4094 (n = 2047, 280 samples), median of 15 calls.  The process batch,
# with its sweep on bit-packed flags, takes 2.0x one worker's time on
# two at 126 values (2000 samples), 2.1x at 510 (2000), 2.0x at 1022
# (1000) and 1.9x at 2046 (500) with one chunk a worker, and 2.1-2.5x
# with two (median of 7): its lockstep sweep is many small numpy calls
# that hold the GIL, so it always runs on one worker.
_MIN_THREADED_ROW = 1024

# Rows drawn per sample of fewer values than this are filled one worker
# at a time: a batch's workers share one lock, held while a worker reads
# a chunk's states and re-keys and fills its rows, and sweep without it.
# A re-key holds the GIL for about 0.8 us between short GIL-free
# random(out=) calls, so workers that fill short rows together queue on
# the GIL after every row; under the lock one fills while another
# sweeps.  Longer rows spend long enough in random(out=) that filling
# together wins.  Measured on 2 vCPUs only: two workers, median of 15
# calls, median of three processes, no lock against the lock at every
# length; records (k = 2) in ns a node-sample, xi draws ((1, 2)) in us:
#
#   values a row    2046   3070   4094   6142  10074  20478 | xi 2059  4041
#   no lock        10.19   6.60   5.46   4.19   4.07   3.54 |   16.24 24.43
#   locked          5.90   5.25   4.97   4.52   4.43   3.98 |   10.83 20.52
#
# (-42, -20, -9, +8, +9, +12 %; xi -33 and -16 %.)  Lane fills take no
# lock: under it, records on two workers were 12-16 % slower at 30
# values a row (n = 15, 100 000 samples) and 5 % faster at 126 (n = 63,
# 20 000 samples).
_SERIAL_FILL_ROW = 4096

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


def _int_in(name: str, value, lo: int, hi: int | None = None) -> int:
    """``value`` as a Python int in ``[lo, hi]`` (``hi`` None: no upper
    bound), by :func:`_as_int`; a bool, a non-integer or a value out of
    range raises ``ValueError`` naming ``name``.  The one check of the
    package's k and r."""
    value = _as_int(name, value)
    if value < lo or (hi is not None and value > hi):
        bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} must be an integer {bounds}, got {value!r}")
    return value


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


def _chunk_rows(floats_per_row: int, chunk: int | None = None) -> int:
    """Samples in flight at once in one batch call, over all its
    workers: ``chunk`` if given, else as many as keep the largest
    per-sample scratch array within 2**22 float64 values (32 MB).  The
    record batches pass their own chunk, one piece a worker (see
    ``_RECORD_VALUES``), and so does the xi batch.  Draws never depend on
    the chunk."""
    if chunk is None:
        return max(1, _SCRATCH_VALUES // floats_per_row)
    chunk = _as_int("chunk", chunk)
    if chunk < 1:
        raise ValueError(f"chunk must be a positive integer, got {chunk!r}")
    return chunk


def _worker_count(
    n_samples: int, in_flight: int, row_values: int, threads: int | None
) -> int:
    """Workers for ``n_samples`` rows of ``row_values`` values each, of
    which ``in_flight`` are held at once over all workers:
    :func:`resolve_threads` of ``threads``, capped at the rows in flight.
    Rows of at least ``_MIN_THREADED_ROW`` values get them only where
    the batch holds more samples than are in flight, so that each worker
    fills and sweeps more than one chunk and one worker's fill overlaps
    another's sweep; otherwise one.  Rows that lanes may fill (at most
    ``_LANE_ROW`` values) get as many as leave each at least
    ``_LANE_ROWS_PER_VALUE * row_values`` rows in flight, and at least
    one.  Other rows get one."""
    rows = min(n_samples, in_flight)
    workers = min(resolve_threads(threads), max(rows, 1))
    if row_values >= _MIN_THREADED_ROW:
        return workers if n_samples > in_flight else 1
    if row_values <= _LANE_ROW:
        lane_rows = _LANE_ROWS_PER_VALUE * row_values
        return max(1, min(workers, rows // lane_rows))
    return 1


@functools.cache
def _malloc_trim() -> Callable[[int], int] | None:
    """glibc's ``malloc_trim``, or None where the C library has none."""
    import ctypes

    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


def _release_free_memory() -> None:
    """Hand the C heap's free pages back to the system (glibc's
    ``malloc_trim``; nothing where the C library has none).

    A record batch's workers free their scratch, up to 8 MB each, when
    it ends.  Once glibc's dynamic mmap threshold has risen past such
    arrays they come from the heap, and a small block that outlives the
    batch above them keeps the heap from shrinking: the process then
    holds them to its end.  In about one run of three that took the
    simulate benchmark's peak RSS from 64.9 to 72.3 MB, at random; the
    page faults of fresh scratch in the next batch cost about 1 ms per
    8 MB."""
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


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
    worker: Callable[[np.ndarray, np.ndarray], Callable],
    result: tuple[tuple[int, ...], type] = ((), np.float64),
    parts: bool = False,
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

    The workers are :func:`_worker_count` of ``row_values``, of the
    samples and of :func:`_chunk_rows`, which the workers share.  Long
    rows drawn per sample run on several workers only where the samples
    outnumber the rows in flight, so that each worker takes more than
    one chunk.  Rows short enough for lanes run on as many workers as
    leave each chunk enough samples for lanes.  Where several workers
    fill rows per sample of fewer than ``_SERIAL_FILL_ROW`` values, they
    share one lock: a worker holds it while it reads a chunk's states
    and fills the chunk's rows, and sweeps without it, since each re-key
    holds the GIL and workers that fill such rows together queue on it.

    With ``parts``, a sample reads its uniforms in parts, and each runs
    alone on one worker.  ``chunk`` is then the samples in flight, one a
    worker; the block is a flat array of ``row_values`` values, the
    largest part; and ``sweep(i)`` is a generator that yields, in draw
    order, each contiguous float64 array to fill next from sample ``i``'s
    generator, and finishes sample ``i`` into ``out``.
    """
    n_samples = _as_int("n_samples", n_samples)
    if n_samples < 0:
        raise ValueError(f"n_samples must be nonnegative, got {n_samples}")
    seed, first_index = _as_int("seed", seed), _as_int("first_index", first_index)
    shape, dtype = result
    out = np.empty((n_samples, *shape), dtype=dtype)
    if parts:
        in_flight = _chunk_rows(row_values, chunk)
        workers = min(resolve_threads(threads), max(1, min(n_samples, in_flight)))

        def start_parts(lo: int, hi: int) -> Callable[[], None]:
            sweep = worker(np.empty(row_values), out)

            def run() -> None:
                stream = _Restream(seed)
                for i in range(lo, hi):
                    gen = stream.at(first_index + i)
                    for part in sweep(i):
                        gen.random(out=part)

            return run

        if n_samples:
            _on_workers(n_samples, workers, start_parts)
        return out
    lanes = row_values <= _LANE_ROW
    row_scratch = row_values + (_lane_words(row_values) if lanes else 0)
    in_flight = _chunk_rows(row_scratch, chunk)
    workers = _worker_count(n_samples, in_flight, row_values, threads)
    rows = in_flight // workers
    min_lane_rows = _LANE_ROWS_PER_VALUE * row_values
    if n_samples == 0:
        return out
    serial = workers > 1 and not lanes and row_values < _SERIAL_FILL_ROW
    fill_lock = Lock() if serial else nullcontext()  # for rows drawn per sample

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
                    with fill_lock:
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


def _row_scratch(k: int, size: int) -> tuple[int, int]:
    """Scratch values of one record row of a complete tree of ``size``
    nodes, and the width of its level temp: the row's ``k * size``
    uniforms, its ancestor maxima, the temp and its mask bytes."""
    m = size.bit_length() - 1
    # The most parents a level has: 2**(m - 2) above level m - 1, or half
    # the last level's size - 2**m + 1 nodes, rounded up.
    width = max(1 << m >> 2, (size - (1 << m) + 2) // 2)
    return k * size + size + width + -(-k * size // 8), width


def _sweep(
    t: np.ndarray,
    anc: np.ndarray,
    up: np.ndarray,
    mask: np.ndarray,
    counts: np.ndarray,
    edge: bool,
) -> None:
    """Count the records of each order in rows of complete trees of one
    size, into ``counts`` (``(rows, k)``, contiguous).

    ``t`` holds each row's uniforms order-major, ``(rows, k, size)``, and
    becomes the running products ``P_r``.  Column 0 of ``anc`` (``(rows,
    size)``) holds each root's ancestor maximum, 0 for a whole tree; the
    sweep fills the other columns, level by level and vectorized across
    the rows: each level's parent maxima go once into a contiguous temp
    (in ``up``, a flat array of at least ``rows * width`` values), and
    from there to the first and the second children.  Then one
    comparison ``P_r > max`` for every order fills ``mask`` (``(rows, k,
    size)``, contiguous), which is counted row by row (one call a row on
    rows of at least ``_COUNT_ROW`` nodes, one call in all on shorter
    rows).  ``edge`` sets each root's ``P_k`` to 0 and leaves it out of
    the counts.
    """
    c, k, n = t.shape
    for r in range(1, k):
        t[:, r] *= t[:, r - 1]
    if edge:
        t[:, k - 1, 0] = 0.0
    pk = t[:, k - 1]
    # Level h holds nodes a .. b - 1, children of the w nodes of the level
    # above, two apiece in order.
    for h in range(1, n.bit_length()):
        a, b = 1 << h, min(2 << h, n + 1)
        w = (b - a + 1) // 2
        par = slice(a // 2 - 1, a // 2 - 1 + w)
        u = up[: c * w].reshape(c, w)
        np.maximum(anc[:, par], pk[:, par], out=u)
        anc[:, a - 1 : b - 1 : 2] = u
        anc[:, a : b - 1 : 2] = u[:, : (b - a) // 2]
    np.greater(t, anc[:, None, :], out=mask)
    if edge:
        mask[:, :, 0] = False
    if n < _COUNT_ROW:  # the count fits int32
        counts[:] = mask.view(np.uint8).sum(axis=2, dtype=np.int32)
    else:
        counts.reshape(-1)[:] = [
            np.count_nonzero(row) for row in mask.reshape(c * k, n)
        ]


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
    own substream, and :func:`_sweep` turns them into the running
    products ``P_r = e^{-T_r}`` and counts the records.  A worker sweeps
    its chunk in pieces of as many rows as fit ``_RECORD_VALUES`` (8 MB)
    with their ancestor maxima, level temp and record mask, and the lane
    scratch where lanes may fill them, so that a piece stays near the
    core's L2 cache through the sweep.  Without a ``chunk``, rows come
    one piece a worker at a time, on every worker where the samples fill
    more than one piece each (rows drawn by lanes: where each worker's
    piece holds ``_LANE_ROWS_PER_VALUE`` rows a value), else on one.  A
    sample whose row does not fit ``_SPLIT_SCRATCH`` values with its
    scratch is swept by bottom subtrees instead
    (:func:`_records_by_subtrees`).  A tie (probability zero) is not a
    record.  A uniform of exactly 0 (probability 2**-53 a value) is an
    infinite clock: no record of its order or later, and no bound on its
    descendants.  The edge variant is the node sweep with the root's
    ``P_k`` set to 0 and the root left out of the counts.  The workers'
    freed scratch goes back to the system (:func:`_release_free_memory`).
    """
    k = _int_in("k", k, 1)
    if k > 256:  # P_k stays a normal double: see the module docstring
        raise ValueError(f"k must be at most 256 for records, got {k}")
    n = tree.n
    row_values = k * n
    row_scratch, width = _row_scratch(k, n)
    if row_scratch > _SPLIT_SCRATCH:
        counts = _records_by_subtrees(
            tree, k, seed, n_samples, first_index, edge, chunk, threads
        )
        _release_free_memory()
        return counts
    if row_values <= _LANE_ROW:  # lanes may draw the rows
        row_scratch += _lane_words(row_values)
    piece = max(1, _RECORD_VALUES // row_scratch)
    if chunk is None:  # one piece a worker, on all workers or on one
        n_samples = _as_int("n_samples", n_samples)
        all_pieces = piece * resolve_threads(threads)
        threads = _worker_count(n_samples, all_pieces, row_values, threads)
        chunk = piece * threads

    def worker(block: np.ndarray, out: np.ndarray):
        t = block.reshape(len(block), k, n)
        rows = min(len(block), piece)
        # anc[:, v-1] = max of k-th products over proper ancestors of v.
        anc = np.empty((rows, n))
        anc[:, 0] = 0.0
        up = np.empty(rows * width)
        mask = np.empty((rows, k, n), dtype=bool)

        def sweep(lo: int, hi: int) -> None:
            for first in range(lo, hi, rows):
                last = min(first + rows, hi)
                c = last - first
                _sweep(
                    t[first - lo : last - lo], anc[:c], up, mask[:c],
                    out[first:last], edge,
                )

        return sweep

    counts = _run_batch(
        n_samples, row_values, seed, first_index, chunk, threads, worker,
        result=((k,), np.int64),
    )
    _release_free_memory()
    return counts


def _records_by_subtrees(
    tree: CompleteTree,
    k: int,
    seed: int,
    n_samples: int,
    first_index: int,
    edge: bool,
    chunk: int | None,
    threads: int | None,
) -> np.ndarray:
    """:func:`_records_batch` for samples whose row does not fit
    ``_SPLIT_SCRATCH`` values with its scratch, swept by bottom subtrees
    within one piece a worker.

    The bottom subtrees span the last ``L`` levels, as many as keep a
    full one's ``k * (2**L - 1)`` uniforms within ``_SUBTREE_VALUES``,
    and are rooted at depth ``d = m - L + 1``; the top levels ``0 .. d -
    1`` hold ``2**d - 1`` nodes.  A sample reads its uniforms from its
    substream in this order: the top levels', order-major, as ``(k, 2**d
    - 1)``; then each bottom subtree's in heap order of its root,
    order-major, as ``(k, size)`` in the subtree's own heap order.  So the
    full subtrees come first, then at most one partly filled one, then
    those of ``2**(L - 1) - 1`` nodes, as ``size_classes()[d]`` lists
    them.  The top is swept as one row.  Each bottom root's ancestor
    maximum, the larger of its parent's ancestor maximum and ``P_k``,
    starts its row's ``anc[:, 0]``; subtrees of one size are swept in
    groups of as many rows as fit one piece, so the partial subtree is a
    row of its own.  A sample runs on one worker (``chunk`` is the
    samples in flight, one a worker; by default one on every worker).
    The top levels' row must fit ``_SPLIT_SCRATCH`` with its scratch,
    which bounds ``n`` (``2**34 - 1`` at ``k = 2``, ``2**20 - 1`` at
    256): a larger tree raises ``ValueError`` naming the largest.
    """
    n, m = tree.n, tree.max_height
    levels = min(m, (_SUBTREE_VALUES // k + 1).bit_length() - 1)
    top_levels = 1  # the most whose row fits _SPLIT_SCRATCH
    while _row_scratch(k, (2 << top_levels) - 1)[0] <= _SPLIT_SCRATCH:
        top_levels += 1
    largest = (1 << (top_levels + levels)) - 1
    if n > largest:
        raise ValueError(
            f"records at k = {k} take trees of at most {largest} nodes, got {n}"
        )
    depth = m - levels + 1
    top, full = (1 << depth) - 1, (1 << levels) - 1
    bottom = tree.size_classes()[depth]
    top_width = _row_scratch(k, top)[1]
    full_scratch, full_width = _row_scratch(k, full)
    group = max(1, _RECORD_VALUES // full_scratch)
    values = max(k * top, group * k * full)
    if chunk is None:
        chunk = resolve_threads(threads)

    def worker(block: np.ndarray, out: np.ndarray):
        anc = np.empty(max(top, group * full))
        up = np.empty(max(top_width, group * full_width))
        mask = np.empty(values, dtype=bool)
        counts = np.empty((group, k), dtype=np.int64)
        bounds = np.empty(1 << depth)  # the bottom roots' ancestor maxima

        def rows(size: int, g: int):
            # The uniforms, ancestor maxima and mask of g rows of size nodes.
            return (
                block[: g * k * size].reshape(g, k, size),
                anc[: g * size].reshape(g, size),
                mask[: g * k * size].reshape(g, k, size),
            )

        def sweep(i: int):
            t, a, is_record = rows(top, 1)
            yield t
            a[:, 0] = 0.0
            _sweep(t, a, up, is_record, out[i : i + 1], edge)
            # Two bottom roots a top leaf: the larger of its ancestor
            # maximum and its P_k bounds both.
            leaves = slice(top // 2, top)
            np.maximum(a[0, leaves], t[0, k - 1, leaves], out=bounds[::2])
            bounds[1::2] = bounds[::2]
            j = 0
            for size, count in bottom:
                for first in range(0, count, group):
                    g = min(group, count - first)
                    t, a, is_record = rows(size, g)
                    yield t
                    a[:, 0] = bounds[j : j + g]
                    _sweep(t, a, up, is_record, counts[:g], False)
                    out[i] += counts[:g].sum(axis=0)
                    j += g

        return sweep

    return _run_batch(
        n_samples, values, seed, first_index, chunk, threads, worker,
        result=((k,), np.int64), parts=True,
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
    ancestor maxima, level temp, record mask and, where lanes draw the
    rows (``n * k`` at most 256), lane scratch.  Neither changes the
    output.  Each worker holds at most 8 MB of scratch at any ``n``,
    besides the output.

    A tree whose row does not fit 8 MB with its scratch (above about
    3 * 10**5 nodes at k = 2, 3600 at k = 256) is swept by bottom
    subtrees, one sample a worker, and its sample reads the same
    uniforms in another order: the top levels, order-major, then each
    bottom subtree by heap order of its root, order-major in the
    subtree's own heap order (see :func:`_records_by_subtrees`, which
    also bounds ``n``: ``2**34 - 1`` at k = 2, ``2**20 - 1`` at 256).
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


# The process sweep keeps a sample's connected flags as bits: heap column
# c is bit c % 64 of word c // 64, and words are little-endian, so byte i
# of a word holds its columns 8 i .. 8 i + 7 in order.
_WORD = np.dtype("<u8")
_ONES = np.uint64(0x0101010101010101)  # 1 in every byte
_HIGH = np.uint64(0x8080808080808080)  # the top bit of every byte
_LOW7 = np.uint64(0x7F7F7F7F7F7F7F7F)  # 127 in every byte


def _byte_tables() -> tuple[np.ndarray, np.ndarray]:
    """The number of set bits of each byte value (256 entries), and the
    256 x 8 select table, flattened: entry ``8 x + t`` is the position
    of the ``(t + 1)``-th set bit of ``x``."""
    bits = (np.arange(256)[:, None] >> np.arange(8)) & 1
    x, at = np.nonzero(bits)
    select = np.zeros((256, 8), dtype=np.int64)
    select[x, np.cumsum(bits, axis=1)[x, at] - 1] = at
    return bits.sum(axis=1).astype(np.uint8), select.reshape(-1)


_BYTE_COUNT, _BYTE_SELECT = _byte_tables()


def _byte_prefix(words: np.ndarray) -> np.ndarray:
    """For a contiguous ``_WORD`` array: byte ``i`` of each result holds
    the set bits of bytes ``0 .. i`` of the word, so the top byte holds
    its popcount.  Byte counts are at most 64, so no byte carries into
    the next when the per-byte counts are multiplied by ``_ONES``."""
    return _BYTE_COUNT.take(words.view(np.uint8)).view(_WORD) * _ONES


def _subtree_words(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where each node's subtree lies in the flag words of a tree of
    ``n`` nodes, as ``(first, word, keep)``: entries ``first[v] ..
    first[v + 1] - 1`` name each word that holds part of the subtree of
    ``v``, and in ``keep`` the bits of that word outside it.

    At depth ``d`` below ``v`` the subtree is the heap range of ``2**d``
    columns from ``v * 2**d``, which is ``2**d``-aligned.  So for ``d <=
    5`` it lies inside word ``v >> (6 - d)``, a different word at each
    depth except word 0, where the ranges of one node ``v < 64`` are
    merged into one entry.  At depth ``6 + e`` it covers the whole words
    ``v * 2**e .. (v + 1) * 2**e - 1``: word ``x`` belongs to ``x >> e``
    at every ``e``.  Ranges that start past column ``n`` are left out.
    Built by array operations, one pass per depth.  The table holds
    fewer than ``2 n + (n / 64) lg n`` entries of 16 bytes, plus 8 bytes
    a node for ``first``: 9.2 KB at ``n = 255``, 1.4 MB at ``2**15 - 1``
    (about 42 bytes a node); building it peaks near 135 bytes a node.
    """
    width = (n >> 6) + 1
    v = np.arange(n + 1)
    top = np.zeros(min(n, 63) + 1, dtype=np.uint64)  # word 0 of v < 64
    nodes, words, keeps = [], [], []
    for d in range(6):
        at = v[1 : (n >> d) + 1]  # the nodes with columns at depth d
        start = at << d
        mask = np.uint64((1 << (1 << d)) - 1) << (start & 63).astype(np.uint64)
        low = start < 64
        top[at[low]] |= mask[low]
        high = ~low
        nodes.append(at[high])
        words.append(start[high] >> 6)
        keeps.append(~mask[high])
    nodes.append(v[1 : top.size])
    words.append(np.zeros(top.size - 1, dtype=np.intp))
    keeps.append(~top[1:])
    for e in range((width - 1).bit_length()):
        x = v[1 << e : width]
        nodes.append(x >> e)
        words.append(x)
        keeps.append(np.zeros(x.size, dtype=np.uint64))
    nodes = np.concatenate(nodes)
    order = np.argsort(nodes, kind="stable")
    first = np.zeros(n + 2, dtype=np.intp)
    np.cumsum(np.bincount(nodes, minlength=n + 1), out=first[1:])
    return first, np.concatenate(words)[order], np.concatenate(keeps)[order]


def simulate_process_batch(
    tree: CompleteTree,
    k: int,
    seed: int,
    n_samples: int,
    first_index: int = 0,
) -> np.ndarray:
    """Vectorized cut-count totals from the direct process, shape
    ``(n_samples,)``.

    All samples of a chunk advance in lockstep, one cut per step.  Each
    sample keeps its node counters, its connected flags as 64 heap
    columns a ``uint64`` word, and the number of connected nodes in each
    word, updated as nodes are removed.  A cut takes ``j = min(floor(u *
    count), count - 1)`` and picks the ``(j + 1)``-th connected node in
    heap order: the word from a cumulative sum of the word counts; the
    byte from running counts over the word's 8 bytes, through a
    256-entry popcount table (:func:`_byte_prefix`); the bit through a
    256 x 8 select table.  When a node's counter reaches ``k``, its
    subtree's flags are cleared in a fixed number of numpy calls,
    whatever its depth, through a per-tree table of the words it covers
    and their bits (:func:`_subtree_words`, about 42 bytes a node).  A
    sample's words lie along the longer axis of the chunk's arrays, so
    that a step's scans run along long rows.  Sample ``i`` consumes the
    uniforms of substream ``(seed, first_index + i)`` in cut order, one
    per cut.  The samples in flight at once share the package's 32 MB
    scratch budget for the ``k * n`` uniforms of a sample
    (:func:`_chunk_rows`), which does not change the output.  The sweep
    is many small numpy calls that hold the GIL, so the batch runs on
    one worker whatever ``KCUT_THREADS`` says.
    """
    k = _int_in("k", k, 1)
    n = tree.n
    # A node's counter reaches k, so int16 holds it only for k < 2**15.
    counter = np.int16 if k < 1 << 15 else np.int64
    first, words, keep = _subtree_words(n)
    width = (n >> 6) + 1
    # Columns 1 .. n start connected; column 0 and those past n never are.
    full = np.full(width, np.uint64(_MASK64), dtype=_WORD)
    full[:1] &= ~np.uint64(1)
    full[-1:] &= np.uint64((2 << (n & 63)) - 1)
    full_count = (_byte_prefix(full) >> 56).view(np.int64)

    def worker(u: np.ndarray, out: np.ndarray):
        # Every cut consumes exactly one uniform, and there are at most
        # k*n cuts, so the whole per-sample stream is drawn up front.
        rows = len(u)
        cnt = np.empty((rows, n + 1), dtype=counter)
        # A step scans each sample's words, and scans run fastest along
        # the contiguous axis: so a sample's words are contiguous where
        # it has more words than there are samples, and a word's samples
        # otherwise.  conn and per are read as (word, sample) either way.
        wide = width > rows
        conn = np.empty((rows, width) if wide else (width, rows), dtype=_WORD)
        per = np.empty(conn.shape, dtype=np.int64)
        conn_at, per_at = conn.reshape(-1), per.reshape(-1)
        if wide:
            conn, per = conn.T, per.T
        # Word w of row r is entry w * word_step + r * row_step of conn_at.
        word_step, row_step = (stride // per.itemsize for stride in per.strides)
        span = np.arange(rows)

        def clear(rs: np.ndarray, vs: np.ndarray) -> None:
            # Disconnect the subtree of node vs[i] in row rs[i]: every
            # word it touches, with its count, at once.
            lo = first[vs]
            size = first[vs + 1] - lo
            ends = np.cumsum(size)
            at = np.repeat(lo - ends + size, size) + np.arange(ends[-1])
            flat = words[at] * word_step + np.repeat(rs * row_step, size)
            left = conn_at[flat] & keep[at]
            conn_at[flat] = left
            per_at[flat] = (_byte_prefix(left) >> 56).view(np.int64)

        def sweep(lo: int, hi: int) -> None:
            # Column i of conn and per, and row i of u and cnt, belong to
            # sample lo + i; live holds the unfinished ones, which cut
            # once per step.
            live = np.arange(hi - lo)
            a = live.size
            cnt[:a] = 0
            conn[:, :a] = full[:, None]
            per[:, :a] = full_count[:, None]
            step = 0
            while live.size:
                here = span[: live.size]
                c = per.T.take(live, axis=0).T if wide else per.take(live, axis=1)
                below = c.cumsum(axis=0)
                counts = below[-1]
                # u * counts >= 0, so the cast is the floor.
                j = (u[live, step] * counts).astype(np.int64)
                j = np.minimum(j, counts - 1)
                # Word b holds the (j+1)-th connected node; j becomes its
                # rank among the word's connected nodes.
                b = (below <= j).sum(axis=0)
                j -= below[b, here] - c[b, here]
                word = conn[b, live]
                prefix = _byte_prefix(word)
                rank = j.view(np.uint64)
                # The top bit of each byte whose running count exceeds the
                # rank: 127 + count - rank lies in [64, 191], so no byte
                # borrows.  The first such byte holds the node.  Each one
                # adds 8 to the top byte of the sum, so shift is 8 times
                # the index of the byte that holds the node.
                past = (prefix + _LOW7 - rank * _ONES) & _HIGH
                eights = ((past >> 4) * _ONES) >> 56
                shift = 64 - eights
                # Its rank among the byte's set bits, then its bit.
                rank -= ((prefix << 8) >> shift) & 255
                byte = (word >> shift) & 255
                at = ((byte << 3) + rank).view(np.int64)
                pick = (b << 6) + shift.view(np.int64) + _BYTE_SELECT.take(at)
                hits = cnt[live, pick] + 1
                cnt[live, pick] = hits
                step += 1
                # The root's k-th hit ends a sample; any other node's
                # disconnects its subtree.
                dead = hits == k
                if not np.count_nonzero(dead):
                    continue
                finished = dead & (pick == 1)
                dead ^= finished
                if np.count_nonzero(dead):
                    clear(live[dead], pick[dead])
                if np.count_nonzero(finished):
                    out[lo + live[finished]] = step
                    live = live[~finished]

        return sweep

    return _run_batch(
        n_samples, k * n, seed, first_index, None, 1, worker,
        result=((), np.int64),
    )


# ---------------------------------------------------------------------------
# Rescaling.
# ---------------------------------------------------------------------------


def rescale_counts(counts: np.ndarray | float, r: int | None, k: int, n: int):
    """Affine normalization of record counts; vectorized over ``counts``.

    With ``lg = lg n`` and the constants of :func:`kcut.series.constants`
    for cut threshold ``k``:

    - order ``r``: ``counts * lg**(r/k + 1) / (n * C2(r)) - mu(r, n)``;
    - ``r is None`` (total across orders): ``counts * lg**(1/k + 1) /
      (n * C2(1)) - sum_r (C2(r)/C2(1)) * lg**(-(r-1)/k) * mu(r, n)``.

    Under either normalization the law converges to ``1 - C3 * W`` for
    the matching limit variable ``W``.
    """
    from . import series  # here, not at the top: series imports this module

    if n < 4:
        raise ValueError(f"rescaling needs n >= 4, got {n!r}")
    k = _int_in("k", k, 1, series.MAX_K)
    lg = math.log2(n)
    # counts * lg**power / (n * c2), with n = ratio * 2**e taken apart so
    # that no float holds n: the same bits where n is a float, and no
    # overflow where it is not.
    e = int(n).bit_length() - 1
    ratio = n / (1 << e)

    def per_node(power: float, c2: float):
        return np.ldexp(np.multiply(counts, lg**power / (ratio * c2)), -e)

    if r is None:
        c2_1 = series.constants(k, 1).c2
        center = sum(
            (series.constants(k, rr).c2 / c2_1)
            * lg ** (-(rr - 1.0) / k)
            * series.mu(rr, k, n)
            for rr in range(1, k + 1)
        )
        return per_node(1.0 / k + 1.0, c2_1) - center
    r = _int_in("r", r, 1, k)
    return per_node(r / k + 1.0, series.constants(k, r).c2) - series.mu(r, k, n)
