"""Memory layout model: maps array elements to cache lines.

An instrumented algorithm does not touch real memory in any observable
way (CPython hides it); instead it declares the arrays a C
implementation would allocate — the CSR ``offsets``/``adjacency``
arrays plus its own property arrays — and *touches* elements as it
runs.  :class:`Memory` lays those arrays out contiguously (line-aligned
bases, realistic element sizes) and drives every touch through the
cache hierarchy, tallying which level served each reference.

This is the heart of the substitution documented in DESIGN.md: node
ids with close values land on the same cache line of the same array,
exactly the effect a graph ordering manipulates.

Touches are recorded into a trace buffer
(:class:`~repro.cache.replay.TraceBuffer`) that is handed to the
hierarchy in bounded chunks as it fills, and once more for the
remainder when a result is read (see docs/performance.md).  When every
level is LRU (:attr:`CacheHierarchy.supports_replay`) a chunk is
classified vectorised by :meth:`CacheHierarchy.replay`, which carries
the cache contents from chunk to chunk, so memory stays bounded however
long the trace grows and the counters are identical to stepping.  Any
other hierarchy resolves each chunk with
:meth:`CacheHierarchy.step_trace`, one scalar access at a time; each
such memory counts once on ``cache.replay.fallback``
(:func:`replay_fallbacks`).
"""

from __future__ import annotations

import threading

import numpy as np

from repro import obs
from repro.cache.cost import DEFAULT_COST_MODEL, CostModel, RunCost
from repro.cache.hierarchy import CacheHierarchy, scaled_hierarchy
from repro.cache.replay import TraceBuffer
from repro.cache.stats import CacheStats
from repro.errors import InvalidParameterError

#: Fewest accesses a :class:`Memory` buffers before it
#: replays them: below this, numpy's per-call overhead dominates.
MIN_CHUNK_ACCESSES = 1 << 16

#: Chunks hold at least this many accesses per line of total cache
#: capacity, so the carried-state prefix each chunk replays first (one
#: access per resident line) stays a small share of the chunk.
CHUNK_LINES_FACTOR = 8


def chunk_accesses(hierarchy: CacheHierarchy) -> int:
    """Accesses a :class:`Memory` buffers per chunk."""
    lines = sum(
        level.num_sets * level.associativity for level in hierarchy.levels
    )
    return max(MIN_CHUNK_ACCESSES, CHUNK_LINES_FACTOR * lines)


_fallback_lock = threading.Lock()
_fallbacks = 0


def replay_fallbacks() -> int:
    """Memories whose hierarchy cannot replay, so they step (always
    counted, also while telemetry is off; mirrored to
    ``cache.replay.fallback``)."""
    with _fallback_lock:
        return _fallbacks


def _count_fallback() -> None:
    global _fallbacks
    with _fallback_lock:
        _fallbacks += 1
    obs.inc("cache.replay.fallback")


class TracedArray:
    """A declared array whose element accesses hit the simulator.

    Create via :meth:`Memory.array`.  ``touch(i)`` models reading or
    writing element ``i``; ``touch_many(indices)`` models one reference
    per index, in order; ``touch_run(start, count)`` models a
    sequential scan and exploits the guarantee that consecutive
    elements on one line hit L1 after the line is first referenced;
    ``touch_runs(starts, lengths)`` is its batched form.
    ``element_lines(indices)`` exposes the element-to-line mapping for
    the frontier runtime's block emitter.
    """

    __slots__ = ("name", "length", "itemsize", "_base", "_memory")

    def __init__(
        self,
        name: str,
        length: int,
        itemsize: int,
        base: int,
        memory: "Memory",
    ) -> None:
        self.name = name
        self.length = length
        self.itemsize = itemsize
        self._base = base
        self._memory = memory

    def touch(self, index: int) -> None:
        """Model one reference to element ``index``.

        Out-of-range indices raise instead of silently aliasing the
        *neighbouring* array's cache lines (arrays are laid out
        contiguously, so a stale or negative index would otherwise
        corrupt the locality statistics without any symptom).
        """
        if index < 0 or index >= self.length:
            raise InvalidParameterError(
                f"touch({index}) is outside array {self.name!r} "
                f"of length {self.length}"
            )
        memory = self._memory
        touches = memory._trace.touches
        touches.append(
            (self._base + index * self.itemsize) >> memory._line_shift
        )
        if len(touches) >= memory._chunk:
            memory._replay_buffer()

    def touch_many(self, indices) -> None:
        """Model one reference per element of ``indices``, in order.

        Semantically ``for i in indices: self.touch(i)``; the whole
        batch is captured as one vectorised trace segment, which
        removes the per-edge Python from the traced algorithms' hot
        loops.  Conversion, bounds check and line arithmetic are
        deferred to the next replay (see :class:`TraceBuffer`), so an
        out-of-range index raises when a result is read.
        """
        idx = np.asarray(indices)
        if idx.ndim != 1:
            raise InvalidParameterError(
                f"touch_many expects a 1-D index array, got shape "
                f"{idx.shape}"
            )
        if idx.dtype.kind not in "iu":
            raise InvalidParameterError(
                f"touch_many expects integer indices, got dtype {idx.dtype}"
            )
        if idx.shape[0] == 0:
            return
        memory = self._memory
        memory._trace.record_many(
            idx, self._base, self.itemsize, self.length, self.name
        )
        memory._buffered()

    def touch_run(self, start: int, count: int) -> None:
        """Model a sequential scan of ``count`` elements from ``start``.

        Each element counts as one reference (the hardware counters the
        paper reads count every load).  The first line of the run is a
        demand access; every following line is brought in by the
        stream prefetcher — it still updates cache state and hierarchy
        counters, but its latency is hidden (no stall contribution;
        see :meth:`CostModel.cost`).  Element references on a resident
        line are L1 hits by LRU.
        """
        if count <= 0:
            return
        if start < 0 or start + count > self.length:
            raise InvalidParameterError(
                f"touch_run({start}, {count}) is outside array "
                f"{self.name!r} of length {self.length}"
            )
        memory = self._memory
        shift = memory._line_shift
        first_line = (self._base + start * self.itemsize) >> shift
        last_line = (
            self._base + (start + count - 1) * self.itemsize
        ) >> shift
        memory._trace.record_run(
            first_line, last_line - first_line + 1, count
        )
        memory._buffered()

    def touch_runs(self, starts, lengths) -> None:
        """Model a batch of sequential scans, in order.

        Semantically ``for s, c in zip(starts, lengths):
        self.touch_run(s, c)`` — zero-length runs are skipped, bounds
        are checked per run.  The whole batch lands in the trace buffer
        with one vectorised append instead of one Python call per
        run.
        """
        s = np.asarray(starts)
        c = np.asarray(lengths)
        if s.ndim != 1 or c.ndim != 1 or s.shape != c.shape:
            raise InvalidParameterError(
                f"touch_runs expects aligned 1-D arrays, got shapes "
                f"{s.shape} and {c.shape}"
            )
        if s.dtype.kind not in "iu" or c.dtype.kind not in "iu":
            raise InvalidParameterError(
                f"touch_runs expects integer arrays, got dtypes "
                f"{s.dtype} and {c.dtype}"
            )
        s = s.astype(np.int64, copy=False)
        c = c.astype(np.int64, copy=False)
        live = c > 0
        if not live.all():
            s = s[live]
            c = c[live]
        if s.shape[0] == 0:
            return
        if int(s.min()) < 0 or int((s + c).max()) > self.length:
            raise InvalidParameterError(
                f"touch_runs spans outside array {self.name!r} "
                f"of length {self.length}"
            )
        memory = self._memory
        shift = np.int64(memory._line_shift)
        first = (self._base + s * self.itemsize) >> shift
        last = (self._base + (s + c - 1) * self.itemsize) >> shift
        memory._trace.record_runs(first, last - first + 1, c)
        memory._buffered()

    def element_lines(self, indices) -> np.ndarray:
        """Cache line ids of ``indices`` (vectorised, bounds-checked).

        The building block of the frontier runtime's batched emission:
        algorithms resolve whole per-iteration index vectors to line
        ids here and hand the assembled access stream to
        :meth:`Memory.touch_block` in one call.
        """
        idx = np.asarray(indices, dtype=np.int64)
        if idx.shape[0] and (
            int(idx.min()) < 0 or int(idx.max()) >= self.length
        ):
            raise InvalidParameterError(
                f"element_lines indices outside array {self.name!r} "
                f"of length {self.length}"
            )
        return (
            self._base + idx * self.itemsize
        ) >> np.int64(self._memory._line_shift)

    def line_of(self, index: int) -> int:
        """Cache line id of element ``index`` (for tests)."""
        return (
            self._base + index * self.itemsize
        ) >> self._memory._line_shift

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TracedArray({self.name}: {self.length} x {self.itemsize} B "
            f"@ {self._base:#x})"
        )


class LineRecorder:
    """Direct line-id emission for per-access, data-dependent kernels.

    Some traced loops cannot batch: a binary-heap sift or a Tarjan
    descent decides its next reference from the data it just read.
    A :class:`TracedArray.touch` call costs a method call, a bounds
    check, the line arithmetic and a chunk check per reference; a
    kernel on the recorder pays one bound ``append`` of a line id it
    computes itself.  Array bases are line-aligned and item sizes are
    powers of two, so element ``i`` of an array lies on line
    ``first_line + (i >> shift)`` for the pair :meth:`line_map` hands
    out.  Indices are not range-checked: a kernel uses the recorder
    only where its indices are in range by construction.

    ``append`` is the trace buffer's single-touch channel, which the
    memory clears in place whenever it replays (also mid-step, when a
    ``touch_run`` fills a chunk), so the bound method stays valid for
    the memory's lifetime.  :meth:`step` applies the chunk bound; call
    it once per outer step of the kernel.
    """

    __slots__ = ("append", "_memory")

    def __init__(self, memory: "Memory") -> None:
        self._memory = memory
        #: Record one demand access to a line id (no checks).
        self.append = memory._trace.touches.append

    def line_map(self, array: TracedArray) -> tuple[int, int]:
        """``(first_line, shift)`` of ``array``: element ``i`` lies on
        line ``first_line + (i >> shift)``."""
        line_shift = self._memory._line_shift
        return (
            array._base >> line_shift,
            line_shift - (array.itemsize.bit_length() - 1),
        )

    def step(self) -> None:
        """Replay the buffer if the step just recorded filled a chunk."""
        self._memory._buffered()


class Memory:
    """Simulated address space + cache hierarchy + cost accounting.

    Every touch is recorded and handed to the hierarchy in chunks of
    :func:`chunk_accesses` accesses (see the module docstring).
    """

    def __init__(
        self,
        hierarchy: CacheHierarchy | None = None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
    ) -> None:
        self._hierarchy = hierarchy or scaled_hierarchy()
        line_size = self._hierarchy.line_size
        self._line_shift = line_size.bit_length() - 1
        self._next_base = 0
        self.cost_model = cost_model
        if not self._hierarchy.supports_replay:
            _count_fallback()
        self._trace = TraceBuffer(self._line_shift)
        self._chunk = chunk_accesses(self._hierarchy)
        self._level_counts = [0] * (self._hierarchy.num_levels + 1)
        #: Pure-CPU cycles added via :meth:`work`.
        self.extra_work = 0.0
        self._prefetched_refs = 0
        self.arrays: dict[str, TracedArray] = {}

    # ------------------------------------------------------------------
    @property
    def hierarchy(self) -> CacheHierarchy:
        return self._hierarchy

    @property
    def replaying(self) -> bool:
        """Whether the recorded trace is resolved by vectorised replay.

        True when every level is LRU
        (:attr:`CacheHierarchy.supports_replay`).  Otherwise each chunk
        is stepped through :meth:`CacheHierarchy.step_trace`; each such
        memory counts once on ``cache.replay.fallback``
        (:func:`replay_fallbacks`).
        """
        return self._hierarchy.supports_replay

    def array(self, name: str, length: int, itemsize: int) -> TracedArray:
        """Declare (allocate) an array and return its traced handle.

        Arrays are laid out consecutively, each base aligned to a cache
        line — the layout a sensible C allocator would produce.
        ``itemsize`` may not exceed the line size: a multi-line element
        would make "the line of element i" ill-defined and previously
        sent ``touch_run`` into an infinite loop (``per_line == 0``).
        """
        if itemsize < 1 or (itemsize & (itemsize - 1)):
            raise InvalidParameterError(
                f"itemsize must be a positive power of two, got {itemsize}"
            )
        if itemsize > (1 << self._line_shift):
            raise InvalidParameterError(
                f"itemsize {itemsize} exceeds the cache line size "
                f"{1 << self._line_shift}; elements must fit one line"
            )
        if length < 0:
            raise InvalidParameterError(
                f"array length must be non-negative, got {length}"
            )
        if name in self.arrays:
            raise InvalidParameterError(
                f"array {name!r} is already declared"
            )
        array = TracedArray(name, length, itemsize, self._next_base, self)
        line_size = 1 << self._line_shift
        span = max(length * itemsize, 1)
        self._next_base += (span + line_size - 1) // line_size * line_size
        self.arrays[name] = array
        return array

    def recorder(self) -> "LineRecorder":
        """A :class:`LineRecorder` over this memory's trace buffer."""
        return LineRecorder(self)

    def work(self, cycles: float) -> None:
        """Account pure-CPU work that performs no data reference."""
        self.extra_work += cycles

    def touch_block(
        self,
        lines: np.ndarray,
        demand: np.ndarray,
        extra_l1: int = 0,
        prefetched: int = 0,
    ) -> None:
        """Drive a pre-resolved access block through the simulator.

        The frontier runtime's ingestion point: ``lines`` are int64
        cache line ids in exact emission order (resolved via
        :meth:`TracedArray.element_lines`, so they are valid by
        construction), ``demand`` marks which of them are demand
        accesses (``False`` = prefetched fill of a sequential scan:
        updates cache state but is not charged to ``level_counts``).
        ``extra_l1`` counts run-compressed element references that are
        L1 hits by construction; ``prefetched`` counts the ``False``
        entries for :attr:`prefetched_refs`.

        The block is appended to the trace buffer by reference (one
        Python call per block); it holds exactly the accesses the
        scalar emitters would make, so the two stay counter-identical.
        """
        if lines.ndim != 1 or demand.shape != lines.shape:
            raise InvalidParameterError(
                f"touch_block expects aligned 1-D arrays, got shapes "
                f"{lines.shape} and {demand.shape}"
            )
        self._trace.record_block(lines, demand, extra_l1, prefetched)
        self._buffered()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def _buffered(self) -> None:
        """Resolve the buffer once a recorded segment fills a chunk."""
        if self._trace.num_accesses >= self._chunk:
            self._replay_buffer()

    def _replay_buffer(self) -> None:
        """Resolve and drop everything buffered since the last call.

        The only place accesses reach the hierarchy: by
        :meth:`CacheHierarchy.replay` when :attr:`replaying`, else by
        :meth:`CacheHierarchy.step_trace`.  Both start from the
        current cache contents and leave the final ones, so resolving
        the trace piece by piece — in chunks as the buffer fills, and
        for the remainder whenever a result is read — gives the
        counters one pass over the whole trace would.  A buffer longer
        than a chunk (one large block) is resolved in chunk-sized
        slices, which bounds the classifier's working memory too.
        """
        if self._trace.empty:
            return
        trace = self._trace.freeze()
        self._trace.clear()
        lines = trace.lines
        total = trace.num_accesses
        hierarchy = self._hierarchy
        replaying = self.replaying
        with obs.span(
            "cache.replay", accesses=total, demand=trace.num_demand,
        ):
            serving = np.empty(total, dtype=np.int16)
            for lo in range(0, total, self._chunk):
                hi = lo + self._chunk
                serving[lo:hi] = (
                    hierarchy.replay(lines[lo:hi]) if replaying
                    else hierarchy.step_trace(lines[lo:hi])
                )
            counts = np.bincount(
                serving[trace.demand],
                minlength=hierarchy.num_levels + 1,
            )
            level_counts = self._level_counts
            for depth, count in enumerate(counts.tolist()):
                level_counts[depth] += count
            level_counts[1] += trace.extra_l1
            self._prefetched_refs += trace.prefetched_refs
        if obs.enabled():
            obs.inc("cache.replay.runs")
            obs.inc("cache.replay.accesses", total)

    @property
    def level_counts(self) -> list[int]:
        """References by serving level: ``[memory, L1, L2, L3, ...]``.

        Reading this (or :meth:`stats`/:meth:`cost`) resolves whatever
        is still buffered, so the numbers always reflect every touch
        recorded so far.
        """
        self._replay_buffer()
        return self._level_counts

    @property
    def prefetched_refs(self) -> int:
        """Sequential-scan references hidden by the stream prefetcher."""
        return self._prefetched_refs + self._trace.prefetched_refs

    @property
    def total_refs(self) -> int:
        """Demand data references issued so far.

        Prefetched line fetches are tracked separately in
        :attr:`prefetched_refs`; they are requests the hardware issues
        on its own, not loads the program executes.
        """
        return sum(self._level_counts) + self._trace.total_refs

    def stats(self) -> CacheStats:
        """Hierarchy counters as a :class:`CacheStats` snapshot."""
        self._replay_buffer()
        return self._hierarchy.snapshot()

    def cost(self) -> RunCost:
        """Simulated cycle cost of everything traced so far."""
        self._replay_buffer()
        return self.cost_model.cost(
            self._level_counts, self.extra_work, self.prefetched_refs
        )

    def reset(self) -> None:
        """Flush caches and zero counters; declared arrays survive."""
        self._hierarchy.flush()
        self._level_counts = [0] * (self._hierarchy.num_levels + 1)
        self.extra_work = 0.0
        self._prefetched_refs = 0
        self._trace.clear()
