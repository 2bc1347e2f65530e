"""Frontier/bucket runtime: vectorised execution + batched trace emission.

The traced algorithms were hand-written scalar loops over per-element
``TracedArray.touch`` calls — one Python round-trip per simulated
reference.  This module removes that round-trip the way PR 3 removed
it from the ordering kernel and PR 4 from the cache simulator: the
algorithm advances a whole *frontier* (or priority bucket) per step in
numpy, assembles the exact access vector the scalar loop would have
emitted — node-property gathers, ``offsets`` touches, adjacency
``touch_run`` spans in CSR order, interleaved per node — and appends
it to the memory's trace buffer in **one** call per step
(:meth:`repro.cache.layout.Memory.touch_block`).

Counter-identity is the contract, not approximate equivalence: LRU
hit/miss depends on the exact access order, so every runtime port
reproduces its scalar oracle's touch sequence reference-for-reference.
The building blocks:

* :func:`interleave_fields` — scatter per-segment field contents into
  one interleaved stream (the node loop's body, vectorised);
* :func:`run_field` — a ``touch_run`` span as an interleavable field
  (demand first line, prefetched rest, run-compressed L1 stats);
* :class:`Frontier` — the ordered active-node set, with dense/sparse
  switching for the first-claim test of BFS/SP level expansion;
* :class:`BucketQueue` — a monotone integer-priority bucket map with
  bucket fusion, for delta-stepping SSSP and weighted-core peeling;
* :class:`TraceEmitter` — the flush point into ``Memory``.

Two ``obs.profile`` phases make the runtime's cost visible in
``telemetry flamegraph``: ``algo.frontier.advance`` (gathering the
frontier's edge stream) and ``algo.trace.flush`` (block ingestion).

Not everything batches.  The binary-heap sifts of k-core, DS's
unit-heap greedy, Tarjan SCC, DFS and the union-find pointer chases of
WCC are data-dependent *per access* — their exact sequences cannot be
reordered or precomputed.  Kcore, DS, SCC and DFS instead write line
ids straight into the trace buffer through a
:class:`~repro.cache.layout.LineRecorder` (one bound ``append`` per
reference, no per-touch method call or bounds check), with their
per-touch loops kept as ``traced_scalar`` oracles; the bucket-based
alternatives live in :mod:`repro.algorithms.deltastep` and
:mod:`repro.algorithms.wkcore`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.cache.layout import Memory, TracedArray
from repro.errors import InvalidParameterError

#: A frontier (or edge stream) counts as dense when it is at least
#: ``1/DENSE_SWITCH`` of the graph; the dense first-claim strategy
#: then beats the sort-based sparse one.
DENSE_SWITCH = 8

_EMPTY = np.zeros(0, dtype=np.int64)


def _ramp(lengths: np.ndarray, total: int) -> np.ndarray:
    """``0..len-1`` within each segment, concatenated."""
    if total == 0:
        return _EMPTY
    cum = np.cumsum(lengths)
    return np.arange(total, dtype=np.int64) - np.repeat(
        cum - lengths, lengths
    )


def segment_sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per-segment sums of ``values`` split into ``lengths`` pieces.

    Integer-exact (used for discovery counts and NQ degree sums, both
    int64); segments may be empty.
    """
    cum = np.concatenate([[0], np.cumsum(values, dtype=np.int64)])
    ends = np.cumsum(lengths)
    return cum[ends] - cum[ends - lengths]


def interleave_fields(
    fields: list[tuple[np.ndarray, np.ndarray, np.ndarray | None]],
) -> tuple[np.ndarray, np.ndarray]:
    """Assemble per-segment interleaved content from parallel fields.

    Each field is ``(lengths, lines, demand)``: ``lengths`` has one
    entry per segment; ``lines`` holds that field's cache line ids for
    all segments concatenated in segment order; ``demand`` flags
    prefetched fills (``None`` = all demand).  The output interleaves
    the fields *within* each segment in the given field order — the
    vectorised equivalent of a loop body that touches field 1, then
    field 2, ... for every segment in turn.
    """
    totals = fields[0][0].astype(np.int64, copy=True)
    for lengths, _, _ in fields[1:]:
        totals += lengths
    total = int(totals.sum())
    base = np.cumsum(totals) - totals
    out_lines = np.empty(total, dtype=np.int64)
    out_demand = np.ones(total, dtype=bool)
    offset = np.zeros(totals.shape[0], dtype=np.int64)
    for lengths, lines, demand in fields:
        count = int(lengths.sum())
        if count:
            pos = np.repeat(base + offset, lengths) + _ramp(lengths, count)
            out_lines[pos] = lines
            if demand is not None:
                out_demand[pos] = demand
        offset = offset + lengths
    return out_lines, out_demand


@dataclass(frozen=True)
class RunField:
    """A batch of ``touch_run`` spans, ready to interleave."""

    lengths: np.ndarray  # lines per segment (0 for empty runs)
    lines: np.ndarray  # concatenated line ids
    demand: np.ndarray  # True for each run's first line only
    extra_l1: int  # run-compressed element refs (L1 by construction)
    prefetched: int  # trailing lines fetched by the stream prefetcher

    def as_field(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        return self.lengths, self.lines, self.demand


def run_field(
    array: TracedArray, starts: np.ndarray, lengths: np.ndarray
) -> RunField:
    """Sequential scans of ``array`` as an interleavable field.

    Line-for-line what ``touch_run(starts[i], lengths[i])`` emits for
    every segment ``i``: the first line of each non-empty run is a
    demand access, the rest are prefetched fills; element references
    beyond each run's first are L1 hits by construction and aggregate
    into ``extra_l1``.
    """
    num = starts.shape[0]
    live = lengths > 0
    live_starts = starts[live]
    live_lengths = lengths[live]
    first = array.element_lines(live_starts)
    last = array.element_lines(live_starts + live_lengths - 1)
    nlines = last - first + 1
    field_lens = np.zeros(num, dtype=np.int64)
    field_lens[live] = nlines
    total = int(nlines.sum())
    ramp = _ramp(nlines, total)
    lines = np.repeat(first, nlines) + ramp
    num_live = int(live_lengths.shape[0])
    return RunField(
        lengths=field_lens,
        lines=lines,
        demand=ramp == 0,
        extra_l1=int(live_lengths.sum()) - num_live,
        prefetched=total - num_live,
    )


def claim_first(
    targets: np.ndarray,
    num_nodes: int,
    claimable: np.ndarray | None = None,
    strategy: str | None = None,
) -> np.ndarray:
    """Mask of stream positions that win the first claim on their node.

    Position ``i`` is marked when ``targets[i]`` occurs at no earlier
    position *and* (if given) ``claimable[i]`` holds — the discovery
    test of BFS/SP level expansion, where a node reached by several
    edges of one level is claimed by the stream-first edge.

    Two exact strategies, switched on stream density (or forced via
    ``strategy`` for tests): ``"dense"`` scatters positions into a
    per-node table (O(stream + nodes), a reversed assignment makes the
    first position win); ``"sparse"`` stable-sorts the stream and
    marks group heads (O(stream log stream), no per-node table).
    """
    stream = targets.shape[0]
    if strategy is None:
        strategy = (
            "dense" if stream * DENSE_SWITCH >= num_nodes else "sparse"
        )
    if stream == 0:
        first = np.zeros(0, dtype=bool)
    elif strategy == "dense":
        positions = np.arange(stream, dtype=np.int64)
        first_pos = np.full(num_nodes, -1, dtype=np.int64)
        first_pos[targets[::-1]] = positions[::-1]
        first = first_pos[targets] == positions
    elif strategy == "sparse":
        order = np.argsort(targets, kind="stable")
        ordered = targets[order]
        head = np.empty(stream, dtype=bool)
        head[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
        first = np.empty(stream, dtype=bool)
        first[order] = head
    else:
        raise InvalidParameterError(
            f"claim_first strategy must be 'dense' or 'sparse', "
            f"got {strategy!r}"
        )
    if claimable is not None:
        first = first & claimable
    return first


@dataclass(frozen=True)
class FrontierEdges:
    """The gathered edge stream of one frontier advance."""

    starts: np.ndarray  # CSR row start per frontier node
    degrees: np.ndarray  # row width per frontier node
    targets: np.ndarray  # concatenated neighbours, CSR order (int64)

    @property
    def total(self) -> int:
        return int(self.targets.shape[0])


class Frontier:
    """An ordered set of active nodes (discovery order preserved).

    Order matters: the trace a frontier advance emits must equal the
    scalar FIFO's, so ``nodes`` keeps the exact order the nodes were
    claimed in.  Density (frontier size relative to the graph) decides
    the first-claim strategy used when expanding.
    """

    __slots__ = ("nodes", "num_nodes")

    def __init__(self, nodes: np.ndarray, num_nodes: int) -> None:
        self.nodes = nodes
        self.num_nodes = num_nodes

    @property
    def size(self) -> int:
        return int(self.nodes.shape[0])

    @property
    def is_dense(self) -> bool:
        return self.size * DENSE_SWITCH >= self.num_nodes

    def advance(
        self, offsets: np.ndarray, adjacency: np.ndarray
    ) -> FrontierEdges:
        """Gather the concatenated adjacency stream of the frontier."""
        with obs.profile(
            "algo.frontier.advance",
            nodes=self.size,
            dense=self.is_dense,
        ):
            starts = offsets[self.nodes].astype(np.int64, copy=False)
            degrees = (
                offsets[self.nodes + 1].astype(np.int64, copy=False)
                - starts
            )
            total = int(degrees.sum())
            edge_idx = np.repeat(starts, degrees) + _ramp(degrees, total)
            targets = adjacency[edge_idx].astype(np.int64, copy=False)
        return FrontierEdges(starts=starts, degrees=degrees, targets=targets)

    def first_claims(
        self,
        edges: FrontierEdges,
        claimable: np.ndarray | None = None,
    ) -> np.ndarray:
        """First-claim mask over this frontier's edge stream, with the
        dense/sparse strategy chosen from the stream's density."""
        strategy = (
            "dense"
            if edges.total * DENSE_SWITCH >= self.num_nodes
            else "sparse"
        )
        return claim_first(
            edges.targets, self.num_nodes, claimable, strategy
        )


class BucketQueue:
    """Monotone integer-priority bucket queue with lazy invalidation.

    The PriorityGraph-style replacement for a binary heap: items are
    filed under integer priorities; :meth:`pop_bucket` surrenders the
    whole smallest non-empty bucket at once.  Entries are never
    updated in place — re-prioritised items are simply pushed again
    and the stale copies filtered by the caller on pop (lazy
    invalidation).  :meth:`pop_at` serves *bucket fusion*: while
    processing priority ``p``, re-insertions into ``p`` are drained in
    the same round instead of going through a fresh minimum scan,
    which is what keeps delta-stepping and weighted-core peeling
    batch-shaped.
    """

    __slots__ = ("_buckets",)

    def __init__(self) -> None:
        self._buckets: dict[int, list[np.ndarray]] = {}

    @property
    def empty(self) -> bool:
        return not self._buckets

    def push(self, priorities: np.ndarray, items: np.ndarray) -> None:
        """File ``items[i]`` under ``priorities[i]`` (both int64)."""
        count = items.shape[0]
        if count == 0:
            return
        order = np.argsort(priorities, kind="stable")
        ordered_p = priorities[order]
        ordered_items = items[order]
        head = np.empty(count, dtype=bool)
        head[0] = True
        np.not_equal(ordered_p[1:], ordered_p[:-1], out=head[1:])
        bounds = np.flatnonzero(head).tolist()
        bounds.append(count)
        buckets = self._buckets
        for i in range(len(bounds) - 1):
            lo = bounds[i]
            chunk = ordered_items[lo:bounds[i + 1]]
            buckets.setdefault(int(ordered_p[lo]), []).append(chunk)

    def pop_bucket(self) -> tuple[int, np.ndarray] | None:
        """``(priority, items)`` of the smallest non-empty bucket."""
        if not self._buckets:
            return None
        priority = min(self._buckets)
        return priority, self._drain(priority)

    def pop_at(self, priority: int) -> np.ndarray | None:
        """Drain exactly bucket ``priority`` (the fusion round-trip),
        or ``None`` when it is empty."""
        if priority not in self._buckets:
            return None
        return self._drain(priority)

    def _drain(self, priority: int) -> np.ndarray:
        chunks = self._buckets.pop(priority)
        if len(chunks) == 1:
            return chunks[0]
        return np.concatenate(chunks)


class TraceEmitter:
    """Flush point of assembled access blocks into one ``Memory``.

    A flush is one by-reference append to the trace buffer of exactly
    the accesses the scalar emitter would make, so the runtime stays
    counter-identical to its oracle.
    """

    __slots__ = ("_memory",)

    def __init__(self, memory: Memory) -> None:
        self._memory = memory

    def flush(
        self,
        lines: np.ndarray,
        demand: np.ndarray | None = None,
        extra_l1: int = 0,
        prefetched: int = 0,
    ) -> None:
        if lines.shape[0] == 0 and extra_l1 == 0 and prefetched == 0:
            return
        if demand is None:
            demand = np.ones(lines.shape[0], dtype=bool)
        with obs.profile(
            "algo.trace.flush", accesses=int(lines.shape[0])
        ):
            self._memory.touch_block(lines, demand, extra_l1, prefetched)
