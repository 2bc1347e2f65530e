"""Kcore — core decomposition by peeling.

Recursively removes the minimum-degree node of the undirected view; a
node's *core number* is the peel level ``k`` current when it is
removed.  Following the replication, degrees live in a **binary heap**
with lazy invalidation (stale entries skipped at pop), giving the
quasi-linear O(m log n) variant — and giving the cache model the heap
traffic to account.

:func:`_peel` is the kernel behind both entry points.  Its heap is a
plain list of packed ``key << 32 | node`` ints, which order exactly
like the ``(key, node)`` pairs of :class:`TracedBinaryHeap`, so every
sift takes the same path; it writes line ids straight into the trace
through a :class:`~repro.cache.layout.LineRecorder`.
:func:`core_decomposition_traced_scalar` keeps the per-touch loop over
:class:`TracedBinaryHeap` as its counter-identical oracle.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

import numpy as np

from repro.algorithms.common import NODE_BYTES
from repro.algorithms.traced_heap import TracedBinaryHeap
from repro.cache.layout import Memory
from repro.errors import InvalidParameterError
from repro.graph.csr import CSRGraph

#: Bits of a packed heap entry below the key: the node id.
_NODE_BITS = 32
_NODE_MASK = (1 << _NODE_BITS) - 1


def core_decomposition(graph: CSRGraph) -> np.ndarray:
    """Core number of every node (on the undirected view)."""
    return _peel(graph, memory=None)


def core_decomposition_traced(
    graph: CSRGraph, memory: Memory
) -> np.ndarray:
    """Core decomposition with traced memory accesses."""
    return _peel(graph, memory=memory)


def heap_capacity(undirected: CSRGraph) -> int:
    """Heap slots the peel declares: one initial entry per node plus
    one re-push per undirected edge endpoint decrement."""
    return undirected.num_nodes + undirected.num_edges


def _peel(graph: CSRGraph, memory: Memory | None) -> np.ndarray:
    undirected = graph.undirected()
    n = undirected.num_nodes
    offsets = undirected.offsets.data
    adjacency = undirected.adjacency
    degrees = np.diff(undirected.offsets).tolist()
    capacity = heap_capacity(undirected)
    append: Callable[[int], object]
    run: Callable[[int, int], None] | None = None
    step: Callable[[], None] | None = None
    if memory is None:
        sink: deque[int] = deque(maxlen=0)  # discards every line id
        append = sink.append
        heap0 = heap_s = offsets0 = offsets_s = 0
        degree0 = degree_s = core0 = core_s = removed0 = removed_s = 0
    else:
        # Declared in the oracle's order, so every base matches.
        recorder = memory.recorder()
        heap0, heap_s = recorder.line_map(
            memory.array("kcore_heap", capacity, 8)
        )
        offsets0, offsets_s = recorder.line_map(
            memory.array("u_offsets", n + 1, 8)
        )
        run = memory.array(
            "u_adjacency", undirected.num_edges, NODE_BYTES
        ).touch_run
        degree0, degree_s = recorder.line_map(
            memory.array("degree", n, NODE_BYTES)
        )
        core0, core_s = recorder.line_map(
            memory.array("core", n, NODE_BYTES)
        )
        removed0, removed_s = recorder.line_map(
            memory.array("removed", n, 1)
        )
        append = recorder.append
        step = recorder.step
    heap: list[int] = []

    def push(entry: int) -> None:
        index = len(heap)
        if index >= capacity:
            raise InvalidParameterError(
                f"kcore heap push past its capacity of {capacity} slots"
            )
        heap.append(entry)
        append(heap0 + (index >> heap_s))
        while index > 0:
            parent = (index - 1) >> 1
            append(heap0 + (parent >> heap_s))
            above = heap[parent]
            if above <= entry:
                break
            heap[index] = above
            append(heap0 + (index >> heap_s))
            index = parent
        heap[index] = entry

    def pop() -> int:
        append(heap0)
        top = heap[0]
        last = heap.pop()
        size = len(heap)
        if size:
            append(heap0)
            index = 0
            while True:
                left = 2 * index + 1
                if left >= size:
                    break
                smallest = left
                append(heap0 + (left >> heap_s))
                child = heap[left]
                right = left + 1
                if right < size:
                    append(heap0 + (right >> heap_s))
                    if heap[right] < child:
                        smallest = right
                        child = heap[right]
                if child >= last:
                    break
                heap[index] = child
                append(heap0 + (index >> heap_s))
                append(heap0 + (smallest >> heap_s))
                index = smallest
            heap[index] = last
        return top

    core = [0] * n
    removed = [False] * n
    for u in range(n):
        push(degrees[u] << _NODE_BITS | u)
        if step is not None:
            step()
    level = 0
    for _ in range(n):
        while True:
            entry = pop()
            u = entry & _NODE_MASK
            append(removed0 + (u >> removed_s))
            if removed[u]:
                continue  # lazily invalidated entry
            append(degree0 + (u >> degree_s))
            key = entry >> _NODE_BITS
            if key == degrees[u]:
                break
        removed[u] = True
        if key > level:
            level = key
        core[u] = level
        append(core0 + (u >> core_s))
        append(offsets0 + (u >> offsets_s))
        start = offsets[u]
        end = offsets[u + 1]
        if run is not None:
            run(start, end - start)
        for v in adjacency[start:end].tolist():
            append(removed0 + (v >> removed_s))
            if not removed[v]:
                append(degree0 + (v >> degree_s))
                degree = degrees[v] - 1
                degrees[v] = degree
                push(degree << _NODE_BITS | v)
        if step is not None:
            step()
    return np.asarray(core, dtype=np.int64)


def core_decomposition_traced_scalar(
    graph: CSRGraph, memory: Memory
) -> np.ndarray:
    """Per-touch oracle of :func:`core_decomposition_traced`."""
    undirected = graph.undirected()
    n = undirected.num_nodes
    offsets = undirected.offsets
    adjacency = undirected.adjacency
    degrees = np.diff(offsets).astype(np.int64)
    heap = TracedBinaryHeap.declare(
        memory, "kcore_heap", heap_capacity(undirected)
    )
    traced_offsets = memory.array("u_offsets", n + 1, 8)
    traced_adjacency = memory.array(
        "u_adjacency", undirected.num_edges, NODE_BYTES
    )
    touch_degree = memory.array("degree", n, NODE_BYTES).touch
    touch_core = memory.array("core", n, NODE_BYTES).touch
    touch_removed = memory.array("removed", n, 1).touch
    core = np.zeros(n, dtype=np.int64)
    removed = np.zeros(n, dtype=bool)
    for u in range(n):
        heap.push(int(degrees[u]), u)
    level = 0
    for _ in range(n):
        while True:
            key, u = heap.pop()
            touch_removed(u)  # repro: noqa[REP007]
            if removed[u]:
                continue  # lazily invalidated entry
            touch_degree(u)  # repro: noqa[REP007]
            if key == int(degrees[u]):
                break
        removed[u] = True
        if key > level:
            level = key
        core[u] = level
        touch_core(u)  # repro: noqa[REP007]
        traced_offsets.touch(u)  # repro: noqa[REP007]
        start = int(offsets[u])
        end = int(offsets[u + 1])
        traced_adjacency.touch_run(start, end - start)
        for v in adjacency[start:end].tolist():
            touch_removed(v)  # repro: noqa[REP007]
            if not removed[v]:
                touch_degree(v)  # repro: noqa[REP007]
                degrees[v] -= 1
                heap.push(int(degrees[v]), v)
    return core
