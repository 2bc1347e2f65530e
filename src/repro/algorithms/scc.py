"""SCC — strongly connected components via Tarjan's algorithm.

Iterative Tarjan [Tarjan 1972] with an explicit work stack (the
datasets are far deeper than CPython's recursion limit).  Returns a
component id per node; ids are assigned in the order components
complete, so they are deterministic.  Nodes in the same component get
the same id, and the partition is invariant under relabeling — the
integration tests rely on both properties.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.common import NODE_BYTES, declare_graph
from repro.cache.layout import Memory
from repro.graph.csr import CSRGraph

_UNSET = -1


def strongly_connected_components(graph: CSRGraph) -> np.ndarray:
    """Tarjan SCC; returns the component id of every node."""
    n = graph.num_nodes
    offsets = graph.offsets
    adjacency = graph.adjacency
    disc = np.full(n, _UNSET, dtype=np.int64)
    low = np.zeros(n, dtype=np.int64)
    component = np.full(n, _UNSET, dtype=np.int64)
    on_stack = np.zeros(n, dtype=bool)
    tarjan_stack: list[int] = []
    counter = 0
    components = 0
    for root in range(n):
        if disc[root] != _UNSET:
            continue
        work: list[list[int]] = [[root, 0]]
        while work:
            u, edge_index = work[-1]
            if edge_index == 0:
                disc[u] = low[u] = counter
                counter += 1
                tarjan_stack.append(u)
                on_stack[u] = True
            start = int(offsets[u])
            end = int(offsets[u + 1])
            descended = False
            i = start + edge_index
            while i < end:
                v = int(adjacency[i])
                i += 1
                if disc[v] == _UNSET:
                    work[-1][1] = i - start
                    work.append([v, 0])
                    descended = True
                    break
                if on_stack[v] and disc[v] < low[u]:
                    low[u] = disc[v]
            if descended:
                continue
            if low[u] == disc[u]:
                while True:
                    w = tarjan_stack.pop()
                    on_stack[w] = False
                    component[w] = components
                    if w == u:
                        break
                components += 1
            work.pop()
            if work:
                parent = work[-1][0]
                if low[u] < low[parent]:
                    low[parent] = low[u]
        # edge_index bookkeeping: loop resumed via the stored value.
    return component


def strongly_connected_components_traced(
    graph: CSRGraph, memory: Memory
) -> np.ndarray:
    """Tarjan SCC with traced memory accesses.

    Node state lives in Python lists and the CSR is read through
    memoryviews, so the descent indexes no numpy scalars; line ids go
    straight into the trace through a
    :class:`~repro.cache.layout.LineRecorder`.
    """
    n = graph.num_nodes
    traced = declare_graph(memory, graph)
    recorder = memory.recorder()
    disc0, disc_s = recorder.line_map(memory.array("disc", n, NODE_BYTES))
    low0, low_s = recorder.line_map(memory.array("low", n, NODE_BYTES))
    component0, component_s = recorder.line_map(
        memory.array("component", n, NODE_BYTES)
    )
    on_stack0, on_stack_s = recorder.line_map(
        memory.array("on_stack", n, 1)
    )
    stack0, stack_s = recorder.line_map(
        memory.array("tarjan_stack", n, NODE_BYTES)
    )
    offsets0, offsets_s = recorder.line_map(traced.offsets)
    adjacency0, adjacency_s = recorder.line_map(traced.adjacency)
    append = recorder.append
    step = recorder.step
    # Views, not copies: a frame keeps only its resume position, so
    # no neighbour list stays alive down a deep descent.
    offsets = graph.offsets.data
    adjacency = graph.adjacency.data
    disc = [_UNSET] * n
    low = [0] * n
    component = [_UNSET] * n
    on_stack = [False] * n
    tarjan_stack: list[int] = []
    counter = 0
    components = 0
    for root in range(n):
        append(disc0 + (root >> disc_s))  # restart scan
        if disc[root] != _UNSET:
            continue
        work: list[list[int]] = [[root, 0]]
        while work:
            frame = work[-1]
            u, edge_index = frame
            if edge_index == 0:
                append(disc0 + (u >> disc_s))
                append(low0 + (u >> low_s))
                disc[u] = low[u] = counter
                counter += 1
                tarjan_stack.append(u)
                append(stack0 + ((len(tarjan_stack) - 1) >> stack_s))
                on_stack[u] = True
                append(on_stack0 + (u >> on_stack_s))
                append(offsets0 + (u >> offsets_s))
            start = offsets[u]
            end = offsets[u + 1]
            descended = False
            i = start + edge_index
            low_u = low[u]
            while i < end:
                append(adjacency0 + (i >> adjacency_s))
                v = adjacency[i]
                i += 1
                append(disc0 + (v >> disc_s))
                disc_v = disc[v]
                if disc_v == _UNSET:
                    frame[1] = i - start
                    work.append([v, 0])
                    descended = True
                    break
                append(on_stack0 + (v >> on_stack_s))
                if on_stack[v] and disc_v < low_u:
                    append(low0 + (u >> low_s))
                    low_u = disc_v
            low[u] = low_u
            if descended:
                continue
            append(low0 + (u >> low_s))
            append(disc0 + (u >> disc_s))
            if low_u == disc[u]:
                while True:
                    append(stack0 + ((len(tarjan_stack) - 1) >> stack_s))
                    w = tarjan_stack.pop()
                    on_stack[w] = False
                    append(on_stack0 + (w >> on_stack_s))
                    component[w] = components
                    append(component0 + (w >> component_s))
                    if w == u:
                        break
                components += 1
            work.pop()
            if work:
                parent = work[-1][0]
                append(low0 + (parent >> low_s))
                if low_u < low[parent]:
                    low[parent] = low_u
            step()
    return np.asarray(component, dtype=np.int64)


def strongly_connected_components_traced_scalar(
    graph: CSRGraph, memory: Memory
) -> np.ndarray:
    """Per-touch oracle of :func:`strongly_connected_components_traced`."""
    n = graph.num_nodes
    traced = declare_graph(memory, graph)
    traced_disc = memory.array("disc", n, NODE_BYTES)
    traced_low = memory.array("low", n, NODE_BYTES)
    traced_component = memory.array("component", n, NODE_BYTES)
    traced_on_stack = memory.array("on_stack", n, 1)
    traced_stack = memory.array("tarjan_stack", n, NODE_BYTES)
    offsets = graph.offsets
    adjacency = graph.adjacency
    disc = np.full(n, _UNSET, dtype=np.int64)
    low = np.zeros(n, dtype=np.int64)
    component = np.full(n, _UNSET, dtype=np.int64)
    on_stack = np.zeros(n, dtype=bool)
    tarjan_stack: list[int] = []
    counter = 0
    components = 0
    touch_disc = traced_disc.touch
    touch_low = traced_low.touch
    touch_on_stack = traced_on_stack.touch
    touch_stack = traced_stack.touch
    touch_adjacency = traced.adjacency.touch
    for root in range(n):
        touch_disc(root)  # restart scan  # repro: noqa[REP007]
        if disc[root] != _UNSET:
            continue
        work: list[list[int]] = [[root, 0]]
        while work:
            u, edge_index = work[-1]
            if edge_index == 0:
                touch_disc(u)  # repro: noqa[REP007]
                touch_low(u)  # repro: noqa[REP007]
                disc[u] = low[u] = counter
                counter += 1
                tarjan_stack.append(u)
                touch_stack(len(tarjan_stack) - 1)  # repro: noqa[REP007]
                on_stack[u] = True
                touch_on_stack(u)  # repro: noqa[REP007]
                traced.offsets.touch(u)  # repro: noqa[REP007]
            start = int(offsets[u])
            end = int(offsets[u + 1])
            descended = False
            i = start + edge_index
            while i < end:
                touch_adjacency(i)  # repro: noqa[REP007]
                v = int(adjacency[i])
                i += 1
                touch_disc(v)  # repro: noqa[REP007]
                if disc[v] == _UNSET:
                    work[-1][1] = i - start
                    work.append([v, 0])
                    descended = True
                    break
                touch_on_stack(v)  # repro: noqa[REP007]
                if on_stack[v] and disc[v] < low[u]:
                    touch_low(u)  # repro: noqa[REP007]
                    low[u] = disc[v]
            if descended:
                continue
            touch_low(u)  # repro: noqa[REP007]
            touch_disc(u)  # repro: noqa[REP007]
            if low[u] == disc[u]:
                while True:
                    touch_stack(len(tarjan_stack) - 1)  # repro: noqa[REP007]
                    w = tarjan_stack.pop()
                    on_stack[w] = False
                    touch_on_stack(w)  # repro: noqa[REP007]
                    component[w] = components
                    traced_component.touch(w)  # repro: noqa[REP007]
                    if w == u:
                        break
                components += 1
            work.pop()
            if work:
                parent = work[-1][0]
                touch_low(parent)  # repro: noqa[REP007]
                if low[u] < low[parent]:
                    low[parent] = low[u]
    return component
