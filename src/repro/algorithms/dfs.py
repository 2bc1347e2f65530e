"""DFS — whole-graph depth-first search.

Iterative DFS with an explicit stack, neighbours pushed in reverse so
the lexicographically smallest pops first.  Visited flags are set at
push time (the standard explicit-stack discipline — the ChDFS
*ordering* uses exactly the same discipline, which is what makes it
the fastest ordering for this algorithm in the replication).

Returns the preorder visit number of every node.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.common import NODE_BYTES, declare_graph
from repro.cache.layout import Memory
from repro.graph.csr import CSRGraph


def depth_first_search(graph: CSRGraph) -> np.ndarray:
    """Whole-graph DFS; returns per-node preorder visit index."""
    n = graph.num_nodes
    offsets = graph.offsets
    adjacency = graph.adjacency
    visited = np.zeros(n, dtype=bool)
    preorder = np.empty(n, dtype=np.int64)
    counter = 0
    for root in range(n):
        if visited[root]:
            continue
        visited[root] = True
        stack = [root]
        while stack:
            u = stack.pop()
            preorder[u] = counter
            counter += 1
            neighbors = adjacency[offsets[u]:offsets[u + 1]]
            for i in range(neighbors.shape[0] - 1, -1, -1):
                v = int(neighbors[i])
                if not visited[v]:
                    visited[v] = True
                    stack.append(v)
    return preorder


def depth_first_search_traced(
    graph: CSRGraph, memory: Memory
) -> np.ndarray:
    """Whole-graph DFS with traced memory accesses.

    Line ids go straight into the trace through a
    :class:`~repro.cache.layout.LineRecorder`.
    """
    n = graph.num_nodes
    traced = declare_graph(memory, graph)
    recorder = memory.recorder()
    visited0, visited_s = recorder.line_map(memory.array("visited", n, 1))
    preorder0, preorder_s = recorder.line_map(
        memory.array("preorder", n, NODE_BYTES)
    )
    stack0, stack_s = recorder.line_map(
        memory.array("stack", n, NODE_BYTES)
    )
    offsets0, offsets_s = recorder.line_map(traced.offsets)
    run = traced.adjacency.touch_run
    append = recorder.append
    step = recorder.step
    offsets = graph.offsets.data
    adjacency = graph.adjacency
    visited = [False] * n
    preorder = [0] * n
    counter = 0
    for root in range(n):
        # Restart scan probes the visited flag.
        append(visited0 + (root >> visited_s))
        if visited[root]:
            continue
        visited[root] = True
        stack = [root]
        append(stack0)
        while stack:
            append(stack0 + ((len(stack) - 1) >> stack_s))
            u = stack.pop()
            append(preorder0 + (u >> preorder_s))
            preorder[u] = counter
            counter += 1
            append(offsets0 + (u >> offsets_s))
            start = offsets[u]
            end = offsets[u + 1]
            run(start, end - start)
            for v in reversed(adjacency[start:end].tolist()):
                append(visited0 + (v >> visited_s))
                if not visited[v]:
                    visited[v] = True
                    stack.append(v)
                    append(stack0 + ((len(stack) - 1) >> stack_s))
            step()
    return np.asarray(preorder, dtype=np.int64)


def depth_first_search_traced_scalar(
    graph: CSRGraph, memory: Memory
) -> np.ndarray:
    """Per-touch oracle of :func:`depth_first_search_traced`."""
    n = graph.num_nodes
    traced = declare_graph(memory, graph)
    traced_visited = memory.array("visited", n, 1)
    traced_preorder = memory.array("preorder", n, NODE_BYTES)
    traced_stack = memory.array("stack", n, NODE_BYTES)
    offsets = graph.offsets
    adjacency = graph.adjacency
    visited = np.zeros(n, dtype=bool)
    preorder = np.empty(n, dtype=np.int64)
    counter = 0
    touch_visited = traced_visited.touch
    touch_stack = traced_stack.touch
    for root in range(n):
        # Restart scan probes the visited flag.
        touch_visited(root)  # repro: noqa[REP007]
        if visited[root]:
            continue
        visited[root] = True
        stack = [root]
        touch_stack(0)  # repro: noqa[REP007]
        while stack:
            touch_stack(len(stack) - 1)  # repro: noqa[REP007]
            u = stack.pop()
            traced_preorder.touch(u)  # repro: noqa[REP007]
            preorder[u] = counter
            counter += 1
            traced.offsets.touch(u)  # repro: noqa[REP007]
            start = int(offsets[u])
            end = int(offsets[u + 1])
            traced.adjacency.touch_run(start, end - start)
            neighbors = adjacency[start:end]
            for i in range(neighbors.shape[0] - 1, -1, -1):
                v = int(neighbors[i])
                touch_visited(v)  # repro: noqa[REP007]
                if not visited[v]:
                    visited[v] = True
                    stack.append(v)
                    touch_stack(len(stack) - 1)  # repro: noqa[REP007]
    return preorder
