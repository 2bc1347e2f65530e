"""Triangle counting (extension algorithm).

Node-iterator triangle counting over the undirected view with
merge-based intersection of sorted neighbour lists — the standard
cache-sensitive kernel (every intersection streams two lists whose
*contents* are looked up again as lists themselves).

Each triangle {a, b, c} is counted exactly once via the degree
orientation: an edge (u, v) is processed only from the lower-rank
endpoint, with rank = (degree, id).

The traced kernel runs on the frontier runtime: the two-pointer walk
over N(u) and N(v) visits the elements of both lists in their stable
merge order (an equal pair is one step) until either list runs out,
so each step's pointer pair follows from two ``searchsorted`` passes
over a whole batch of node pairs.  :func:`triangle_count_traced_scalar`
keeps the per-step loop as its oracle.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.common import NODE_BYTES, OFFSET_BYTES
from repro.algorithms.runtime import (
    TraceEmitter,
    interleave_fields,
    run_field,
    segment_sums,
)
from repro.cache.layout import Memory
from repro.graph.csr import CSRGraph

#: Most merge-list elements (|N(u)| + |N(v)| summed over a batch's
#: oriented pairs) one emission batch walks.  Batch temporaries take
#: ~100 B per element, so this holds a batch to about a megabyte; a
#: single node whose pairs exceed it forms a batch of its own.
BATCH_ELEMENTS = 1 << 13


def triangle_count(graph: CSRGraph) -> int:
    """Number of distinct triangles in the undirected view."""
    return _count(graph, memory=None)


def triangle_count_traced(graph: CSRGraph, memory: Memory) -> int:
    """Triangle counting with traced memory accesses.

    Runtime-backed and touch-sequence identical to
    :func:`triangle_count_traced_scalar`: per node ``u`` its
    ``u_offsets`` entry and adjacency run, then per neighbour ``v`` its
    ``degree`` entry and, for an oriented ``v``, its ``u_offsets``
    entry followed by one ``(N(u)[i], N(v)[j])`` adjacency pair per
    merge step.  Nodes are emitted in batches of at most
    :data:`BATCH_ELEMENTS` merge-list elements.
    """
    undirected = graph.undirected()
    n = undirected.num_nodes
    offsets = undirected.offsets.astype(np.int64, copy=False)
    adjacency = undirected.adjacency.astype(np.int64, copy=False)
    degrees = np.diff(offsets)
    traced_offsets = memory.array("u_offsets", n + 1, OFFSET_BYTES)
    traced_adjacency = memory.array(
        "u_adjacency", undirected.num_edges, NODE_BYTES
    )
    traced_degree = memory.array("degree", n, NODE_BYTES)
    sources = np.repeat(np.arange(n, dtype=np.int64), degrees)
    oriented = _rank_lower(degrees, sources, adjacency)
    node_work = degrees + segment_sums(
        np.where(oriented, degrees[sources] + degrees[adjacency], 0),
        degrees,
    )
    cum_work = np.cumsum(node_work)
    emitter = TraceEmitter(memory)
    total = 0
    lo = 0
    while lo < n:
        done = int(cum_work[lo - 1]) if lo else 0
        hi = int(
            np.searchsorted(cum_work, done + BATCH_ELEMENTS, side="right")
        )
        hi = min(max(hi, lo + 1), n)
        e_lo = int(offsets[lo])
        e_hi = int(offsets[hi])
        u = sources[e_lo:e_hi]
        v = adjacency[e_lo:e_hi]
        pairs = oriented[e_lo:e_hi]
        steps_i, steps_j, steps, found = _merge_steps(
            offsets, adjacency, degrees, u[pairs], v[pairs]
        )
        total += found
        # Per edge: degree[v], then (oriented only) u_offsets[v] and
        # one (N(u)[i], N(v)[j]) adjacency pair per merge step.
        pair_lens = np.zeros(e_hi - e_lo, dtype=np.int64)
        pair_lens[pairs] = 2 * steps
        pair_lines = np.empty(2 * steps_i.shape[0], dtype=np.int64)
        pair_lines[0::2] = traced_adjacency.element_lines(steps_i)
        pair_lines[1::2] = traced_adjacency.element_lines(steps_j)
        edge_lines, _ = interleave_fields([
            (
                np.ones(e_hi - e_lo, dtype=np.int64),
                traced_degree.element_lines(v),
                None,
            ),
            (
                pairs.astype(np.int64),
                traced_offsets.element_lines(v[pairs]),
                None,
            ),
            (pair_lens, pair_lines, None),
        ])
        # Per node: u_offsets[u], its adjacency run, its edges' content.
        nodes = np.arange(lo, hi, dtype=np.int64)
        widths = degrees[lo:hi]
        runs = run_field(traced_adjacency, offsets[lo:hi], widths)
        lines, demand = interleave_fields([
            (
                np.ones(hi - lo, dtype=np.int64),
                traced_offsets.element_lines(nodes),
                None,
            ),
            runs.as_field(),
            (
                segment_sums(1 + pairs + pair_lens, widths),
                edge_lines,
                None,
            ),
        ])
        emitter.flush(lines, demand, runs.extra_l1, runs.prefetched)
        lo = hi
    return total


def _rank_lower(degrees: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Whether ``a`` precedes ``b`` in the degree orientation."""
    da = degrees[a]
    db = degrees[b]
    return (da < db) | ((da == db) & (a < b))


def _merge_steps(offsets, adjacency, degrees, u, v):
    """The two-pointer walks of N(u[p]) and N(v[p]) for every pair.

    Returns the adjacency positions ``(i, j)`` of every step (pairs in
    order, steps in walk order), the step count per pair, and how many
    equal pairs close a triangle (``rank_lower(v, w)``).
    """
    len_a = degrees[u]
    len_b = degrees[v]
    num_a = int(len_a.sum())
    num_b = int(len_b.sum())
    pair_ids = np.arange(u.shape[0], dtype=np.int64)
    start_a = np.cumsum(len_a) - len_a  # pair's first element
    start_b = np.cumsum(len_b) - len_b
    pair_a = np.repeat(pair_ids, len_a)
    pair_b = np.repeat(pair_ids, len_b)
    idx_a = np.arange(num_a, dtype=np.int64) - start_a[pair_a]
    idx_b = np.arange(num_b, dtype=np.int64) - start_b[pair_b]
    pos_a = offsets[u][pair_a] + idx_a
    pos_b = offsets[v][pair_b] + idx_b
    # Pair-major keys: ascending across the batch, so one searchsorted
    # ranks every element of one side inside its pair's other list.
    span = np.int64(degrees.shape[0] + 1)
    key_a = pair_a * span + adjacency[pos_a]
    key_b = pair_b * span + adjacency[pos_b]
    # A step consumes the smaller head (both when equal); it starts
    # with i = elements of N(u) consumed, j = of N(v) consumed.
    less_b = np.searchsorted(key_b, key_a, side="left")
    j_of_a = less_b - start_b[pair_a]
    matched = less_b < num_b
    matched[matched] = key_b[less_b[matched]] == key_a[matched]
    upto_a = np.searchsorted(key_a, key_b, side="right")
    i_of_b = upto_a - start_a[pair_b]
    matched_b = upto_a > 0
    matched_b[matched_b] = key_a[upto_a[matched_b] - 1] == key_b[matched_b]
    # The walk stops when either list runs out; each step has a unique
    # slot (elements consumed before it) within its pair's merge.
    keep_a = j_of_a < len_b[pair_a]
    keep_b = ~matched_b & (i_of_b < len_a[pair_b])
    base = start_a + start_b
    slot_a = base[pair_a] + idx_a + j_of_a
    slot_b = base[pair_b] + i_of_b + idx_b
    size = num_a + num_b
    step_i = np.zeros(size, dtype=np.int64)
    step_j = np.zeros(size, dtype=np.int64)
    step_pair = np.full(size, -1, dtype=np.int64)
    step_i[slot_a[keep_a]] = pos_a[keep_a]
    step_j[slot_a[keep_a]] = offsets[v][pair_a[keep_a]] + j_of_a[keep_a]
    step_pair[slot_a[keep_a]] = pair_a[keep_a]
    step_i[slot_b[keep_b]] = offsets[u][pair_b[keep_b]] + i_of_b[keep_b]
    step_j[slot_b[keep_b]] = pos_b[keep_b]
    step_pair[slot_b[keep_b]] = pair_b[keep_b]
    live = step_pair >= 0
    steps = np.bincount(step_pair[live], minlength=u.shape[0])
    closing = _rank_lower(
        degrees, v[pair_a[matched]], adjacency[pos_a[matched]]
    )
    return (
        step_i[live], step_j[live], steps, int(np.count_nonzero(closing))
    )


def triangle_count_traced_scalar(graph: CSRGraph, memory: Memory) -> int:
    """Scalar-loop TC emitter: the runtime port's oracle."""
    return _count(graph, memory=memory)


def _count(graph: CSRGraph, memory: Memory | None) -> int:
    undirected = graph.undirected()
    n = undirected.num_nodes
    offsets = undirected.offsets
    adjacency = undirected.adjacency
    degrees = np.diff(offsets)
    if memory is not None:
        traced_offsets = memory.array("u_offsets", n + 1, OFFSET_BYTES)
        traced_adjacency = memory.array(
            "u_adjacency", undirected.num_edges, NODE_BYTES
        )
        traced_degree = memory.array("degree", n, NODE_BYTES)
        touch_adjacency = traced_adjacency.touch

    def rank_lower(u: int, v: int) -> bool:
        """Whether u precedes v in the degree orientation."""
        du = degrees[u]
        dv = degrees[v]
        return du < dv or (du == dv and u < v)

    total = 0
    for u in range(n):
        start_u = int(offsets[u])
        end_u = int(offsets[u + 1])
        if memory is not None:
            traced_offsets.touch(u)  # repro: noqa[REP007]
            traced_adjacency.touch_run(start_u, end_u - start_u)
        for v in adjacency[start_u:end_u].tolist():
            if memory is not None:
                traced_degree.touch(v)  # repro: noqa[REP007]
            if not rank_lower(u, v):
                continue
            # Merge-intersect N(u) and N(v), keeping only successors
            # of v in the orientation (so each triangle counts once).
            i = start_u
            j = int(offsets[v])
            end_v = int(offsets[v + 1])
            if memory is not None:
                traced_offsets.touch(v)  # repro: noqa[REP007]
            while i < end_u and j < end_v:
                a = int(adjacency[i])
                b = int(adjacency[j])
                if memory is not None:
                    touch_adjacency(i)  # repro: noqa[REP007]
                    touch_adjacency(j)  # repro: noqa[REP007]
                if a == b:
                    if rank_lower(v, a):
                        total += 1
                    i += 1
                    j += 1
                elif a < b:
                    i += 1
                else:
                    j += 1
    return total
