"""Kcore, DS, SCC and DFS: the recorder kernels against their oracles.

Each fast emitter writes line ids straight into the trace through a
:class:`~repro.cache.layout.LineRecorder`; its ``*_traced_scalar``
oracle keeps the per-touch loop.  Every check compares the full
counter set — result, cycles, the six per-level counters,
``level_counts``, demand and prefetched references — on fixed graphs,
on generated ones, with chunks small enough that replays land inside
a step, and on memories that step their trace (the step oracle and a
FIFO hierarchy).  Results are also checked against networkx.
"""

from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings

from repro.algorithms import REGISTRY, kcore
from repro.analysis.engine import run_project_lint
from repro.analysis.project import ProjectAnalysis
from repro.analysis.project_rules import OraclePurityRule
from repro.cache import CacheHierarchy, CacheLevel, Memory, layout
from repro.errors import InvalidParameterError
from repro.graph import from_edges, generators
from tests.conftest import graph_strategy, resolved_by

REPO_ALGORITHMS = (
    Path(__file__).resolve().parents[2] / "src" / "repro" / "algorithms"
)

SEQUENTIAL = ("kcore", "ds", "scc", "dfs")


def tiny_hierarchy(policy="lru"):
    return CacheHierarchy(
        [
            CacheLevel(2 * 64, 64, 2, "L1", policy=policy),
            CacheLevel(4 * 64, 64, 4, "L2", policy=policy),
            CacheLevel(8 * 64, 64, 8, "L3", policy=policy),
        ]
    )


def counters(traced, graph, resolver="replay", policy="lru"):
    memory = Memory(resolved_by(resolver, tiny_hierarchy(policy)))
    result = traced(graph, memory)
    stats = memory.stats()
    return (
        np.asarray(result).tolist(),
        memory.cost().total_cycles,
        (
            stats.l1_refs, stats.l1_misses, stats.l2_refs,
            stats.l2_misses, stats.l3_refs, stats.l3_misses,
        ),
        memory.level_counts,
        memory.total_refs,
        memory.prefetched_refs,
    )


def assert_counter_identical(name, graph, resolver="replay", policy="lru"):
    spec = REGISTRY[name]
    fast = counters(spec.traced, graph, resolver, policy)
    oracle = counters(spec.traced_scalar, graph, resolver, policy)
    assert fast == oracle
    assert fast[0] == np.asarray(spec.pure(graph)).tolist()
    return fast


FIXED = {
    "empty": from_edges([], num_nodes=0),
    "single": from_edges([], num_nodes=1),
    "isolated": from_edges([], num_nodes=5),
    "selfloops": from_edges([(0, 0), (0, 1), (1, 2), (2, 2)], 3),
    "star": generators.star(12),
    "cycle": from_edges([(i, (i + 1) % 7) for i in range(7)], 7),
    "social": generators.social_graph(150, edges_per_node=5, seed=3),
    "web": generators.web_graph(
        200, pages_per_host=20, out_degree=6, seed=5
    ),
}


# ---------------------------------------------------------------------
# networkx references
# ---------------------------------------------------------------------
def directed_networkx(graph):
    nx_graph = nx.DiGraph()
    nx_graph.add_nodes_from(range(graph.num_nodes))
    sources, targets = graph.edge_array()
    nx_graph.add_edges_from(
        (int(s), int(t)) for s, t in zip(sources, targets)
    )
    return nx_graph


def check_against_networkx(name, graph, result):
    nx_graph = directed_networkx(graph)
    n = graph.num_nodes
    if name == "kcore":
        undirected = nx.Graph(nx_graph.to_undirected())
        undirected.remove_edges_from(nx.selfloop_edges(undirected))
        expected = nx.core_number(undirected)
        assert result == [expected[u] for u in range(n)]
    elif name == "scc":
        partition = {
            frozenset(u for u in range(n) if result[u] == c)
            for c in set(result)
        }
        assert partition == {
            frozenset(c) for c in nx.strongly_connected_components(nx_graph)
        }
    elif name == "dfs":
        assert sorted(result) == list(range(n))
        for v in range(n):
            # A non-root node is pushed by an in-neighbour popped first.
            earlier = [
                u for u in nx_graph.predecessors(v)
                if result[u] < result[v]
            ]
            first_of_tree = all(
                result[u] < result[v] for u in range(v)
            )
            assert earlier or first_of_tree
    else:
        chosen = set(result)
        assert len(chosen) == len(result)
        for v in range(n):
            assert v in chosen or any(
                u in chosen for u in nx_graph.predecessors(v)
            )


class TestCounterIdentity:
    @pytest.mark.parametrize("case", sorted(FIXED))
    @pytest.mark.parametrize("name", SEQUENTIAL)
    def test_fixed_graphs(self, name, case):
        graph = FIXED[case]
        result = assert_counter_identical(name, graph)[0]
        check_against_networkx(name, graph, result)

    @pytest.mark.parametrize("name", SEQUENTIAL)
    def test_step_oracle_memory(self, name):
        assert_counter_identical(name, FIXED["social"], resolver="step")

    @pytest.mark.parametrize("name", SEQUENTIAL)
    def test_fifo_memory(self, name):
        assert_counter_identical(name, FIXED["web"], policy="fifo")

    @pytest.mark.parametrize("chunk", [3, 64])
    @pytest.mark.parametrize("name", SEQUENTIAL)
    def test_replays_inside_a_step(self, monkeypatch, name, chunk):
        # Chunks this small replay from inside ``touch_run`` as well as
        # at step boundaries, so the recorder's bound ``append`` must
        # survive every replay.
        graph = generators.social_graph(60, edges_per_node=4, seed=9)
        expected = counters(REGISTRY[name].traced_scalar, graph)
        monkeypatch.setattr(layout, "chunk_accesses", lambda h: chunk)
        assert counters(REGISTRY[name].traced, graph) == expected
        assert counters(REGISTRY[name].traced_scalar, graph) == expected

    @settings(max_examples=40, deadline=None)
    @given(graph=graph_strategy(max_nodes=14, max_edges=50))
    def test_generated_graphs(self, graph):
        for name in SEQUENTIAL:
            result = assert_counter_identical(name, graph)[0]
            check_against_networkx(name, graph, result)


class TestKcoreHeap:
    def test_packed_entries_order_like_pairs(self):
        pairs = [(3, 9), (3, 2), (0, 7), (5, 0), (0, 1)]
        packed = [key << 32 | node for key, node in pairs]
        assert [
            (entry >> 32, entry & 0xFFFFFFFF) for entry in sorted(packed)
        ] == sorted(pairs)

    @pytest.mark.parametrize("traced", [False, True])
    def test_push_past_capacity_raises(self, monkeypatch, traced):
        graph = FIXED["star"]
        monkeypatch.setattr(kcore, "heap_capacity", lambda g: 3)
        with pytest.raises(InvalidParameterError, match="capacity"):
            if traced:
                kcore.core_decomposition_traced(
                    graph, Memory(tiny_hierarchy())
                )
            else:
                kcore.core_decomposition(graph)


def test_lint_clean_and_oracles_rooted():
    """The fast kernels need no REP007 noqa, every oracle is pure, and
    REP010 roots each of the four oracles."""
    report = run_project_lint([str(REPO_ALGORITHMS)])
    files = ("kcore.py", "domset.py", "scc.py", "dfs.py")
    assert [
        f for f in report.findings
        if f.rule in ("REP007", "REP010") and f.path.endswith(files)
    ] == []
    project = ProjectAnalysis.build([str(REPO_ALGORITHMS)])
    roots = OraclePurityRule()._roots(project, project.symbol_table())
    for name in SEQUENTIAL:
        oracle = REGISTRY[name].traced_scalar
        assert any(root.endswith("." + oracle.__name__) for root in roots)
