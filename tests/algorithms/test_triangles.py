"""Triangle counting: the batched runtime emitter against its oracle.

The runtime kernel must reproduce the scalar merge walk's touch
sequence exactly, so every check compares the full counter set —
cycles, the six per-level counters, demand and prefetched references —
between :func:`triangle_count_traced` and
:func:`triangle_count_traced_scalar`, on fixed graphs, on generated
ones and with batches forced down to a single node.
"""

from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings

from repro.algorithms import triangles
from repro.algorithms.triangles import (
    triangle_count,
    triangle_count_traced,
    triangle_count_traced_scalar,
)
from repro.analysis.engine import run_project_lint
from repro.cache import CacheHierarchy, CacheLevel, Memory
from repro.graph import from_edges, generators
from tests.conftest import graph_strategy, resolved_by

REPO_ALGORITHMS = (
    Path(__file__).resolve().parents[2] / "src" / "repro" / "algorithms"
)


def tiny_hierarchy():
    return CacheHierarchy(
        [
            CacheLevel(2 * 64, 64, 2, "L1"),
            CacheLevel(4 * 64, 64, 4, "L2"),
            CacheLevel(8 * 64, 64, 8, "L3"),
        ]
    )


def counters(traced, graph, resolver="replay"):
    memory = Memory(resolved_by(resolver, tiny_hierarchy()))
    count = traced(graph, memory)
    stats = memory.stats()
    return (
        count,
        memory.cost().total_cycles,
        (
            stats.l1_refs, stats.l1_misses, stats.l2_refs,
            stats.l2_misses, stats.l3_refs, stats.l3_misses,
        ),
        memory.level_counts,
        memory.total_refs,
        memory.prefetched_refs,
    )


def assert_counter_identical(graph, resolver="replay"):
    runtime = counters(triangle_count_traced, graph, resolver)
    scalar = counters(triangle_count_traced_scalar, graph, resolver)
    assert runtime == scalar
    return runtime


def to_networkx(graph):
    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(range(graph.num_nodes))
    sources, targets = graph.edge_array()
    nx_graph.add_edges_from(
        (int(s), int(t)) for s, t in zip(sources, targets) if s != t
    )
    return nx_graph


def networkx_triangles(graph) -> int:
    return sum(nx.triangles(to_networkx(graph)).values()) // 3


FIXED = {
    "empty": from_edges([], num_nodes=0),
    "isolated": from_edges([], num_nodes=5),
    "isolated-and-triangle": from_edges(
        [(0, 1), (1, 2), (2, 0)], num_nodes=6
    ),
    "selfloops": from_edges([(0, 0), (0, 1), (1, 2), (2, 0)], 3),
    "complete": generators.complete(9),
    "star": generators.star(12),
    "grid": generators.grid(5, 6),
    "social": generators.social_graph(300, edges_per_node=6, seed=3),
    "web": generators.web_graph(
        240, pages_per_host=20, out_degree=6, seed=5
    ),
}


class TestCounterIdentity:
    @pytest.mark.parametrize("name", sorted(FIXED))
    def test_fixed_graphs(self, name):
        graph = FIXED[name]
        count = assert_counter_identical(graph)[0]
        assert count == networkx_triangles(graph)

    @pytest.mark.parametrize("name", ["isolated-and-triangle", "social"])
    def test_step_backend(self, name):
        assert_counter_identical(FIXED[name], resolver="step")

    @settings(max_examples=60, deadline=None)
    @given(graph=graph_strategy(max_nodes=14, max_edges=60))
    def test_generated_graphs(self, graph):
        count = assert_counter_identical(graph)[0]
        assert count == networkx_triangles(graph)

    @pytest.mark.parametrize("batch", [1, 7, 64])
    def test_small_batches(self, monkeypatch, batch):
        # Batch 1 puts every node in a batch of its own, including the
        # ones whose merge walks alone exceed the bound.
        graph = FIXED["social"]
        expected = counters(triangle_count_traced, graph)
        monkeypatch.setattr(triangles, "BATCH_ELEMENTS", batch)
        assert counters(triangle_count_traced, graph) == expected


class TestTriangleCount:
    def test_pure_matches_networkx(self):
        for graph in FIXED.values():
            assert triangle_count(graph) == networkx_triangles(graph)

    def test_traced_matches_pure(self):
        graph = FIXED["web"]
        assert triangle_count_traced(
            graph, Memory(tiny_hierarchy())
        ) == triangle_count(graph)


def test_lint_clean():
    """No per-element touch loops (REP007) in the runtime kernel, and
    a pure oracle (REP010)."""
    report = run_project_lint([str(REPO_ALGORITHMS)])
    findings = [
        f for f in report.findings
        if f.rule in ("REP007", "REP010")
        and f.path.endswith("triangles.py")
    ]
    assert findings == []
