"""Weighted k-core: batch peel vs sequential heap peel parity."""

import numpy as np
import pytest

from repro.algorithms import REGISTRY
from repro.algorithms.deltastep import edge_weights
from repro.algorithms.wkcore import (
    weighted_core_decomposition,
    weighted_core_decomposition_traced,
)
from repro.cache import CacheHierarchy, CacheLevel, Memory
from repro.graph import from_edges, generators
from tests.conftest import RESOLVERS, resolved_by


def tiny_hierarchy():
    return CacheHierarchy(
        [
            CacheLevel(2 * 64, 64, 2, "L1"),
            CacheLevel(4 * 64, 64, 4, "L2"),
            CacheLevel(8 * 64, 64, 8, "L3"),
        ]
    )


@pytest.fixture(scope="module")
def social():
    return generators.social_graph(100, edges_per_node=5, seed=13)


class TestPureOracle:
    def test_coreness_bounded_by_weighted_degree(self, social):
        coreness = weighted_core_decomposition(social)
        undirected = social.undirected()
        weights = edge_weights(undirected)
        degree = np.zeros(social.num_nodes, dtype=np.int64)
        sources, _ = undirected.edge_array()
        np.add.at(degree, sources, weights)
        assert (coreness <= degree).all()
        assert (coreness >= 0).all()

    def test_isolated_nodes_have_zero_coreness(self):
        graph = from_edges([(0, 1)], num_nodes=4)
        coreness = weighted_core_decomposition(graph)
        assert coreness[2] == 0
        assert coreness[3] == 0

    def test_first_peeled_node_keeps_its_weighted_degree(self, social):
        # The first pop is the global minimum weighted degree and the
        # clamp cannot lower it, so its coreness is exactly its degree.
        undirected = social.undirected()
        weights = edge_weights(undirected)
        degree = np.zeros(social.num_nodes, dtype=np.int64)
        sources, _ = undirected.edge_array()
        np.add.at(degree, sources, weights)
        coreness = weighted_core_decomposition(social)
        lowest = int(np.argmin(degree))
        assert coreness[lowest] == degree[lowest]


class TestTracedParity:
    @pytest.mark.parametrize("resolver", RESOLVERS)
    def test_matches_oracle(self, social, resolver):
        memory = Memory(resolved_by(resolver, tiny_hierarchy()))
        traced = weighted_core_decomposition_traced(social, memory)
        assert np.array_equal(
            traced, weighted_core_decomposition(social)
        )
        assert memory.total_refs > 0

    @pytest.mark.parametrize(
        "edges, num_nodes",
        [
            ([], 0),
            ([], 3),
            ([(0, 0)], 1),
            ([(0, 1), (1, 2), (2, 0), (2, 3)], 5),
            ([(0, 1), (1, 2), (2, 3)], 4),
        ],
    )
    def test_edge_case_graphs(self, edges, num_nodes):
        graph = from_edges(edges, num_nodes=num_nodes)
        memory = Memory(tiny_hierarchy())
        traced = weighted_core_decomposition_traced(graph, memory)
        assert np.array_equal(
            traced, weighted_core_decomposition(graph)
        )


class TestRegistryWiring:
    def test_registered_off_headline(self):
        spec = REGISTRY["wkcore"]
        assert spec.pure is weighted_core_decomposition
        assert spec.traced is weighted_core_decomposition_traced
        assert spec.headline is False
