"""Delta-stepping SSSP: weights, oracle parity, registry wiring."""

import numpy as np
import pytest

from repro.algorithms import REGISTRY
from repro.algorithms.deltastep import (
    DEFAULT_DELTA,
    INFINITY,
    MAX_WEIGHT,
    delta_stepping,
    delta_stepping_traced,
    edge_weights,
)
from repro.cache import CacheHierarchy, CacheLevel, Memory
from repro.errors import InvalidParameterError
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
    return generators.social_graph(100, edges_per_node=5, seed=11)


class TestEdgeWeights:
    def test_deterministic(self, social):
        assert np.array_equal(
            edge_weights(social), edge_weights(social)
        )

    def test_range(self, social):
        weights = edge_weights(social)
        assert weights.shape == (social.num_edges,)
        assert int(weights.min()) >= 1
        assert int(weights.max()) <= MAX_WEIGHT

    def test_symmetric_on_reverse_edges(self):
        graph = from_edges(
            [(0, 1), (1, 0), (1, 2), (2, 1)], num_nodes=3
        )
        weights = edge_weights(graph)
        # adjacency is [1, 0, 2, 1]: positions 0/1 are the same
        # unordered pair, as are 2/3.
        assert weights[0] == weights[1]
        assert weights[2] == weights[3]

    def test_bad_max_weight_rejected(self, social):
        with pytest.raises(InvalidParameterError, match="max_weight"):
            edge_weights(social, max_weight=0)


class TestPureOracle:
    def test_hand_checked_distances(self):
        graph = from_edges(
            [(0, 1), (1, 2), (0, 2)], num_nodes=4
        )
        # adjacency is [1, 2 | 2]: w(0,1)=2, w(0,2)=9, w(1,2)=3.
        weights = np.asarray([2, 9, 3])
        distance = delta_stepping(graph, source=0, weights=weights)
        assert distance.tolist()[:3] == [0, 2, 5]  # 0->1->2 beats 0->2
        assert distance[3] == INFINITY  # unreachable

    def test_source_distance_is_zero(self, social):
        assert delta_stepping(social, source=4)[4] == 0

    def test_bad_source_rejected(self, social):
        with pytest.raises(InvalidParameterError, match="source"):
            delta_stepping(social, source=social.num_nodes)

    def test_bad_delta_rejected(self, social):
        with pytest.raises(InvalidParameterError, match="delta"):
            delta_stepping(social, delta=0)


class TestTracedParity:
    @pytest.mark.parametrize("delta", [1, DEFAULT_DELTA, 40])
    @pytest.mark.parametrize("resolver", RESOLVERS)
    def test_matches_oracle(self, social, resolver, delta):
        memory = Memory(resolved_by(resolver, tiny_hierarchy()))
        traced = delta_stepping_traced(
            social, memory, source=2, delta=delta
        )
        assert np.array_equal(
            traced, delta_stepping(social, source=2, delta=delta)
        )
        assert memory.total_refs > 0

    @pytest.mark.parametrize(
        "edges, num_nodes",
        [
            ([], 1),
            ([(0, 0)], 1),
            ([(0, 1), (1, 2), (2, 3)], 4),
            ([(0, 1), (1, 0)], 3),  # node 2 unreachable
        ],
    )
    def test_edge_case_graphs(self, edges, num_nodes):
        graph = from_edges(edges, num_nodes=num_nodes)
        memory = Memory(tiny_hierarchy())
        traced = delta_stepping_traced(graph, memory, source=0)
        assert np.array_equal(traced, delta_stepping(graph, source=0))

    def test_delta_does_not_change_distances(self, social):
        baseline = None
        for delta in (1, 3, 9, 100):
            memory = Memory(tiny_hierarchy())
            distance = delta_stepping_traced(
                social, memory, source=0, delta=delta
            )
            if baseline is None:
                baseline = distance
            else:
                assert np.array_equal(distance, baseline)


class TestRegistryWiring:
    def test_registered_off_headline(self):
        spec = REGISTRY["dsssp"]
        assert spec.pure is delta_stepping
        assert spec.traced is delta_stepping_traced
        assert spec.headline is False
        assert spec.source_params == ("source",)
