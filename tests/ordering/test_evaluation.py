"""Tests for the one-call ordering evaluation bundle."""

import numpy as np
import pytest

from repro.errors import InvalidPermutationError
from repro.graph import generators, identity_permutation
from repro.ordering import (
    OrderingEvaluation,
    evaluate_all,
    evaluate_ordering,
    gorder_order,
)


@pytest.fixture(scope="module")
def graph():
    return generators.web_graph(
        500, pages_per_host=50, out_degree=6, seed=29
    )


class TestEvaluateOrdering:
    def test_fields_populated(self, graph):
        evaluation = evaluate_ordering(
            graph, identity_permutation(graph.num_nodes),
            name="original",
        )
        assert evaluation.ordering == "original"
        assert evaluation.gorder_f > 0
        assert evaluation.minla > 0
        assert evaluation.bits_per_edge > 0
        assert 0 <= evaluation.l1_miss_rate <= 1
        assert evaluation.probe_cycles > 0

    def test_gorder_beats_identity_on_objective(self, graph):
        identity = evaluate_ordering(
            graph, identity_permutation(graph.num_nodes)
        )
        gorder = evaluate_ordering(graph, gorder_order(graph))
        assert gorder.gorder_f >= identity.gorder_f

    def test_invalid_permutation_rejected(self, graph):
        with pytest.raises(InvalidPermutationError):
            evaluate_ordering(
                graph, np.zeros(graph.num_nodes, dtype=np.int64)
            )

    def test_row_matches_headers(self, graph):
        evaluation = evaluate_ordering(
            graph, identity_permutation(graph.num_nodes)
        )
        assert len(evaluation.as_row()) == len(
            OrderingEvaluation.headers()
        )


class TestEvaluateAll:
    def test_subset_sweep(self, graph):
        evaluations = evaluate_all(
            graph, ["original", "random", "gorder"], seed=1
        )
        names = [evaluation.ordering for evaluation in evaluations]
        assert set(names) == {"original", "random", "gorder"}
        # Sorted by probe cycles, fastest first.
        cycles = [e.probe_cycles for e in evaluations]
        assert cycles == sorted(cycles)

    def test_gorder_probe_beats_random(self, graph):
        evaluations = {
            e.ordering: e
            for e in evaluate_all(graph, ["random", "gorder"], seed=1)
        }
        assert (
            evaluations["gorder"].probe_cycles
            < evaluations["random"].probe_cycles
        )


def step_probes(monkeypatch):
    """Make the NQ probe resolve through the step oracle."""
    from repro.cache import scaled_hierarchy
    from repro.ordering import evaluation
    from tests.conftest import StepOracle

    monkeypatch.setattr(
        evaluation, "scaled_hierarchy",
        lambda: StepOracle(scaled_hierarchy().levels),
    )


class TestBackendPlumbing:
    """Regression tests: the evaluation bundle's probe must match the
    step oracle, and must report how long each ordering took."""

    def test_probe_counter_identity_replay_vs_step(
        self, graph, monkeypatch
    ):
        from repro.ordering import probe_arrangement
        from repro.graph import identity_permutation

        perm = identity_permutation(graph.num_nodes)
        replay_cycles, replay_stats = probe_arrangement(graph, perm)
        step_probes(monkeypatch)
        step_cycles, step_stats = probe_arrangement(graph, perm)
        assert step_cycles == replay_cycles
        assert step_stats == replay_stats

    def test_evaluate_ordering_accepts_backends(self, graph, monkeypatch):
        from repro.graph import identity_permutation

        perm = identity_permutation(graph.num_nodes)
        replay = evaluate_ordering(graph, perm)
        step_probes(monkeypatch)
        step = evaluate_ordering(graph, perm)
        assert step.probe_cycles == replay.probe_cycles
        assert step.l1_miss_rate == replay.l1_miss_rate

    def test_ordering_seconds_recorded(self, graph):
        import math

        rows = evaluate_all(graph, ["original", "gorder"], seed=0)
        for row in rows:
            assert math.isfinite(row.ordering_seconds)
            assert row.ordering_seconds >= 0

    def test_ordering_seconds_defaults_to_nan(self, graph):
        import math
        from repro.graph import identity_permutation

        evaluation = evaluate_ordering(
            graph, identity_permutation(graph.num_nodes)
        )
        assert math.isnan(evaluation.ordering_seconds)
        # NaN renders as a placeholder, not "nan".
        row = evaluation.as_row()
        assert "nan" not in " ".join(str(cell) for cell in row)

    def test_headers_include_ordering_seconds(self):
        assert "order-s" in OrderingEvaluation.headers()
