"""Request validation and error shaping of the wire protocol."""

from __future__ import annotations

import pytest

from repro.serve.protocol import (
    BadRequestError,
    DeadlineExceededError,
    DrainingError,
    OrderRequest,
    QueueFullError,
    RunRequest,
    ServeError,
    error_payload,
)


class TestOrderRequest:
    def test_minimal(self):
        request = OrderRequest.from_payload({"dataset": "epinion"})
        assert request.dataset == "epinion"
        assert request.ordering == "gorder"
        assert request.seed == 0
        assert request.deadline_seconds is None
        assert not request.include_permutation

    def test_full(self):
        request = OrderRequest.from_payload(
            {
                "dataset": "pokec",
                "ordering": "rcm",
                "seed": 3,
                "ordering_params": {"backend": "batched"},
                "include_permutation": True,
                "deadline_seconds": 2.5,
            }
        )
        assert request.ordering == "rcm"
        assert request.seed == 3
        assert request.ordering_params == {"backend": "batched"}
        assert request.include_permutation
        assert request.deadline_seconds == 2.5

    def test_auto_is_a_valid_ordering(self):
        """The adaptive selector is addressable over the wire; its
        knobs travel as ordering_params and reach the store key."""
        request = OrderRequest.from_payload(
            {
                "dataset": "epinion",
                "ordering": "auto",
                "ordering_params": {"query_volume": 5000},
            }
        )
        assert request.ordering == "auto"
        assert request.ordering_params == {"query_volume": 5000}

    @pytest.mark.parametrize(
        "payload",
        [
            [],
            "dataset=epinion",
            {},
            {"dataset": 7},
            {"dataset": "epinion", "ordering": "nope"},
            {"dataset": "epinion", "seed": "zero"},
            {"dataset": "epinion", "seed": True},
            {"dataset": "epinion", "deadline_seconds": 0},
            {"dataset": "epinion", "deadline_seconds": -1},
            {"dataset": "epinion", "deadline_seconds": "fast"},
            {"dataset": "epinion", "ordering_params": [1]},
            {"dataset": "epinion", "include_permutation": "yes"},
        ],
    )
    def test_rejects(self, payload):
        with pytest.raises(BadRequestError):
            OrderRequest.from_payload(payload)


class TestRunRequest:
    def test_minimal(self):
        request = RunRequest.from_payload(
            {"dataset": "epinion", "algorithm": "pr"}
        )
        assert request.algorithm == "pr"
        assert request.seed is None
        assert request.profile == "quick"

    def test_algorithm_required(self):
        with pytest.raises(BadRequestError):
            RunRequest.from_payload({"dataset": "epinion"})

    def test_scalar_algo_backend_accepted(self):
        # The retired backend fields are accepted like any unknown
        # field: ignored, parsed into the same request.
        plain = RunRequest.from_payload(
            {"dataset": "epinion", "algorithm": "pr"}
        )
        retired = RunRequest.from_payload(
            {
                "dataset": "epinion",
                "algorithm": "pr",
                "cache_backend": "magic",
                "algo_backend": "scalar",
            }
        )
        assert retired == plain


class TestErrorShaping:
    def test_status_codes(self):
        assert BadRequestError("x").status == 400
        assert QueueFullError("x").status == 429
        assert DrainingError("x").status == 503
        assert DeadlineExceededError("x").status == 504
        assert ServeError("x").status == 500

    def test_queue_full_payload_carries_retry_after(self):
        payload = error_payload(
            QueueFullError("full", retry_after=2.0), "r9"
        )
        assert payload["error"] == "queue_full"
        assert payload["retry_after"] == 2.0
        assert payload["request_id"] == "r9"

    def test_deadline_payload_carries_phase(self):
        payload = error_payload(
            DeadlineExceededError("late", phase="ordered")
        )
        assert payload["error"] == "deadline_exceeded"
        assert payload["phase"] == "ordered"
