"""Tests for the fault-tolerant sweep engine.

The engine's promises — kill/resume losslessness, per-cell budgets,
graceful degradation — are exercised through the deterministic fault
injection harness (:mod:`repro.perf.faults`).
"""

import dataclasses
import json

import pytest

from repro import obs
from repro.perf import (
    PROFILES,
    CheckpointError,
    FaultPlan,
    FaultSpec,
    Profile,
    StrictCellError,
    SweepEngine,
    SweepGuards,
    SweepKill,
    archive_digest,
    checkpoint_status,
    enumerate_cells,
    profile_fingerprint,
    read_archive,
    save_results,
    speedup_matrix,
)
from repro.perf.engine import SweepCheckpoint

TINY = Profile(
    name="tiny",
    datasets=("epinion",),
    orderings=("original", "gorder", "rcm"),
    algorithms=("nq",),
)


def run_and_save(outcome, path, manifest=None):
    save_results(
        outcome.matrix(),
        path,
        metadata={"profile": outcome.profile.name},
        manifest=manifest or {"profile": outcome.profile.name},
        failures=list(outcome.failures.values()),
    )


class TestEnumerate:
    def test_deterministic_order(self):
        assert enumerate_cells(TINY) == enumerate_cells(TINY)

    def test_counts(self):
        cells = enumerate_cells(TINY)
        assert len(cells) == 3  # 1 dataset x 1 algorithm x 3 orderings

    def test_seeded_orderings_expand_per_seed(self):
        profile = dataclasses.replace(
            TINY,
            orderings=("original", "random"),
            random_seeds=(1, 2, 3),
        )
        cells = enumerate_cells(profile)
        seeds = [c.seed for c in cells if c.ordering == "random"]
        assert seeds == [1, 2, 3]
        assert sum(1 for c in cells if c.ordering == "original") == 1


class TestFingerprint:
    def test_stable(self):
        assert profile_fingerprint(TINY) == profile_fingerprint(TINY)

    def test_sensitive_to_configuration(self):
        other = dataclasses.replace(TINY, pr_iterations=99)
        assert profile_fingerprint(TINY) != profile_fingerprint(other)


class TestBasicRun:
    def test_matches_speedup_matrix(self):
        outcome = SweepEngine().run(TINY)
        assert not outcome.failures
        direct = speedup_matrix(TINY)
        engine_matrix = outcome.matrix()
        assert set(engine_matrix) == set(direct)
        for key, result in direct.items():
            assert engine_matrix[key].cycles == result.cycles

    def test_engine_kwarg_on_speedup_matrix(self):
        matrix = speedup_matrix(TINY, engine=SweepEngine())
        assert ("epinion", "nq", "gorder") in matrix


class TestGracefulDegradation:
    def test_permanent_failure_recorded_not_raised(self):
        plan = FaultPlan(
            (FaultSpec("epinion", "nq", "rcm", kind="error"),)
        )
        outcome = SweepEngine(plan=plan).run(TINY)
        assert len(outcome.results) == 2
        assert len(outcome.failures) == 1
        failure = outcome.failures[("epinion", "nq", "rcm", TINY.seed)]
        assert failure.error_type == "InjectedFault"
        assert failure.attempts == 1
        assert ("epinion", "nq", "rcm") in outcome.failed_cells()
        assert ("epinion", "nq", "rcm") not in outcome.matrix()

    def test_builtin_error_type_injected(self):
        plan = FaultPlan(
            (
                FaultSpec(
                    "epinion", "nq", "rcm",
                    kind="error", error_type="MemoryError",
                ),
            )
        )
        outcome = SweepEngine(plan=plan).run(TINY)
        failure = outcome.failures[("epinion", "nq", "rcm", TINY.seed)]
        assert failure.error_type == "MemoryError"

    def test_strict_aborts_on_first_failure(self):
        plan = FaultPlan(
            (FaultSpec("epinion", "nq", "gorder", kind="error"),)
        )
        engine = SweepEngine(
            guards=SweepGuards(strict=True), plan=plan
        )
        with pytest.raises(StrictCellError, match="gorder"):
            engine.run(TINY)

    def test_strict_failure_is_checkpointed_first(self, tmp_path):
        ckpt = tmp_path / "ck.jsonl"
        plan = FaultPlan(
            (FaultSpec("epinion", "nq", "gorder", kind="error"),)
        )
        engine = SweepEngine(
            guards=SweepGuards(strict=True), plan=plan
        )
        with pytest.raises(StrictCellError):
            engine.run(TINY, checkpoint=ckpt)
        status = checkpoint_status(ckpt)
        assert status.failed == 1

    def test_partial_matrix_keeps_surviving_seeds(self):
        profile = dataclasses.replace(
            TINY,
            orderings=("original", "random"),
            random_seeds=(1, 2),
        )
        plan = FaultPlan(
            (FaultSpec("epinion", "nq", "random", seed=1,
                       kind="error"),)
        )
        outcome = SweepEngine(plan=plan).run(profile)
        # Seed 1 failed, seed 2 succeeded: the series degrades to the
        # surviving run rather than becoming a gap.
        assert ("epinion", "nq", "random") in outcome.matrix()
        assert not outcome.failed_cells()


class TestCellErrorTelemetry:
    def test_each_failed_attempt_emits_an_event(self):
        """Regression: per-attempt errors used to be invisible in
        traces — only the final CellFailure surfaced.  Every failed
        attempt must now emit a ``sweep.cell_error`` event."""
        plan = FaultPlan(
            (FaultSpec("epinion", "nq", "rcm", kind="error"),)
        )
        obs.reset()
        obs.configure(capture=True)
        try:
            engine = SweepEngine(
                guards=SweepGuards(retries=1, backoff_seconds=0.0),
                plan=plan,
            )
            outcome = engine.run(TINY)
            events = [
                event
                for event in obs.captured()
                if event["kind"] == "event"
                and event["name"] == "sweep.cell_error"
            ]
        finally:
            obs.reset()
        assert len(outcome.failures) == 1
        # First attempt plus one retry, each visible in the trace.
        assert len(events) == 2
        for attempt, event in enumerate(events):
            assert event["level"] == "warning"
            assert event["attrs"]["dataset"] == "epinion"
            assert event["attrs"]["algorithm"] == "nq"
            assert event["attrs"]["ordering"] == "rcm"
            assert event["attrs"]["attempt"] == attempt
            assert event["attrs"]["error"] == "InjectedFault"


class TestRetries:
    def test_flaky_cell_succeeds_under_retries(self):
        plan = FaultPlan(
            (FaultSpec("epinion", "nq", "rcm", kind="error",
                       times=2),)
        )
        engine = SweepEngine(
            guards=SweepGuards(retries=2), plan=plan
        )
        outcome = engine.run(TINY)
        assert not outcome.failures
        assert len(outcome.results) == 3

    def test_insufficient_retries_still_fail(self):
        plan = FaultPlan(
            (FaultSpec("epinion", "nq", "rcm", kind="error",
                       times=2),)
        )
        engine = SweepEngine(
            guards=SweepGuards(retries=1), plan=plan
        )
        outcome = engine.run(TINY)
        failure = outcome.failures[("epinion", "nq", "rcm", TINY.seed)]
        assert failure.attempts == 2


class TestTimeout:
    def test_timed_out_cell_recorded_and_sweep_completes(self):
        plan = FaultPlan(
            (FaultSpec("epinion", "nq", "rcm", kind="delay",
                       delay_seconds=10.0),)
        )
        engine = SweepEngine(
            guards=SweepGuards(cell_timeout=0.2), plan=plan
        )
        outcome = engine.run(TINY)
        assert len(outcome.results) == 2
        failure = outcome.failures[("epinion", "nq", "rcm", TINY.seed)]
        assert failure.timed_out
        assert failure.error_type == "CellTimeout"

    def test_fast_cells_unaffected_by_timeout(self):
        engine = SweepEngine(guards=SweepGuards(cell_timeout=60.0))
        outcome = engine.run(TINY)
        assert not outcome.failures
        assert len(outcome.results) == 3


class TestCheckpointResume:
    def test_kill_then_resume_matches_uninterrupted(self, tmp_path):
        """The headline guarantee, on a (narrowed) quick profile:
        kill at an arbitrary cell, resume, get the control archive."""
        profile = dataclasses.replace(
            PROFILES["quick"],
            datasets=("epinion",),
            algorithms=("nq", "sp"),
        )
        control_ck = tmp_path / "control.jsonl"
        control = SweepEngine().run(profile, checkpoint=control_ck)
        control_path = tmp_path / "control.json"
        run_and_save(control, control_path)

        plan = FaultPlan(
            (FaultSpec("epinion", "sp", "rcm", kind="kill"),)
        )
        interrupted_ck = tmp_path / "interrupted.jsonl"
        with pytest.raises(SweepKill):
            SweepEngine(plan=plan).run(
                profile, checkpoint=interrupted_ck
            )
        mid_status = checkpoint_status(interrupted_ck)
        assert 0 < mid_status.ok < len(enumerate_cells(profile))
        assert mid_status.pending > 0

        resumed = SweepEngine().run(
            profile, checkpoint=interrupted_ck, resume=True
        )
        assert resumed.resumed_cells == mid_status.ok
        resumed_path = tmp_path / "resumed.json"
        run_and_save(resumed, resumed_path)
        assert archive_digest(control_path) == archive_digest(
            resumed_path
        )

    def test_resume_replays_failures_too(self, tmp_path):
        ckpt = tmp_path / "ck.jsonl"
        plan = FaultPlan(
            (FaultSpec("epinion", "nq", "rcm", kind="error"),)
        )
        first = SweepEngine(plan=plan).run(TINY, checkpoint=ckpt)
        assert len(first.failures) == 1
        # Resume WITHOUT the fault plan: the recorded failure is
        # replayed, not retried.
        second = SweepEngine().run(TINY, checkpoint=ckpt, resume=True)
        assert len(second.failures) == 1
        assert second.resumed_cells == 3

    def test_resume_with_missing_checkpoint_starts_fresh(
        self, tmp_path
    ):
        outcome = SweepEngine().run(
            TINY, checkpoint=tmp_path / "new.jsonl", resume=True
        )
        assert outcome.resumed_cells == 0
        assert len(outcome.results) == 3

    def test_fingerprint_mismatch_refused(self, tmp_path):
        ckpt = tmp_path / "ck.jsonl"
        SweepEngine().run(TINY, checkpoint=ckpt)
        other = dataclasses.replace(TINY, pr_iterations=99)
        with pytest.raises(CheckpointError, match="fingerprint"):
            SweepEngine().run(other, checkpoint=ckpt, resume=True)

    def test_torn_final_line_discarded(self, tmp_path):
        ckpt = tmp_path / "ck.jsonl"
        SweepEngine().run(TINY, checkpoint=ckpt)
        with open(ckpt, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "cell", "cell": {"dat')  # torn
        state = SweepCheckpoint(ckpt).load()
        assert len(state.results) == 3
        resumed = SweepEngine().run(TINY, checkpoint=ckpt, resume=True)
        assert resumed.resumed_cells == 3

    def test_corrupt_middle_line_raises(self, tmp_path):
        ckpt = tmp_path / "ck.jsonl"
        SweepEngine().run(TINY, checkpoint=ckpt)
        lines = ckpt.read_text().splitlines()
        lines[1] = lines[1][:10]  # corrupt a non-final line
        ckpt.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match=r"ck\.jsonl:2: not valid JSON"):
            SweepCheckpoint(ckpt).load()

    def test_missing_header_raises(self, tmp_path):
        ckpt = tmp_path / "ck.jsonl"
        ckpt.write_text(json.dumps({"kind": "cell"}) + "\n")
        with pytest.raises(CheckpointError, match="header"):
            SweepCheckpoint(ckpt).load()

    def test_without_resume_flag_checkpoint_is_restarted(
        self, tmp_path
    ):
        ckpt = tmp_path / "ck.jsonl"
        SweepEngine().run(TINY, checkpoint=ckpt)
        outcome = SweepEngine().run(TINY, checkpoint=ckpt)
        assert outcome.resumed_cells == 0
        assert checkpoint_status(ckpt).ok == 3


class TestCheckpointStatus:
    def test_counts(self, tmp_path):
        ckpt = tmp_path / "ck.jsonl"
        plan = FaultPlan(
            (FaultSpec("epinion", "nq", "rcm", kind="error"),)
        )
        SweepEngine(plan=plan).run(TINY, checkpoint=ckpt)
        status = checkpoint_status(ckpt)
        assert status.profile == "tiny"
        assert (status.ok, status.failed, status.pending) == (2, 1, 0)
        assert status.total_cells == 3
        assert status.failures[0].ordering == "rcm"


class TestArchiveFailures:
    def test_failures_round_trip_through_archive(self, tmp_path):
        plan = FaultPlan(
            (FaultSpec("epinion", "nq", "rcm", kind="error"),)
        )
        outcome = SweepEngine(plan=plan).run(TINY)
        path = tmp_path / "run.json"
        run_and_save(outcome, path)
        archive = read_archive(path)
        assert len(archive.failures) == 1
        assert archive.failures[0].key == (
            "epinion", "nq", "rcm", TINY.seed,
        )
        assert ("epinion", "nq", "rcm") not in archive.results


@pytest.mark.slow
class TestSubprocessIsolation:
    ONE_CELL = dataclasses.replace(TINY, orderings=("original",))

    def test_isolated_cell_matches_in_process(self):
        in_process = SweepEngine().run(self.ONE_CELL)
        isolated = SweepEngine(
            guards=SweepGuards(isolate=True)
        ).run(self.ONE_CELL)
        key = ("epinion", "nq", "original", TINY.seed)
        assert (
            isolated.results[key].cycles
            == in_process.results[key].cycles
        )

    def test_crash_in_subprocess_cannot_kill_sweep(self):
        plan = FaultPlan(
            (
                FaultSpec(
                    "epinion", "nq", "original",
                    kind="error", error_type="MemoryError",
                    message="simulated OOM",
                ),
            )
        )
        outcome = SweepEngine(
            guards=SweepGuards(isolate=True), plan=plan
        ).run(self.ONE_CELL)
        failure = outcome.failures[
            ("epinion", "nq", "original", TINY.seed)
        ]
        assert failure.error_type == "MemoryError"
        assert "simulated OOM" in failure.message
