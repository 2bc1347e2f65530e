"""Tests for the JSON result store."""

import json

import pytest

from repro.cache import CacheStats, RunCost
from repro.perf import RunResult
from repro.perf.store import (
    CellFailure,
    ResultStoreError,
    archive_digest,
    compare_runs,
    failure_from_dict,
    failure_to_dict,
    load_results,
    read_archive,
    result_from_dict,
    result_to_dict,
    save_results,
)


def make_result(dataset="d", algorithm="a", ordering="o", cycles=100.0):
    return RunResult(
        dataset=dataset,
        algorithm=algorithm,
        ordering=ordering,
        cost=RunCost(execute_cycles=cycles * 0.3,
                     stall_cycles=cycles * 0.7),
        stats=CacheStats(1000, 100, 100, 50, 50, 10),
        ordering_seconds=0.5,
        simulation_seconds=1.5,
    )


class TestRoundTrip:
    def test_dict_roundtrip(self):
        result = make_result()
        assert result_from_dict(result_to_dict(result)) == result

    def test_file_roundtrip(self, tmp_path):
        results = {
            ("d", "a", "o"): make_result(),
            ("d", "a", "p"): make_result(ordering="p", cycles=200.0),
        }
        path = tmp_path / "run.json"
        save_results(results, path, metadata={"profile": "quick"})
        loaded = load_results(path)
        assert loaded == results

    def test_list_input(self, tmp_path):
        path = tmp_path / "run.json"
        save_results([make_result()], path)
        assert ("d", "a", "o") in load_results(path)

    def test_metadata_preserved_in_file(self, tmp_path):
        path = tmp_path / "run.json"
        save_results([make_result()], path, metadata={"note": "x"})
        assert json.loads(path.read_text())["metadata"] == {"note": "x"}


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ResultStoreError, match="cannot read"):
            load_results(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ResultStoreError, match="cannot read"):
            load_results(path)

    def test_wrong_schema(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"schema": 99, "results": []}))
        with pytest.raises(ResultStoreError, match="schema"):
            load_results(path)

    def test_malformed_record(self):
        with pytest.raises(ResultStoreError, match="malformed"):
            result_from_dict({"dataset": "d"})


def make_failure(**overrides):
    fields = dict(
        dataset="d",
        algorithm="a",
        ordering="x",
        seed=7,
        error_type="MemoryError",
        message="boom",
        traceback_tail="...",
        attempts=3,
        elapsed_seconds=1.25,
        timed_out=False,
    )
    fields.update(overrides)
    return CellFailure(**fields)


class TestSchemaV3:
    def test_failures_round_trip(self, tmp_path):
        path = tmp_path / "run.json"
        failure = make_failure()
        save_results([make_result()], path, failures=[failure])
        archive = read_archive(path)
        assert archive.schema == 3
        assert archive.failures == [failure]
        assert failure.key == ("d", "a", "x", 7)

    def test_failure_dict_round_trip(self):
        failure = make_failure(timed_out=True)
        payload = failure_to_dict(failure)
        assert payload["status"] == "failed"
        assert failure_from_dict(payload) == failure

    def test_malformed_failure_record(self):
        with pytest.raises(ResultStoreError, match="malformed"):
            failure_from_dict({"status": "failed", "dataset": "d"})

    def test_result_records_carry_ok_status(self, tmp_path):
        path = tmp_path / "run.json"
        save_results([make_result()], path)
        payload = json.loads(path.read_text())
        assert payload["results"][0]["status"] == "ok"

    def test_v2_archive_loads_without_failures(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(
            json.dumps(
                {
                    "schema": 2,
                    "manifest": {"profile": "quick"},
                    "metadata": {},
                    "results": [
                        {
                            k: v
                            for k, v in result_to_dict(
                                make_result()
                            ).items()
                            if k != "status"
                        }
                    ],
                }
            )
        )
        archive = read_archive(path)
        assert archive.schema == 2
        assert archive.failures == []
        assert ("d", "a", "o") in archive.results

    def test_archive_with_retired_backend_metadata_loads(self, tmp_path):
        # Archives of ``sweep run`` used to record the cache and
        # algorithm backends; the keys stay in ``metadata``.
        path = tmp_path / "old.json"
        metadata = {
            "profile": "quick",
            "cache_backend": "step",
            "algo_backend": "scalar",
        }
        save_results([make_result()], path, metadata=metadata)
        archive = read_archive(path)
        assert archive.metadata == metadata
        assert archive.results == {("d", "a", "o"): make_result()}

    def test_describe_names_the_cell(self):
        text = make_failure(timed_out=True).describe()
        assert "timeout" in text
        assert "(d, a, x, seed=7)" in text


class TestAtomicWrites:
    def test_no_tmp_file_left_behind(self, tmp_path):
        path = tmp_path / "run.json"
        save_results([make_result()], path)
        leftovers = [
            p.name for p in tmp_path.iterdir() if p.name != "run.json"
        ]
        assert leftovers == []

    def test_overwrite_is_complete(self, tmp_path):
        path = tmp_path / "run.json"
        save_results([make_result(cycles=100.0)], path)
        save_results([make_result(cycles=200.0)], path)
        loaded = load_results(path)
        assert loaded[("d", "a", "o")].cycles == pytest.approx(200.0)

    def test_non_object_archive_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ResultStoreError, match="not a result"):
            read_archive(path)


class TestArchiveDigest:
    def test_ignores_wall_clock_fields(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_results(
            [make_result()], a,
            manifest={"profile": "q", "created": "now",
                      "created_unix": 1.0},
            failures=[make_failure(elapsed_seconds=1.0)],
        )
        slower = RunResult(
            dataset="d", algorithm="a", ordering="o",
            cost=make_result().cost, stats=make_result().stats,
            ordering_seconds=99.0, simulation_seconds=99.0,
        )
        save_results(
            [slower], b,
            manifest={"profile": "q", "created": "later",
                      "created_unix": 2.0},
            failures=[make_failure(elapsed_seconds=42.0)],
        )
        assert archive_digest(a) == archive_digest(b)

    def test_sensitive_to_results(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        manifest = {"profile": "q"}
        save_results([make_result(cycles=100.0)], a,
                     manifest=manifest)
        save_results([make_result(cycles=200.0)], b,
                     manifest=manifest)
        assert archive_digest(a) != archive_digest(b)

    def test_unreadable_path_raises(self, tmp_path):
        with pytest.raises(ResultStoreError, match="cannot read"):
            archive_digest(tmp_path / "nope.json")


class TestCompare:
    def test_ratios(self):
        before = {("d", "a", "o"): make_result(cycles=100.0)}
        after = {("d", "a", "o"): make_result(cycles=150.0)}
        ratios = compare_runs(before, after)
        assert ratios[("d", "a", "o")] == pytest.approx(1.5)

    def test_missing_cells_skipped(self):
        before = {("d", "a", "o"): make_result()}
        assert compare_runs(before, {}) == {}

    def test_real_matrix_roundtrip(self, tmp_path):
        """End to end over an actual tiny experiment matrix."""
        from repro.perf import Profile, speedup_matrix

        profile = Profile(
            name="tiny",
            datasets=("epinion",),
            orderings=("original", "gorder"),
            algorithms=("nq",),
        )
        matrix = speedup_matrix(profile)
        path = tmp_path / "matrix.json"
        save_results(matrix, path)
        loaded = load_results(path)
        ratios = compare_runs(matrix, loaded)
        assert all(r == pytest.approx(1.0) for r in ratios.values())
