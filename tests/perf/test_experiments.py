"""Unit tests for the experiment definitions (on a tiny profile)."""

import pytest

from repro.errors import InvalidParameterError
from repro.graph import datasets
from repro.perf import (
    PROFILES,
    Profile,
    algorithm_params,
    annealing_sweep,
    cache_stall_split,
    cache_stats_table,
    dataset_table,
    get_profile,
    ordering_times,
    rank_orderings,
    relative_to_gorder,
    speedup_matrix,
    window_sweep,
)


@pytest.fixture(scope="module")
def tiny_profile():
    return Profile(
        name="tiny",
        datasets=("epinion",),
        orderings=("original", "random", "gorder"),
        algorithms=("nq", "bfs"),
        pr_iterations=1,
        diam_num_sources=1,
    )


@pytest.fixture(scope="module")
def tiny_matrix(tiny_profile):
    return speedup_matrix(tiny_profile)


class TestProfiles:
    def test_registered_profiles(self):
        assert set(PROFILES) == {"quick", "standard", "full"}

    def test_full_covers_all_datasets(self):
        assert PROFILES["full"].datasets == datasets.DATASET_NAMES

    def test_get_profile_by_name(self):
        assert get_profile("standard").name == "standard"

    def test_get_profile_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "full")
        assert get_profile().name == "full"

    def test_get_profile_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        assert get_profile().name == "quick"

    def test_unknown_profile(self):
        with pytest.raises(InvalidParameterError, match="unknown"):
            get_profile("nosuch")


class TestAlgorithmParams:
    def test_pagerank_iterations(self, tiny_profile):
        graph = datasets.load("epinion")
        assert algorithm_params("pr", graph, tiny_profile) == {
            "iterations": 1
        }

    def test_sp_source_in_range(self, tiny_profile):
        graph = datasets.load("epinion")
        params = algorithm_params("sp", graph, tiny_profile)
        assert 0 <= params["source"] < graph.num_nodes

    def test_diam_sources(self, tiny_profile):
        graph = datasets.load("epinion")
        params = algorithm_params("diam", graph, tiny_profile)
        assert len(params["sources"]) == 1

    def test_plain_algorithms_no_params(self, tiny_profile):
        graph = datasets.load("epinion")
        assert algorithm_params("bfs", graph, tiny_profile) == {}


class TestSpeedupMatrix:
    def test_complete(self, tiny_profile, tiny_matrix):
        expected = (
            len(tiny_profile.datasets)
            * len(tiny_profile.algorithms)
            * len(tiny_profile.orderings)
        )
        assert len(tiny_matrix) == expected

    def test_relative_to_gorder(self, tiny_matrix):
        relative = relative_to_gorder(tiny_matrix)
        for (_, _, ordering), value in relative.items():
            if ordering == "gorder":
                assert value == pytest.approx(1.0)
            else:
                assert value > 0

    def test_random_slower_than_gorder(self, tiny_matrix):
        relative = relative_to_gorder(tiny_matrix)
        for (dataset, algorithm, ordering), value in relative.items():
            if ordering == "random":
                assert value > 0.9  # random never meaningfully wins

    def test_rank_histogram(self, tiny_matrix):
        histogram = rank_orderings(tiny_matrix)
        assert set(histogram) == {"original", "random", "gorder"}
        series_count = 2  # 1 dataset x 2 algorithms
        for counts in histogram.values():
            assert sum(counts) == series_count
        # Every series assigns each rank exactly once.
        for rank in range(3):
            assert (
                sum(counts[rank] for counts in histogram.values())
                == series_count
            )


class TestOtherExperiments:
    def test_cache_stall_split(self, tiny_profile):
        results = cache_stall_split(
            tiny_profile, dataset_name="epinion"
        )
        assert ("nq", "original") in results
        assert ("bfs", "gorder") in results
        for result in results.values():
            assert 0 <= result.cost.stall_fraction <= 1

    def test_ordering_times(self, tiny_profile):
        times = ordering_times(tiny_profile)
        assert times[("gorder", "epinion")] > 0
        assert times[("original", "epinion")] >= 0

    def test_cache_stats_table(self, tiny_profile):
        rows = cache_stats_table(tiny_profile, "epinion")
        assert set(rows) == set(tiny_profile.orderings)
        for result in rows.values():
            assert result.stats.l1_refs > 0

    def test_window_sweep(self, tiny_profile):
        results = window_sweep(
            tiny_profile, dataset_name="epinion", windows=(1, 5)
        )
        assert set(results) == {1, 5}
        assert results[5].cycles > 0

    def test_annealing_sweep(self):
        results = annealing_sweep(
            dataset_name="epinion",
            step_factors=(0.1,),
            energy_factors=(0.0, 1000.0),
        )
        # Local search (k=0) must beat accept-everything (huge k).
        assert results[(0.1, 0.0)] < results[(0.1, 1000.0)]

    def test_dataset_table(self):
        rows = dataset_table()
        assert len(rows) == 9
        assert rows[0]["dataset"] == "epinion"
        assert {row["category"] for row in rows} == {"social", "web"}


class TestDatasetOverride:
    def test_repro_datasets_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "full")
        monkeypatch.setenv("REPRO_DATASETS", "epinion, pokec")
        profile = get_profile()
        assert profile.datasets == ("epinion", "pokec")

    def test_unknown_dataset_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_DATASETS", "nosuch")
        from repro.errors import UnknownDatasetError

        with pytest.raises(UnknownDatasetError):
            get_profile("quick")

    def test_blank_override_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_DATASETS", " , ")
        with pytest.raises(InvalidParameterError):
            get_profile("quick")


class TestMedianOverSeeds:
    def test_random_ordering_uses_median_of_seeds(self):
        profile = Profile(
            name="tiny-seeds",
            datasets=("epinion",),
            orderings=("random",),
            algorithms=("nq",),
            random_seeds=(1, 2, 3),
        )
        matrix = speedup_matrix(profile)
        representative = matrix[("epinion", "nq", "random")]
        # The representative must equal one of the individual runs,
        # and sit between the extremes.
        from repro.graph import datasets as ds
        from repro.perf import run_cell

        graph = ds.load("epinion")
        cycles = sorted(
            run_cell(graph, "nq", "random", seed=s).cycles
            for s in (1, 2, 3)
        )
        assert representative.cycles == cycles[1]

    def test_deterministic_ordering_runs_once(self):
        profile = Profile(
            name="tiny-det",
            datasets=("epinion",),
            orderings=("gorder",),
            algorithms=("nq",),
            random_seeds=(1, 2, 3),
        )
        matrix = speedup_matrix(profile)
        assert matrix[("epinion", "nq", "gorder")].cycles > 0


class TestProfileCacheBackend:
    def test_default_is_replay(self):
        profile = Profile(name="d", datasets=("epinion",))
        assert profile.hierarchy().supports_replay

    def test_matrix_identical_across_backends(self, monkeypatch):
        from repro.cache import scaled_hierarchy
        from tests.conftest import StepOracle

        base = Profile(
            name="parity",
            datasets=("epinion",),
            orderings=("gorder",),
            algorithms=("nq",),
        )
        fast = speedup_matrix(base)
        monkeypatch.setattr(
            Profile, "hierarchy",
            lambda self: StepOracle(scaled_hierarchy().levels),
        )
        slow = speedup_matrix(base)
        key = ("epinion", "nq", "gorder")
        assert fast[key].cycles == slow[key].cycles
        assert fast[key].stats == slow[key].stats
