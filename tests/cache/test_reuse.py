"""Tests for reuse-distance analysis, including the LRU oracle."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cache import (
    COLD,
    CacheLevel,
    Memory,
    RecordingHierarchy,
    lru_misses,
    median_reuse_distance,
    miss_curve,
    reuse_distances,
    scaled_hierarchy,
)
from repro.errors import InvalidParameterError


class TestReuseDistances:
    def test_cold_accesses(self):
        assert reuse_distances([1, 2, 3]).tolist() == [COLD] * 3

    def test_immediate_reuse(self):
        assert reuse_distances([7, 7]).tolist() == [COLD, 0]

    def test_classic_example(self):
        # a b c a: reuse distance of the final a is 2 (b, c).
        assert reuse_distances([0, 1, 2, 0]).tolist() == [
            COLD, COLD, COLD, 2,
        ]

    def test_repeated_interleaving(self):
        # a b a b: each warm access skips exactly one distinct line.
        assert reuse_distances([0, 1, 0, 1]).tolist() == [
            COLD, COLD, 1, 1,
        ]

    def test_duplicates_between_do_not_double_count(self):
        # a b b a: only one distinct line between the two a's.
        assert reuse_distances([0, 1, 1, 0]).tolist()[-1] == 1

    def test_empty_trace(self):
        assert reuse_distances([]).shape == (0,)


class TestLruOracle:
    """distance >= C  <=>  miss in a fully-associative LRU of size C —
    verified against the actual cache simulator."""

    @given(st.lists(st.integers(0, 15), min_size=1, max_size=300),
           st.integers(1, 16))
    def test_matches_simulator(self, trace, capacity):
        level = CacheLevel(capacity * 64, 64, capacity, "L")
        for line in trace:
            level.access(line)
        distances = reuse_distances(trace)
        assert lru_misses(distances, capacity) == level.misses

    def test_capacity_validation(self):
        with pytest.raises(InvalidParameterError):
            lru_misses(np.array([COLD]), 0)


class TestMissCurve:
    def test_monotone_in_capacity(self):
        rng = np.random.default_rng(3)
        trace = rng.integers(0, 50, size=2000)
        curve = miss_curve(reuse_distances(trace), [1, 2, 4, 8, 16, 64])
        values = list(curve.values())
        assert values == sorted(values, reverse=True)

    def test_big_cache_only_cold_misses(self):
        trace = [0, 1, 2, 0, 1, 2]
        curve = miss_curve(reuse_distances(trace), [100])
        assert curve[100] == pytest.approx(3 / 6)

    def test_empty_trace(self):
        assert miss_curve(np.array([], dtype=np.int64), [4]) == {4: 0.0}


class TestMedian:
    def test_value(self):
        distances = np.array([COLD, 1, 3, 5])
        assert median_reuse_distance(distances) == 3.0

    def test_all_cold(self):
        assert median_reuse_distance(np.array([COLD])) == float("inf")


class TestRecordingHierarchy:
    def test_records_all_accesses(self):
        recorder = RecordingHierarchy(scaled_hierarchy())
        memory = Memory(recorder)
        array = memory.array("a", 64, 4)
        array.touch(0)
        array.touch(32)
        array.touch(0)
        memory.stats()  # hands the buffered trace to the recorder
        trace = recorder.trace()
        assert trace.shape == (3,)
        assert trace[0] == trace[2]

    def test_delegates_cache_behaviour(self):
        plain = scaled_hierarchy()
        recorded = RecordingHierarchy(scaled_hierarchy())
        for line in [0, 5, 0, 9, 5]:
            assert plain.access(line) == recorded.access(line)
        assert plain.snapshot() == recorded.snapshot()

    def test_touch_run_recorded_per_line(self):
        recorder = RecordingHierarchy(scaled_hierarchy())
        memory = Memory(recorder)
        array = memory.array("a", 64, 4)  # 4 lines
        array.touch_run(0, 64)
        memory.stats()
        assert recorder.trace().shape == (4,)

    def test_trace_holds_every_line_handed_over(self, small_social):
        """Regression: the recorded trace is every line the memory
        hands to the hierarchy, demand and prefetched, tail included."""
        from repro.algorithms import breadth_first_search_traced

        recorder = RecordingHierarchy(scaled_hierarchy())
        memory = Memory(recorder)
        breadth_first_search_traced(small_social, memory)
        stats = memory.stats()
        trace = recorder.trace()
        # Every line handed over is one L1 reference.
        assert trace.shape[0] == recorder.levels[0].refs
        assert trace.shape[0] > memory.prefetched_refs > 0
        # Stepping the recorded trace reproduces every counter.
        fresh = scaled_hierarchy()
        fresh.step_trace(trace)
        assert fresh.snapshot() == stats

    def test_ordering_improves_median_reuse_distance(self):
        """End to end: Gorder's NQ trace has shorter reuse distances
        than Random's on a web graph."""
        from repro.algorithms import neighbor_query_traced
        from repro.graph import generators, relabel
        from repro.ordering import gorder_order, random_order

        graph = generators.web_graph(
            1200, pages_per_host=60, out_degree=8, seed=3
        )
        medians = {}
        for label, perm in (
            ("gorder", gorder_order(graph)),
            ("random", random_order(graph, seed=1)),
        ):
            recorder = RecordingHierarchy(scaled_hierarchy())
            memory = Memory(recorder)
            neighbor_query_traced(relabel(graph, perm), memory)
            memory.stats()
            medians[label] = median_reuse_distance(
                reuse_distances(recorder.trace())
            )
        assert medians["gorder"] < medians["random"]


class TestFenwickInternals:
    def test_prefix_sums(self):
        from repro.cache.reuse import _FenwickTree

        tree = _FenwickTree(10)
        tree.add(0, 1)
        tree.add(4, 2)
        tree.add(9, 3)
        assert tree.prefix_sum(0) == 1
        assert tree.prefix_sum(3) == 1
        assert tree.prefix_sum(4) == 3
        assert tree.prefix_sum(9) == 6
        tree.add(4, -2)
        assert tree.prefix_sum(9) == 4


class TestRecorderResetClearsTrace:
    """Regression: ``flush()``/``reset_statistics()`` used to keep the
    recorded lines, feeding later analysis a concatenation of
    unrelated measurement windows."""

    def test_flush_restarts_trace(self):
        recorder = RecordingHierarchy(scaled_hierarchy())
        memory = Memory(recorder)
        array = memory.array("a", 16, 8)
        array.touch(0)
        array.touch(8)
        memory.stats()
        assert recorder.trace().shape[0] == 2
        recorder.flush()
        assert recorder.trace().shape[0] == 0
        array.touch(0)
        memory.stats()
        assert recorder.trace().tolist() == [array.line_of(0)]

    def test_reset_statistics_restarts_trace(self):
        recorder = RecordingHierarchy(scaled_hierarchy())
        recorder.access(1)
        recorder.access(2)
        recorder.reset_statistics()
        assert recorder.trace().shape[0] == 0
        assert recorder.levels[0].refs == 0
