"""Tests for the vectorised trace-replay cache backend.

The contract under test: ``hit_mask`` / ``CacheHierarchy.replay`` /
a ``Memory`` over an all-LRU hierarchy are *exactly* equivalent to the
scalar step path (the :class:`~tests.conftest.StepOracle`) — same
hit/miss verdicts, same counters, same costs — for every all-LRU
geometry, and degrade gracefully everywhere else.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import base as algorithms
from repro.cache import (
    CacheHierarchy,
    CacheLevel,
    Memory,
    chunk_accesses,
    paper_hierarchy,
    replay_fallbacks,
)
from repro.cache.replay import (
    COLD,
    FAST_LINE_LIMIT,
    TraceBuffer,
    count_prior_greater,
    hit_mask,
    lru_contents,
    lru_hit_mask,
    stack_distances,
)
from repro.cache.reuse import (
    RecordingHierarchy,
    lru_misses,
    reuse_distances,
)
from repro.errors import InvalidParameterError
from tests.conftest import RESOLVERS, StepOracle, resolved_by


def scalar_hits(lines, num_sets, ways, policy="lru"):
    """Reference verdicts: one scalar CacheLevel stepped per access."""
    level = CacheLevel(
        num_sets * ways * 64, 64, ways, "ref", policy=policy
    )
    return np.array([level.access(line) for line in lines], dtype=bool)


def make_hierarchy(geometries, policy="lru"):
    """Hierarchy from (num_sets, ways) pairs, 64-byte lines."""
    return CacheHierarchy(
        [
            CacheLevel(
                num_sets * ways * 64, 64, ways, f"L{i + 1}",
                policy=policy,
            )
            for i, (num_sets, ways) in enumerate(geometries)
        ]
    )


# Trace generator shared by the property tests: skewed line ids make
# warm/cold and hit/miss populations both non-trivial.
lines_strategy = st.lists(
    st.integers(min_value=0, max_value=40), min_size=0, max_size=300
)


class TestCountPriorGreater:
    def test_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(0, 80))
            values = rng.integers(-5, 30, size=n)
            expected = np.array(
                [
                    int(np.sum(values[:t] > values[t]))
                    for t in range(n)
                ],
                dtype=np.int64,
            )
            got = count_prior_greater(values)
            assert np.array_equal(got, expected)

    def test_empty_and_single(self):
        assert count_prior_greater([]).shape == (0,)
        assert count_prior_greater([7]).tolist() == [0]


class TestStackDistances:
    def test_matches_reuse_distances_single_set(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            trace = rng.integers(0, 25, size=int(rng.integers(1, 200)))
            assert np.array_equal(
                stack_distances(trace), reuse_distances(trace)
            )

    def test_per_set_equals_split_traces(self):
        rng = np.random.default_rng(2)
        trace = rng.integers(0, 64, size=400)
        num_sets = 8
        got = stack_distances(trace, num_sets)
        sets = trace & (num_sets - 1)
        for s in range(num_sets):
            mask = sets == s
            assert np.array_equal(
                got[mask], reuse_distances(trace[mask])
            )

    def test_rejects_bad_num_sets(self):
        with pytest.raises(InvalidParameterError, match="power of two"):
            stack_distances([1, 2], num_sets=3)

    def test_cold_marks_first_occurrences(self):
        distances = stack_distances([5, 6, 5, 6])
        assert distances.tolist() == [COLD, COLD, 1, 1]


class TestHitMask:
    @settings(max_examples=60, deadline=None)
    @given(lines=lines_strategy)
    def test_matches_scalar_level(self, lines):
        for num_sets in (1, 2, 8):
            for ways in (1, 2, 8, 64):
                got = hit_mask(lines, num_sets, ways)
                assert np.array_equal(
                    got, scalar_hits(lines, num_sets, ways)
                )

    def test_blocked_and_reference_agree_on_long_traces(self):
        # Long enough to exercise multi-block rows, the prefix scan
        # and the short-set shortcut at once.
        rng = np.random.default_rng(3)
        trace = np.concatenate(
            [
                (rng.zipf(1.4, size=4000) % 900),
                np.arange(2000) % 1100,  # sequential runs
            ]
        )
        rng.shuffle(trace[::3])
        for num_sets, ways in ((1, 4), (8, 8), (64, 8), (64, 16)):
            fast = hit_mask(trace, num_sets, ways)
            slow = lru_hit_mask(trace, num_sets, ways)
            assert np.array_equal(fast, slow)

    def test_fully_associative_matches_lru_misses_oracle(self):
        rng = np.random.default_rng(4)
        trace = rng.integers(0, 50, size=600)
        for capacity in (1, 4, 16):
            mask = hit_mask(trace, 1, capacity)
            assert int((~mask).sum()) == lru_misses(
                reuse_distances(trace), capacity
            )

    def test_rejects_bad_geometry(self):
        with pytest.raises(InvalidParameterError, match="power of two"):
            hit_mask([1], 3, 2)
        with pytest.raises(InvalidParameterError, match="positive"):
            hit_mask([1], 4, 0)

    def test_huge_line_ids_use_reference_path(self):
        # Beyond FAST_LINE_LIMIT the blocked path must defer, not
        # misclassify.
        trace = np.array([1 << 40, 5, 1 << 40, 5, 1 << 40])
        got = hit_mask(trace, 2, 2)
        assert np.array_equal(got, scalar_hits(trace, 2, 2))


class TestHierarchyReplay:
    GEOMETRIES = [
        [(2, 1)],
        [(2, 2), (8, 2)],
        [(1, 4), (2, 8), (8, 8)],
        [(2, 2), (4, 2), (8, 4), (16, 4)],  # 4 levels
    ]

    @settings(max_examples=40, deadline=None)
    @given(lines=lines_strategy)
    def test_matches_step_trace(self, lines):
        for geometry in self.GEOMETRIES:
            h_step = make_hierarchy(geometry)
            h_replay = make_hierarchy(geometry)
            serving_step = h_step.step_trace(lines)
            serving_replay = h_replay.replay(lines)
            assert np.array_equal(serving_step, serving_replay)
            assert [
                (level.refs, level.misses) for level in h_step.levels
            ] == [
                (level.refs, level.misses)
                for level in h_replay.levels
            ]

    def test_replay_rejects_non_lru(self):
        hierarchy = make_hierarchy([(2, 2)], policy="fifo")
        assert hierarchy.supports_replay is False
        with pytest.raises(InvalidParameterError, match="LRU"):
            hierarchy.replay([1, 2, 3])

    def test_step_trace_works_for_any_policy(self):
        for policy in ("fifo", "random"):
            hierarchy = make_hierarchy([(2, 2)], policy=policy)
            rng = np.random.default_rng(5)
            trace = rng.integers(0, 12, size=200)
            serving = hierarchy.step_trace(trace)
            expected = scalar_hits(trace, 2, 2, policy=policy)
            assert np.array_equal(serving == 1, expected)


class TestTraceBuffer:
    def test_interleaves_all_three_channels(self):
        buffer = TraceBuffer(line_shift=6)
        buffer.touches.append(10)
        buffer.record_run(20, nlines=3, count=5)
        buffer.touches.append(11)
        buffer.record_many(
            np.array([0, 16]), base=0, itemsize=4, length=32,
            name="a",
        )
        buffer.touches.append(12)
        trace = buffer.freeze()
        assert trace.lines.tolist() == [10, 20, 21, 22, 11, 0, 1, 12]
        # Prefetched run fills (21, 22) are not demand accesses.
        assert trace.demand_idx.tolist() == [0, 1, 4, 5, 6, 7]
        assert trace.extra_l1 == 4  # 5 run elements, 1 demand line
        assert trace.prefetched_refs == 2
        assert trace.total_refs == 6 + 4  # touches+batch+run elements

    def test_deferred_bounds_error_names_the_array(self):
        buffer = TraceBuffer(line_shift=6)
        buffer.record_many(
            np.array([0, 99]), base=0, itemsize=8, length=10,
            name="ranks",
        )
        with pytest.raises(InvalidParameterError, match="'ranks'"):
            buffer.freeze()

    def test_empty_freeze(self):
        trace = TraceBuffer(line_shift=6).freeze()
        assert trace.num_accesses == 0
        assert trace.num_demand == 0


def lru_memories():
    """A (step, replay) pair over identical small LRU hierarchies."""
    return (
        Memory(StepOracle(make_hierarchy([(2, 2), (4, 4)]).levels)),
        Memory(make_hierarchy([(2, 2), (4, 4)])),
    )


def drive(memory):
    array = memory.array("a", 64, 8)
    other = memory.array("b", 32, 4)
    for i in (0, 8, 0, 63, 8):
        array.touch(i)
    array.touch_run(4, 40)
    other.touch_many(np.array([0, 31, 0, 15]))
    array.touch(0)


class TestMemoryBackends:
    def test_backend_equivalence_on_mixed_touches(self):
        step, replay = lru_memories()
        drive(step)
        drive(replay)
        assert replay.replaying is True
        assert step.replaying is False
        assert replay.level_counts == step.level_counts
        assert replay.stats() == step.stats()
        assert replay.cost() == step.cost()
        assert replay.total_refs == step.total_refs
        assert replay.prefetched_refs == step.prefetched_refs

    def test_mid_run_reads_stay_exact(self):
        step, replay = lru_memories()
        a_step = step.array("a", 64, 8)
        a_replay = replay.array("a", 64, 8)
        for i in (0, 9, 18, 0):
            a_step.touch(i)
            a_replay.touch(i)
        assert replay.level_counts == step.level_counts  # mid-run
        for i in (27, 0, 9):
            a_step.touch(i)
            a_replay.touch(i)
        assert replay.level_counts == step.level_counts
        assert replay.stats() == step.stats()

    def test_non_lru_hierarchy_falls_back_to_stepping(self):
        for policy in ("fifo", "random"):
            memory = Memory(make_hierarchy([(2, 2)], policy=policy))
            reference = make_hierarchy([(2, 2)], policy=policy)
            assert memory.replaying is False
            array = memory.array("a", 64, 8)
            counts = [0, 0]
            for i in (0, 8, 16, 0, 8):
                array.touch(i)
                counts[reference.access(array.line_of(i))] += 1
            assert memory.level_counts == counts
            assert memory.stats() == reference.snapshot()

    def test_recording_wrapper_falls_back_but_still_records(self):
        recorder = RecordingHierarchy(make_hierarchy([(2, 2)], "fifo"))
        memory = Memory(recorder)
        assert memory.replaying is False
        array = memory.array("a", 16, 8)
        array.touch(0)
        array.touch(8)
        memory.stats()
        assert recorder.trace().tolist() == [
            array.line_of(0), array.line_of(8)
        ]

    def test_recording_hierarchy_replays_and_records(self):
        recorder = RecordingHierarchy(make_hierarchy([(2, 2)]))
        memory = Memory(recorder)
        assert memory.replaying is True
        array = memory.array("a", 16, 8)
        array.touch(0)
        array.touch(8)
        assert recorder.trace().shape[0] == 0  # still buffered
        memory.stats()
        assert recorder.trace().tolist() == [
            array.line_of(0), array.line_of(8)
        ]

    def test_capturing_hierarchy_sees_the_whole_trace(self):
        recorder = RecordingHierarchy(make_hierarchy([(2, 2)]))
        memory = Memory(recorder)
        array = memory.array("a", 64, 8)
        array.touch(0)
        array.touch_run(8, 16)
        counts = memory.level_counts
        lines = recorder.trace()
        assert lines.shape[0] == 3  # line 0, then lines 1..2 of the run
        assert lines.shape[0] - memory.prefetched_refs == 2  # demand
        assert sum(counts) == memory.total_refs
        # Reading again replays nothing new.
        assert memory.level_counts == counts
        assert recorder.trace().shape[0] == 3

    def test_touch_all_rejects_bad_indices_lazily(self):
        for memory in lru_memories():
            array = memory.array("scores", 8, 8)
            array.touch_many(np.array([0, 12]))  # deferred: no error yet
            with pytest.raises(InvalidParameterError, match="'scores'"):
                memory.level_counts

    def test_touch_all_rejects_bad_dtype_and_shape(self):
        for memory in lru_memories():
            array = memory.array("a", 8, 8)
            with pytest.raises(InvalidParameterError, match="integer"):
                array.touch_many(np.array([0.5, 1.0]))
            with pytest.raises(InvalidParameterError, match="1-D"):
                array.touch_many(np.array([[1], [2]]))

    def test_reset_discards_recorded_trace(self):
        step, replay = lru_memories()
        drive(step)
        drive(replay)
        step.reset()
        replay.reset()
        assert replay.level_counts == step.level_counts
        a_step = step.arrays["a"]
        a_replay = replay.arrays["a"]
        a_step.touch(0)
        a_replay.touch(0)
        assert replay.level_counts == step.level_counts


class TestAllAlgorithmsEquivalence:
    """Every traced algorithm: replay == step, counter for counter."""

    @pytest.mark.parametrize("name", sorted(algorithms.REGISTRY))
    def test_backend_equivalence(self, name, small_social):
        spec = algorithms.spec(name)
        results = {}
        for backend in RESOLVERS:
            hierarchy = make_hierarchy([(2, 2), (4, 4), (8, 8)])
            memory = Memory(resolved_by(backend, hierarchy))
            spec.traced(small_social, memory)
            results[backend] = (
                memory.level_counts,
                memory.stats(),
                memory.cost(),
                memory.total_refs,
                memory.prefetched_refs,
            )
        assert results["replay"] == results["step"]


# ----------------------------------------------------------------------
# Stateful replay: chunks, scalar accesses and flushes interleave freely
# ----------------------------------------------------------------------
def level_view(hierarchy):
    """Everything stepping defines about a hierarchy's levels."""
    return [
        (level.refs, level.misses, level.resident_order())
        for level in hierarchy.levels
    ]


#: (num_sets, ways) per level; the last two exercise the reference
#: classifier through associativity beyond FAST_MAX_WAYS.
geometry_strategy = st.lists(
    st.sampled_from(
        [(1, 1), (1, 4), (2, 2), (4, 2), (2, 8), (8, 4), (1, 96), (2, 80)]
    ),
    min_size=1,
    max_size=3,
)

operation_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("access"), lines_strategy.map(lambda x: x[:5])),
        st.tuples(st.just("replay"), lines_strategy),
        st.tuples(st.just("flush"), st.just([])),
    ),
    max_size=8,
)


class TestStatefulReplay:
    """``replay`` chunks continue exactly where stepping would."""

    @settings(max_examples=80, deadline=None)
    @given(
        geometry=geometry_strategy,
        operations=operation_strategy,
        offset=st.sampled_from([0, FAST_LINE_LIMIT]),
    )
    def test_interleavings_match_stepping(
        self, geometry, operations, offset
    ):
        stepped = make_hierarchy(geometry)
        mixed = make_hierarchy(geometry)
        for kind, lines in operations:
            trace = np.asarray(lines, dtype=np.int64) + offset
            if kind == "flush":
                stepped.flush()
                mixed.flush()
                continue
            expected = stepped.step_trace(trace)
            if kind == "replay":
                got = mixed.replay(trace)
            else:
                got = np.array([mixed.access(line) for line in trace])
            assert np.array_equal(got, expected)
            assert level_view(mixed) == level_view(stepped)

    def test_long_chunks_carry_state(self):
        # Traces long enough for the blocked classifier's multi-block
        # rows, split at arbitrary points.
        rng = np.random.default_rng(11)
        trace = rng.zipf(1.3, size=6000) % 700
        for geometry in ([(8, 4), (16, 8)], [(64, 16)], [(1, 128)]):
            stepped = make_hierarchy(geometry)
            chunked = make_hierarchy(geometry)
            expected = stepped.step_trace(trace)
            cuts = [0, 1, 17, 2500, 2501, 4000, 6000]
            got = np.concatenate([
                chunked.replay(trace[lo:hi])
                for lo, hi in zip(cuts, cuts[1:])
            ])
            assert np.array_equal(got, expected)
            assert level_view(chunked) == level_view(stepped)

    def test_lru_contents_is_the_stepped_residency(self):
        rng = np.random.default_rng(12)
        for num_sets, ways in ((1, 4), (4, 2), (16, 8), (2, 96)):
            trace = rng.integers(0, 300, size=2000)
            level = CacheLevel(num_sets * ways * 64, 64, ways, "L")
            for line in trace.tolist():
                level.access(line)
            got = lru_contents(trace, num_sets, ways).tolist()
            assert sorted(got) == sorted(level.resident_order())
            # Per set, least recently used first.
            for s in range(num_sets):
                assert [x for x in got if x % num_sets == s] == [
                    x for x in level.resident_order()
                    if x % num_sets == s
                ]


# ----------------------------------------------------------------------
# Streaming Memory: bounded buffers, exact counters
# ----------------------------------------------------------------------
def paired_memories():
    """A (step, replay) pair over identical three-level hierarchies."""
    geometry = [(2, 2), (4, 4), (8, 8)]
    return (
        Memory(StepOracle(make_hierarchy(geometry).levels)),
        Memory(make_hierarchy(geometry)),
    )


def memory_view(memory):
    return (
        memory.level_counts,
        memory.stats(),
        memory.cost(),
        memory.total_refs,
        memory.prefetched_refs,
    )


class TestStreamingMemory:
    def test_chunk_bound_follows_geometry(self):
        assert chunk_accesses(make_hierarchy([(2, 2)])) == 1 << 16
        assert chunk_accesses(paper_hierarchy()) == 8 * (
            512 + 4096 + 262144
        )

    def test_trace_spanning_many_chunks(self):
        step, replay = paired_memories()
        chunk = replay._chunk
        rng = np.random.default_rng(13)
        big = rng.integers(0, 400, size=chunk + chunk // 2)
        for memory in (step, replay):
            a = memory.array("a", 400, 8)
            b = memory.array("b", 4096, 4)
            views = []
            for round_ in range(3):
                local = np.random.default_rng(round_)
                for i in local.integers(0, 400, size=chunk // 3).tolist():
                    a.touch(i)
                b.touch_runs(
                    local.integers(0, 4000, size=300),
                    local.integers(1, 90, size=300),
                )
                a.touch_many(local.integers(0, 400, size=chunk // 2))
                views.append(memory_view(memory))  # mid-run read
            # One block larger than the chunk bound.
            lines = a.element_lines(big)
            memory.touch_block(lines, np.ones(lines.shape[0], bool), 5, 0)
            views.append(memory_view(memory))
            memory.views = views
        assert replay.views == step.views
        assert replay.total_refs > 4 * chunk

    def test_reset_starts_cold(self):
        step, replay = paired_memories()
        chunk = replay._chunk
        for memory in (step, replay):
            a = memory.array("a", 256, 8)
            a.touch_many(np.arange(chunk + 100) % 256)
            a.touch(3)  # buffered, not yet replayed
            memory.reset()
            assert memory.total_refs == 0
            assert memory.level_counts == [0, 0, 0, 0]
            a.touch_many(np.array([0, 8, 0, 255]))
        assert memory_view(replay) == memory_view(step)
        for level in replay.hierarchy.levels:
            assert level.resident_lines() <= {0, 1, 31}

    def test_memory_stays_bounded(self):
        memory = Memory(make_hierarchy([(2, 2), (4, 4), (8, 8)]))
        a = memory.array("a", 1 << 20, 4)
        rng = np.random.default_rng(14)
        tracemalloc.start()
        try:
            for _ in range(1000):  # 2M touches, fresh arrays each time
                a.touch_many(rng.integers(0, 1 << 20, size=2000))
            counts = memory.level_counts
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(counts) == memory.total_refs == 2_000_000
        # A chunk's buffer and classifier temporaries take ~8 MB;
        # retaining the trace would need 16 MB for the indices alone,
        # and replaying it whole several times that.
        assert peak < 12 * 2**20

    def test_fallback_is_counted(self):
        before = replay_fallbacks()
        Memory(make_hierarchy([(2, 2)], policy="fifo"))
        Memory(RecordingHierarchy(make_hierarchy([(2, 2)])))
        Memory(RecordingHierarchy(make_hierarchy([(2, 2)], "fifo")))
        Memory(StepOracle(make_hierarchy([(2, 2)]).levels))
        Memory(make_hierarchy([(2, 2)]))
        assert replay_fallbacks() == before + 3
