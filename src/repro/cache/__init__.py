"""Cache simulator: levels, hierarchy, memory layout and cost model."""

from repro.cache.cost import DEFAULT_COST_MODEL, CostModel, RunCost
from repro.cache.hierarchy import (
    MEMORY_LEVEL,
    CacheHierarchy,
    paper_hierarchy,
    scaled_hierarchy,
)
from repro.cache.layout import (
    LineRecorder,
    Memory,
    TracedArray,
    chunk_accesses,
    replay_fallbacks,
)
from repro.cache.level import CacheLevel
from repro.cache.replay import (
    CacheTrace,
    TraceBuffer,
    count_prior_greater,
    hit_mask,
    lru_contents,
    lru_hit_mask,
    stack_distances,
)
from repro.cache.reuse import (
    COLD,
    RecordingHierarchy,
    lru_misses,
    median_reuse_distance,
    miss_curve,
    reuse_distances,
)
from repro.cache.stats import CacheStats

__all__ = [
    "CacheLevel",
    "CacheHierarchy",
    "MEMORY_LEVEL",
    "paper_hierarchy",
    "scaled_hierarchy",
    "Memory",
    "LineRecorder",
    "TracedArray",
    "chunk_accesses",
    "replay_fallbacks",
    "CacheTrace",
    "TraceBuffer",
    "count_prior_greater",
    "hit_mask",
    "lru_contents",
    "lru_hit_mask",
    "stack_distances",
    "CacheStats",
    "COLD",
    "RecordingHierarchy",
    "reuse_distances",
    "lru_misses",
    "miss_curve",
    "median_reuse_distance",
    "CostModel",
    "RunCost",
    "DEFAULT_COST_MODEL",
]
