"""Multi-level cache hierarchy with a configurable geometry.

Access protocol: a reference probes L1; on a miss it falls through to
the next level, and so on to main memory.  Every level it reaches
counts one reference there, and every level it missed fills the line on
the way back (a simple non-exclusive model — the common behaviour of
the Intel parts used by both the original paper and the replication).

Two standard geometries are provided:

* :func:`paper_hierarchy` — the replication's SGI UV2000 Xeon:
  32 KiB L1 / 256 KiB L2 / 20 MiB L3, 64-byte lines.
* :func:`scaled_hierarchy` — the default for experiments on the scaled
  synthetic datasets: 1 KiB / 4 KiB / 16 KiB.  The scaling keeps
  the ratio (graph working set) : (cache capacity) in the regime the
  paper studies.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.cache.level import CacheLevel
from repro.cache.stats import CacheStats
from repro.errors import InvalidParameterError

#: Hit level returned by :meth:`CacheHierarchy.access` for main memory.
MEMORY_LEVEL = 0


class CacheHierarchy:
    """An ordered stack of :class:`CacheLevel` objects (L1 first)."""

    __slots__ = ("levels", "name")

    def __init__(self, levels: list[CacheLevel], name: str = "cache") -> None:
        if not levels:
            raise InvalidParameterError(
                "a cache hierarchy needs at least one level"
            )
        line_sizes = {level.line_size for level in levels}
        if len(line_sizes) != 1:
            raise InvalidParameterError(
                f"all levels must share one line size, got {line_sizes}"
            )
        self.levels = list(levels)
        self.name = name

    # ------------------------------------------------------------------
    @property
    def line_size(self) -> int:
        """Line size in bytes (shared by every level)."""
        return self.levels[0].line_size

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    def access(self, line: int) -> int:
        """Reference a cache line.

        Returns the 1-based level that served the reference, or
        :data:`MEMORY_LEVEL` (0) if it fell through to main memory.
        """
        for depth, level in enumerate(self.levels, start=1):
            if level.access(line):
                return depth
        return MEMORY_LEVEL

    def access_address(self, address: int) -> int:
        """Reference the line containing a byte address."""
        return self.access(address // self.line_size)

    # ------------------------------------------------------------------
    @property
    def supports_replay(self) -> bool:
        """Whether :meth:`replay` is exact for this geometry.

        Trace replay classifies hits by LRU stack distance, so every
        level must use the ``"lru"`` policy; FIFO/random levels need
        the scalar :meth:`access` path.
        """
        return all(level.policy == "lru" for level in self.levels)

    def replay(self, lines) -> np.ndarray:
        """Vectorised replay of a line-id access trace.

        Equivalent to calling :meth:`access` once per entry of
        ``lines``: every level's ``refs``/``misses`` counters, each
        access's serving level and the final cache contents all match
        stepping.  Replay starts from the hierarchy's current contents
        and leaves its final contents in place, so a long trace can be
        replayed chunk by chunk, interleaved with scalar accesses, with
        step-identical results.  Each level is classified array-wise by
        :meth:`CacheLevel.replay`; the reference stream of level N+1 is
        the miss stream of level N (the non-exclusive fill model makes
        that exact).

        The first level keeps ``lines`` **by reference** to settle its
        final contents lazily, so the caller must not mutate the array
        until the next replay or access (``Memory`` never does).

        Returns the 1-based serving level per access
        (:data:`MEMORY_LEVEL` for accesses that fell through).
        """
        if not self.supports_replay:
            raise InvalidParameterError(
                "trace replay is only exact for all-LRU hierarchies; "
                f"{self.name!r} has non-LRU levels"
            )
        stream = np.ascontiguousarray(lines, dtype=np.int64)
        n = stream.shape[0]
        # Narrow bookkeeping dtypes: the per-level compress/scatter
        # passes are memory-bound and serving levels are tiny ints.
        serving = np.zeros(n, dtype=np.int16)
        origin = np.arange(
            n, dtype=np.int32 if n < (1 << 31) else np.int64
        )
        with obs.profile(
            "cache.replay.levels", accesses=n,
            levels=self.num_levels, hierarchy=self.name,
        ):
            for depth, level in enumerate(self.levels, start=1):
                if stream.shape[0] == 0:
                    break
                hits = level.replay(stream)
                misses = ~hits
                serving[origin[hits]] = depth
                stream = stream[misses]
                origin = origin[misses]
        return serving

    def step_trace(self, lines) -> np.ndarray:
        """Scalar reference replay: one :meth:`access` per entry.

        The oracle :meth:`replay` is checked against — identical
        counter, serving-level and final-content semantics — but built
        on the plain per-access step path, so it works for *any*
        replacement policy.
        """
        stream = np.ascontiguousarray(lines, dtype=np.int64)
        access = self.access
        return np.fromiter(
            (access(line) for line in stream.tolist()),
            dtype=np.int64,
            count=stream.shape[0],
        )

    # ------------------------------------------------------------------
    def snapshot(self) -> CacheStats:
        """Current counters as a :class:`CacheStats` (3-level view).

        Hierarchies with fewer than three levels report zero for the
        missing ones; deeper hierarchies fold extra middle levels into
        L2 and always report the last level as L3.
        """
        first = self.levels[0]
        last = self.levels[-1]
        middle = self.levels[1:-1]
        l2_refs = sum(level.refs for level in middle)
        l2_misses = sum(level.misses for level in middle)
        if len(self.levels) == 1:
            return CacheStats(
                first.refs, first.misses, 0, 0, first.refs, first.misses
            )
        return CacheStats(
            first.refs,
            first.misses,
            l2_refs,
            l2_misses,
            last.refs,
            last.misses,
        )

    def publish_telemetry(self, prefix: str = "cache") -> None:
        """Add this hierarchy's per-level refs/misses to the telemetry
        counters (``cache.l1.refs``, ``cache.l1.misses``, ...).

        Counters accumulate across calls, so publishing after every
        simulated run totals the traffic of the whole process.  No-op
        while telemetry is disabled.
        """
        if not obs.enabled():
            return
        for level in self.levels:
            name = level.name.lower()
            obs.inc(f"{prefix}.{name}.refs", int(level.refs))
            obs.inc(f"{prefix}.{name}.misses", int(level.misses))

    def reset_statistics(self) -> None:
        """Zero all counters, keeping cache contents (for warm runs)."""
        for level in self.levels:
            level.reset_statistics()

    def flush(self) -> None:
        """Empty every level and zero all counters (cold start)."""
        for level in self.levels:
            level.flush()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = ", ".join(
            f"{level.name}={level.capacity >> 10}KiB" for level in self.levels
        )
        return f"CacheHierarchy({self.name}: {inner})"


def paper_hierarchy(line_size: int = 64) -> CacheHierarchy:
    """The replication's hardware: 32 KiB / 256 KiB / 20 MiB.

    20 MiB is not a power-of-two set count with 16 ways, so the L3 is
    rounded to the nearest valid geometry (16 MiB, 16-way).
    """
    return CacheHierarchy(
        [
            CacheLevel(32 * 1024, line_size, 8, "L1"),
            CacheLevel(256 * 1024, line_size, 8, "L2"),
            CacheLevel(16 * 1024 * 1024, line_size, 16, "L3"),
        ],
        name="paper",
    )


def scaled_hierarchy(
    l1: int = 1024,
    l2: int = 4 * 1024,
    l3: int = 16 * 1024,
    line_size: int = 64,
) -> CacheHierarchy:
    """The experiment default: a hierarchy scaled to the scaled datasets.

    The synthetic analogues are ~1/2000 of the paper's graphs, so the
    caches shrink with them to keep the **working-set-to-cache ratio**
    in the paper's regime: per-node property arrays (4 B x n, i.e.
    3-48 KiB here) relate to this 1 KiB / 4 KiB / 16 KiB hierarchy the
    way the paper's 9 MB-380 MB arrays relate to its real
    32 KiB / 256 KiB / 20 MiB one — the smallest dataset (epinion)
    almost fits in the last level, the largest overflows it by an
    order of magnitude.
    """
    return CacheHierarchy(
        [
            CacheLevel(l1, line_size, 8, "L1"),
            CacheLevel(l2, line_size, 8, "L2"),
            CacheLevel(l3, line_size, 16, "L3"),
        ],
        name="scaled",
    )
