"""Reuse-distance analysis of memory traces.

The *reuse distance* of an access is the number of distinct cache
lines touched since the previous access to the same line.  It is the
canonical machine-independent locality metric: a fully-associative
LRU cache of capacity C misses exactly the accesses whose reuse
distance is >= C (plus cold misses).  This lets the experiments
characterise an ordering's locality once and derive its miss rate for
*every* cache size — and gives the test suite an independent oracle
for the LRU simulator.

The implementation is the standard O(n log n) algorithm with a Fenwick
tree over access timestamps.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.cache.hierarchy import CacheHierarchy
from repro.errors import InvalidParameterError

#: Reuse distance reported for cold (first-ever) accesses.
COLD = -1


class _FenwickTree:
    """Prefix-sum tree over ``size`` slots (1-based internally)."""

    __slots__ = ("_tree", "_size")

    def __init__(self, size: int) -> None:
        self._size = size
        self._tree = [0] * (size + 1)

    def add(self, index: int, delta: int) -> None:
        index += 1
        while index <= self._size:
            self._tree[index] += delta
            index += index & (-index)

    def prefix_sum(self, index: int) -> int:
        """Sum of slots ``0 .. index`` inclusive."""
        index += 1
        total = 0
        while index > 0:
            total += self._tree[index]
            index -= index & (-index)
        return total


def reuse_distances(lines) -> np.ndarray:
    """Per-access LRU reuse distances of a line-id trace.

    Returns an ``int64`` array aligned with the trace; cold accesses
    get :data:`COLD`.
    """
    trace = np.asarray(lines, dtype=np.int64)
    n = trace.shape[0]
    distances = np.empty(n, dtype=np.int64)
    tree = _FenwickTree(n)
    last_seen: dict[int, int] = {}
    for t in range(n):
        line = int(trace[t])
        previous = last_seen.get(line)
        if previous is None:
            distances[t] = COLD
        else:
            # Distinct lines touched strictly between the accesses =
            # marked timestamps in (previous, t).
            distances[t] = tree.prefix_sum(t - 1) - tree.prefix_sum(
                previous
            )
            tree.add(previous, -1)
        tree.add(t, +1)
        last_seen[line] = t
    return distances


def lru_misses(distances: np.ndarray, capacity: int) -> int:
    """Misses of a fully-associative LRU cache of ``capacity`` lines.

    Exact for the trace the distances came from: cold accesses always
    miss, warm accesses miss iff their reuse distance >= capacity.
    """
    if capacity < 1:
        raise InvalidParameterError(
            f"capacity must be positive, got {capacity}"
        )
    distances = np.asarray(distances, dtype=np.int64)
    return int(
        ((distances == COLD) | (distances >= capacity)).sum()
    )


def miss_curve(
    distances: np.ndarray, capacities
) -> dict[int, float]:
    """Miss *rate* per capacity — the locality profile of a trace."""
    distances = np.asarray(distances, dtype=np.int64)
    total = distances.shape[0]
    if total == 0:
        return {int(c): 0.0 for c in capacities}
    return {
        int(c): lru_misses(distances, int(c)) / total
        for c in capacities
    }


def median_reuse_distance(distances: np.ndarray) -> float:
    """Median over warm accesses (cold excluded); inf if none."""
    distances = np.asarray(distances, dtype=np.int64)
    warm = distances[distances != COLD]
    if warm.shape[0] == 0:
        return float("inf")
    return float(np.median(warm))


class RecordingHierarchy(CacheHierarchy):
    """A hierarchy over ``inner``'s levels that records every line id.

    It records each scalar :meth:`access` and each :meth:`replay`
    chunk, in order; :meth:`trace` returns the recorded line ids for
    :func:`reuse_distances`.  The levels are ``inner``'s own objects,
    so ``inner``'s counters and contents advance with the recorder's.
    Being a :class:`CacheHierarchy`, it replays exactly when every
    level is LRU, so a :class:`~repro.cache.layout.Memory` over it
    records its trace and hands it over in chunks: read a result from
    the memory (``stats()`` or ``cost()``) before :meth:`trace`.
    """

    __slots__ = ("_lines",)

    def __init__(self, inner: CacheHierarchy) -> None:
        super().__init__(inner.levels, name=inner.name)
        self._lines = array("q")

    def access(self, line: int) -> int:
        self._lines.append(line)
        return super().access(line)

    def replay(self, lines) -> np.ndarray:
        serving = super().replay(lines)
        self._lines.frombytes(
            np.ascontiguousarray(lines, dtype=np.int64).tobytes()
        )
        return serving

    def reset_statistics(self) -> None:
        """Zero the counters and restart the recorded trace.

        Both reset flavours start a fresh measurement window, so the
        trace restarts with them — otherwise a flush-then-rerun
        sequence would feed reuse-distance analysis a concatenation of
        two unrelated runs.
        """
        super().reset_statistics()
        self._lines = array("q")

    def flush(self) -> None:
        """Cold-start the levels and restart the trace."""
        super().flush()
        self._lines = array("q")

    def trace(self) -> np.ndarray:
        """The recorded line-id trace as an array."""
        return np.array(self._lines, dtype=np.int64)
