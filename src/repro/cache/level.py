"""A single set-associative, LRU cache level.

The simulator works at cache-line granularity.  A level is a fixed
number of *sets*; a line maps to set ``line_id % num_sets`` and at most
``associativity`` lines live in a set, evicted least-recently-used
first.  We exploit CPython's insertion-ordered ``dict`` for an O(1)
LRU: a hit deletes and re-inserts the key (moving it to the back), an
eviction pops the front.

:meth:`CacheLevel.replay` classifies a whole reference stream at once
(see :mod:`repro.cache.replay`) and leaves the level holding what
stepping would have left.  Those final contents are settled lazily:
the level keeps the stream it last replayed and derives the resident
lines only when something reads them — the next replay (as its
prefix), a scalar access, or an inspection.

Geometry mirrors real hardware: ``capacity = num_sets * associativity
* line_size``.  The experiment configs scale capacities down so that
the scaled datasets overflow the hierarchy exactly as the paper's
billion-edge graphs overflow a real 32 KiB / 256 KiB / 20 MiB one.
"""

from __future__ import annotations

import random

import numpy as np

from repro.cache.replay import hit_mask, lru_contents
from repro.errors import InvalidParameterError


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


class CacheLevel:
    """One level of the cache hierarchy.

    Parameters
    ----------
    capacity:
        Total bytes of data the level can hold.
    line_size:
        Bytes per cache line (power of two; 64 on the paper's hardware).
    associativity:
        Ways per set.  Use ``capacity // line_size`` for a fully
        associative level.
    name:
        Label used in reports ("L1", "L2", ...).
    policy:
        Replacement policy: ``"lru"`` (default), ``"fifo"`` (insertion
        order, no promotion on hit) or ``"random"`` (uniform victim,
        seeded).  Real parts mix these (L1s are LRU-ish, some LLCs
        pseudo-random); the geometry ablation uses them to test the
        paper's hardware-insensitivity claim.
    seed:
        RNG seed for the ``"random"`` policy.
    """

    __slots__ = (
        "name", "capacity", "line_size", "associativity",
        "num_sets", "_set_mask", "_sets", "refs", "misses",
        "policy", "seed", "_rng", "_pending",
    )

    POLICIES = ("lru", "fifo", "random")

    def __init__(
        self,
        capacity: int,
        line_size: int = 64,
        associativity: int = 8,
        name: str = "cache",
        policy: str = "lru",
        seed: int = 0,
    ) -> None:
        if policy not in self.POLICIES:
            raise InvalidParameterError(
                f"policy must be one of {self.POLICIES}, got {policy!r}"
            )
        if not _is_power_of_two(line_size):
            raise InvalidParameterError(
                f"line_size must be a power of two, got {line_size}"
            )
        if associativity < 1:
            raise InvalidParameterError(
                f"associativity must be positive, got {associativity}"
            )
        if capacity < line_size * associativity:
            raise InvalidParameterError(
                f"capacity {capacity} cannot hold even one full set "
                f"({line_size} B lines x {associativity} ways)"
            )
        num_sets = capacity // (line_size * associativity)
        if not _is_power_of_two(num_sets):
            raise InvalidParameterError(
                f"capacity/(line_size*associativity) must be a power of "
                f"two, got {num_sets} sets"
            )
        self.name = name
        self.capacity = num_sets * associativity * line_size
        self.line_size = line_size
        self.associativity = associativity
        self.num_sets = num_sets
        self._set_mask = num_sets - 1
        self._sets: list[dict[int, None]] = [dict() for _ in range(num_sets)]
        self.refs = 0
        self.misses = 0
        self.policy = policy
        self.seed = seed
        self._rng = (
            random.Random(seed) if policy == "random" else None
        )
        #: Stream of the last :meth:`replay` whose final contents are
        #: not yet in ``_sets`` (which are stale while this is set).
        self._pending: np.ndarray | None = None

    # ------------------------------------------------------------------
    def access(self, line: int) -> bool:
        """Reference ``line``; return True on hit.

        Under LRU a hit promotes the line to most-recently-used; FIFO
        and random leave residency order untouched.  On a miss the
        line is filled, evicting the policy's victim if the set is
        full.  Statistics (``refs``/``misses``) update either way.
        """
        if self._pending is not None:
            self._settle()
        self.refs += 1
        lines = self._sets[line & self._set_mask]
        if line in lines:
            if self.policy == "lru":
                del lines[line]
                lines[line] = None
            return True
        self.misses += 1
        if len(lines) >= self.associativity:
            if self._rng is None:
                victim = next(iter(lines))  # front = LRU or FIFO-oldest
            else:
                victim = self._rng.choice(list(lines))
            del lines[victim]
        lines[line] = None
        return False

    def replay(self, stream: np.ndarray) -> np.ndarray:
        """Reference every line of ``stream`` in order; the hit mask.

        Equivalent to one :meth:`access` per entry for an LRU level:
        the level's resident lines enter the classification as a
        prefix (per set, least recently used first) whose verdicts are
        dropped, so hits against lines left by earlier accesses or
        replays count, and the final contents stay behind for whatever
        follows.  Only ``refs``/``misses`` are updated eagerly; the
        final contents are settled on first use.
        """
        if self.policy != "lru":
            raise InvalidParameterError(
                f"replay is only exact for LRU levels; {self.name!r} "
                f"uses {self.policy!r}"
            )
        prefix = self._state()
        if prefix.shape[0]:
            stream = np.concatenate([prefix, stream])
        hits = hit_mask(stream, self.num_sets, self.associativity)[
            prefix.shape[0]:
        ]
        self.refs += int(hits.shape[0])
        self.misses += int(hits.shape[0] - np.count_nonzero(hits))
        self._pending = stream
        return hits

    def _state(self) -> np.ndarray:
        """Resident lines, per set least recently used first."""
        if self._pending is not None:
            return lru_contents(
                self._pending, self.num_sets, self.associativity
            )
        return np.fromiter(
            (line for lines in self._sets for line in lines),
            dtype=np.int64,
        )

    def _settle(self) -> None:
        """Materialise the last replay's final contents as sets."""
        state = self._state()
        self._pending = None
        sets: list[dict[int, None]] = [
            dict() for _ in range(self.num_sets)
        ]
        mask = self._set_mask
        for line in state.tolist():
            sets[line & mask][line] = None
        self._sets = sets

    def contains(self, line: int) -> bool:
        """Whether ``line`` is currently resident (no LRU update)."""
        if self._pending is not None:
            self._settle()
        return line in self._sets[line & self._set_mask]

    def resident_lines(self) -> set[int]:
        """Snapshot of every line currently held (for tests)."""
        return set(self.resident_order())

    def resident_order(self) -> list[int]:
        """Every resident line, set by set, least recently used first
        within each set — the LRU order stepping would evict in."""
        if self._pending is not None:
            self._settle()
        return [line for lines in self._sets for line in lines]

    def reset_statistics(self) -> None:
        """Zero the reference/miss counters, keeping contents."""
        self.refs = 0
        self.misses = 0

    def flush(self) -> None:
        """Drop all cached lines and zero the counters.

        A flush is a cold start, so the ``"random"`` policy's victim
        stream restarts from its seed — two flushed runs of the same
        trace are identical, the determinism the sweep engine's
        archive digests rely on.
        """
        for lines in self._sets:
            lines.clear()
        self._pending = None
        if self._rng is not None:
            self._rng = random.Random(self.seed)
        self.reset_statistics()

    @property
    def miss_rate(self) -> float:
        """Fraction of references that missed (0 when never referenced)."""
        return self.misses / self.refs if self.refs else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CacheLevel({self.name}: {self.capacity} B, "
            f"{self.num_sets}x{self.associativity} ways, "
            f"{self.line_size} B lines)"
        )
