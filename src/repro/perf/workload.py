"""Workloads and amortisation analysis.

A :class:`Workload` is a named mix of algorithm runs (e.g. "the
nightly pipeline: 3-iteration PageRank + SCC + two diameter probes").
It provides the library-level answer to the question the replication's
discussion raises, following "When is Graph Reordering an
Optimization?": a heavyweight ordering only pays off once its one-off
cost has been amortised by per-run savings.

:func:`amortization_table` runs a workload under every requested
ordering and reports cycles, speedup, ordering cost and the break-even
run count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.algorithms import base as algorithms
from repro.cache import Memory, scaled_hierarchy
from repro.errors import InvalidParameterError
from repro.graph.csr import CSRGraph
from repro.graph.permute import relabel
from repro.ordering import base as orderings

# Single definition lives with the adaptive selector, which shares
# the same cycles-to-seconds amortisation model; re-exported here for
# the existing perf-layer consumers.
from repro.ordering.select import DEFAULT_CLOCK_HZ

__all__ = [
    "DEFAULT_CLOCK_HZ",
    "Workload",
    "AmortizationRow",
    "amortization_table",
]


@dataclass(frozen=True)
class Workload:
    """A repeatable mix of algorithm runs over one graph."""

    name: str
    steps: tuple[tuple[str, dict], ...]

    @classmethod
    def of(cls, name: str, *steps) -> "Workload":
        """Build from ``("algorithm", {params})`` or ``"algorithm"``."""
        normalised: list[tuple[str, dict]] = []
        for step in steps:
            if isinstance(step, str):
                normalised.append((step, {}))
            else:
                algorithm, params = step
                normalised.append((algorithm, dict(params)))
        if not normalised:
            raise InvalidParameterError(
                "a workload needs at least one step"
            )
        for algorithm, _ in normalised:
            algorithms.spec(algorithm)  # validate names eagerly
        return cls(name, tuple(normalised))

    def cycles(
        self,
        graph: CSRGraph,
        hierarchy_factory=scaled_hierarchy,
    ) -> float:
        """Total simulated cycles of one workload execution."""
        total = 0.0
        for algorithm, params in self.steps:
            memory = Memory(hierarchy_factory())
            algorithms.spec(algorithm).traced(graph, memory, **params)
            total += memory.cost().total_cycles
        return total


@dataclass(frozen=True)
class AmortizationRow:
    """Result of evaluating one ordering against a workload."""

    ordering: str
    cycles: float
    speedup: float  # vs the baseline ordering
    ordering_seconds: float
    #: Workload executions needed to pay the ordering cost back;
    #: ``inf`` when the ordering does not help.
    break_even_runs: float


def amortization_table(
    workload: Workload,
    graph: CSRGraph,
    ordering_names,
    baseline: str = "original",
    clock_hz: float = DEFAULT_CLOCK_HZ,
    seed: int = 0,
) -> list[AmortizationRow]:
    """Evaluate orderings against a workload, with break-even runs."""
    if clock_hz <= 0:
        raise InvalidParameterError(
            f"clock_hz must be positive, got {clock_hz}"
        )
    baseline_perm = orderings.compute_ordering(
        baseline, graph, seed=seed
    )
    baseline_cycles = workload.cycles(relabel(graph, baseline_perm))
    rows = []
    for name in ordering_names:
        start = time.perf_counter()
        perm = orderings.compute_ordering(name, graph, seed=seed)
        ordering_seconds = time.perf_counter() - start
        cycles = workload.cycles(relabel(graph, perm))
        saved_seconds = (baseline_cycles - cycles) / clock_hz
        if saved_seconds > 0:
            break_even = ordering_seconds / saved_seconds
        else:
            break_even = float("inf")
        rows.append(
            AmortizationRow(
                ordering=name,
                cycles=cycles,
                speedup=baseline_cycles / cycles if cycles else (
                    float("inf")
                ),
                ordering_seconds=ordering_seconds,
                break_even_runs=break_even,
            )
        )
    return rows
