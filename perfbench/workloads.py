"""The benchmark's workloads, each driven through public entry points.

A workload run returns an :class:`Outcome`: one record per *unit*
(a simulated cell) holding what the program produced — total
simulated cycles, the six per-level cache counters and a digest of the
permutation used — plus the rendered artifact text.  The records are
compared against ``reference/`` by ``run.py``.

Every unit is marked ``seeded`` when its inputs depend on the
benchmark seed (a seeded ordering, or an algorithm whose source nodes
are drawn from ``Profile.seed``); the others are identical for every
seed and are checked exactly against the committed reference on every
run.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import perf
from repro.algorithms import base as algorithms_base
from repro.cache import Memory
from repro.graph import datasets, permute
from repro.ordering import base as ordering_base
from repro.perf import report

#: The seed the committed reference was generated with (the
#: ``Profile`` default).
DEFAULT_SEED = 7
SIZES = ("full", "tiny")


@dataclass
class Outcome:
    artifact: str
    #: Builds the unit records; called after the timed region.
    units: Callable[[], dict[str, dict]]


@dataclass(frozen=True)
class Workload:
    """One workload, split into *parts*.

    A part is run in a fresh process; the parts of a workload share no
    program state (no memoised ordering, no relabeled graph), so the
    workload's time is the sum of its parts' times.
    """

    name: str
    #: Datasets generated during set-up (every part loads all), per size.
    datasets: dict[str, tuple[str, ...]]
    #: The workload's parts, per size.
    parts: dict[str, tuple[str, ...]]
    #: Span names the traced run must record at least once.
    must_work: tuple[str, ...]
    #: ``run(seed, size, part, tracer)``.
    run: Callable[[int, str, str, object], Outcome]


# ----------------------------------------------------------------------
# Unit records
# ----------------------------------------------------------------------
def perm_digest(perm) -> str:
    data = np.ascontiguousarray(perm, dtype=np.int64).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def perm_problem(perm, num_nodes: int) -> str | None:
    perm = np.asarray(perm)
    if perm.shape != (num_nodes,) or not np.array_equal(
        np.sort(perm), np.arange(num_nodes)
    ):
        return "ordering is not a permutation of the node ids"
    return None


def cell_record(result, seeded: bool) -> dict:
    """Counters of one simulated run plus an invariant check."""
    s = result.stats
    record = {
        "cycles": float(result.cycles),
        "stats": [
            int(s.l1_refs), int(s.l1_misses), int(s.l2_refs),
            int(s.l2_misses), int(s.l3_refs), int(s.l3_misses),
        ],
        "seeded": seeded,
    }
    levels = record["stats"]
    consistent = (
        all(0 <= levels[i + 1] <= levels[i] for i in (0, 2, 4))
        and levels[2] == levels[1]
        and levels[4] == levels[3]
        and np.isfinite(record["cycles"])
        and record["cycles"] > 0
    )
    if not consistent:
        record["invalid"] = "cache counters are inconsistent"
    return record


def _add_perm(record: dict, perm, num_nodes: int) -> dict:
    record["perm"] = perm_digest(perm)
    problem = perm_problem(perm, num_nodes)
    if problem:
        record["invalid"] = problem
    return record


def _profile(seed: int, dataset_names: tuple[str, ...], **changes):
    """``PROFILES["quick"]`` with the benchmark seed mapped onto
    ``Profile.seed`` and ``random_seeds``."""
    return dataclasses.replace(
        perf.PROFILES["quick"],
        datasets=dataset_names,
        seed=seed,
        random_seeds=(seed,),
        **changes,
    )


def _params_seeded(algorithm: str, graph, profile) -> bool:
    default = dataclasses.replace(profile, seed=DEFAULT_SEED)
    return perf.algorithm_params(
        algorithm, graph, profile
    ) != perf.algorithm_params(algorithm, graph, default)


def _deterministic(ordering: str) -> bool:
    return ordering_base.spec(ordering).deterministic


def _memoised_perm(graph, ordering: str, seed: int):
    """The arrangement the run used, from the program's ordering memo
    (``profile.seed`` and ``random_seeds`` are both the bench seed)."""
    perm, _seconds = perf.GLOBAL_ORDERING_CACHE.permutation(
        graph, ordering, seed
    )
    return perm


# ----------------------------------------------------------------------
# fig5-quick: the Figure 5 speedup sweep
# ----------------------------------------------------------------------
FIG5 = {
    "full": {"datasets": ("epinion", "pokec")},
    "tiny": {
        "datasets": ("epinion",),
        "algorithms": ("nq", "pr", "kcore"),
        "orderings": ("original", "random", "gorder"),
    },
}


def run_fig5(seed: int, size: str, part: str, tracer) -> Outcome:
    shape = dict(FIG5[size])
    del shape["datasets"]
    profile = _profile(seed, (part,), **shape)
    outcome = perf.SweepEngine().run(profile)
    matrix = outcome.matrix()
    with tracer.span("perf.report"):
        relative = perf.relative_to_gorder(matrix)
        panels = [
            report.render_speedup_series(
                f"{algorithm} on {dataset} (relative to Gorder = 1.0)",
                {
                    ordering: relative.get((dataset, algorithm, ordering))
                    for ordering in profile.orderings
                },
            )
            for algorithm in profile.algorithms
            for dataset in profile.datasets
        ]
        failed = outcome.failed_cells()
        if failed:
            panels.append(
                report.render_failures(
                    f"{len(failed)} cell(s) failed",
                    list(failed.values()),
                )
            )

    def units() -> dict[str, dict]:
        records = {}
        for (dataset, algorithm, ordering, _), run in (
            outcome.results.items()
        ):
            graph = datasets.load(dataset)
            seeded = not _deterministic(ordering) or _params_seeded(
                algorithm, graph, profile
            )
            perm = _memoised_perm(graph, ordering, profile.seed)
            records[f"{dataset}/{algorithm}/{ordering}"] = _add_perm(
                cell_record(run, seeded), perm, graph.num_nodes
            )
        for (dataset, algorithm, ordering, _), failure in (
            outcome.failures.items()
        ):
            records[f"{dataset}/{algorithm}/{ordering}"] = {
                "error": f"{failure.error_type}: {failure.message}"
            }
        return records

    return Outcome("\n\n".join(panels) + "\n", units)


# ----------------------------------------------------------------------
# fig1-sdarc: the Figure 1 execute/stall split
# ----------------------------------------------------------------------
FIG1 = {
    "full": {"dataset": "sdarc"},
    "tiny": {"dataset": "epinion", "algorithms": ("bfs", "kcore")},
}


def run_fig1(seed: int, size: str, part: str, tracer) -> Outcome:
    shape = dict(FIG1[size])
    dataset = shape.pop("dataset")
    profile = _profile(seed, (dataset,), **shape)
    orderings = (part,)
    results = perf.cache_stall_split(profile, dataset, orderings)
    with tracer.span("perf.report"):
        artifact = "\n\n".join(
            report.render_stall_split(
                f"Figure 1 ({ordering} order, {dataset})",
                {
                    algorithm: results[(algorithm, ordering)]
                    for algorithm in profile.algorithms
                },
            )
            for ordering in orderings
        )

    def units() -> dict[str, dict]:
        graph = datasets.load(dataset)
        records = {}
        for (algorithm, ordering), run in results.items():
            perm = _memoised_perm(graph, ordering, profile.seed)
            records[f"{dataset}/{algorithm}/{ordering}"] = _add_perm(
                cell_record(
                    run, _params_seeded(algorithm, graph, profile)
                ),
                perm, graph.num_nodes,
            )
        return records

    return Outcome(artifact + "\n", units)


# ----------------------------------------------------------------------
# a6-library: the A6 extension algorithms through the library API
# ----------------------------------------------------------------------
A6_ALGORITHMS = ("wcc", "tc", "lp")
A6_ORDERINGS = ("original", "random", "gorder")
A6_PARAMS = {"lp": {"iterations": 3}}
A6 = {"full": "pokec", "tiny": "epinion"}


@dataclass(frozen=True)
class _Cell:
    """The two fields of a run :func:`cell_record` reads."""

    cycles: float
    stats: object


def run_a6(seed: int, size: str, part: str, tracer) -> Outcome:
    dataset = A6[size]
    graph = datasets.load(dataset)
    runs: dict[tuple[str, str], tuple] = {}
    errors: dict[tuple[str, str], str] = {}
    for ordering in A6_ORDERINGS:
        try:
            perm = ordering_base.compute_ordering(
                ordering, graph, seed=seed
            )
            relabeled = permute.relabel(graph, perm)
        except Exception as exc:  # recorded as failed units
            for algorithm in A6_ALGORITHMS:
                errors[(algorithm, ordering)] = _describe(exc)
            continue
        for algorithm in A6_ALGORITHMS:
            try:
                memory = Memory()
                algorithms_base.REGISTRY[algorithm].traced(
                    relabeled, memory, **A6_PARAMS.get(algorithm, {})
                )
                cell = _Cell(memory.cost().total_cycles, memory.stats())
            except Exception as exc:  # recorded as a failed unit
                errors[(algorithm, ordering)] = _describe(exc)
                continue
            runs[(algorithm, ordering)] = (cell, perm)
    with tracer.span("perf.report"):
        rows = [
            [
                algorithm,
                *(
                    _ratio(runs, algorithm, ordering)
                    for ordering in ("original", "random")
                ),
            ]
            for algorithm in A6_ALGORITHMS
        ]
        artifact = report.render_table(
            ["algorithm", "original/gorder", "random/gorder"], rows,
            title=f"A6: Gorder on algorithms beyond the paper's nine "
            f"({dataset})",
        )

    def units() -> dict[str, dict]:
        records = {
            f"{dataset}/{algorithm}/{ordering}": {"error": error}
            for (algorithm, ordering), error in errors.items()
        }
        for (algorithm, ordering), (cell, perm) in runs.items():
            record = cell_record(cell, not _deterministic(ordering))
            records[f"{dataset}/{algorithm}/{ordering}"] = _add_perm(
                record, perm, graph.num_nodes
            )
        return records

    return Outcome(artifact + "\n", units)


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _ratio(runs, algorithm: str, ordering: str) -> str:
    if (algorithm, "gorder") not in runs or (algorithm, ordering) not in runs:
        return "-"
    gorder = runs[(algorithm, "gorder")][0].cycles
    return f"{runs[(algorithm, ordering)][0].cycles / gorder:.2f}x"


# ----------------------------------------------------------------------
_SIMULATED = (
    "ordering.compute", "graph.relabel", "algorithms.emit",
    "cache.resolve", "perf.report",
)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in [
        Workload(
            "fig5-quick",
            {size: FIG5[size]["datasets"] for size in SIZES},
            {size: FIG5[size]["datasets"] for size in SIZES},
            _SIMULATED + ("cache.replay", "perf.cell"),
            run_fig5,
        ),
        Workload(
            "fig1-sdarc",
            {size: (FIG1[size]["dataset"],) for size in SIZES},
            {size: ("original", "gorder") for size in SIZES},
            _SIMULATED + ("cache.replay", "perf.cell"),
            run_fig1,
        ),
        Workload(
            "a6-library",
            {size: (A6[size],) for size in SIZES},
            {size: ("all",) for size in SIZES},
            _SIMULATED,
            run_a6,
        ),
    ]
}
