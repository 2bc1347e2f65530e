"""Algorithm registry: the paper's nine benchmark algorithms by name.

Each entry couples the *pure* implementation (returns results, used by
tests and examples) with its *traced* twin (drives the cache
simulator).  ``source_params`` names parameters holding logical node
ids; the experiment runner maps those through each ordering's
permutation so every ordering performs identical logical work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.algorithms.bfs import (
    breadth_first_search,
    breadth_first_search_traced,
    breadth_first_search_traced_scalar,
)
from repro.algorithms.deltastep import (
    delta_stepping,
    delta_stepping_traced,
)
from repro.algorithms.dfs import (
    depth_first_search,
    depth_first_search_traced,
    depth_first_search_traced_scalar,
)
from repro.algorithms.diameter import (
    diameter,
    diameter_traced,
    diameter_traced_scalar,
)
from repro.algorithms.domset import (
    dominating_set,
    dominating_set_traced,
    dominating_set_traced_scalar,
)
from repro.algorithms.kcore import (
    core_decomposition,
    core_decomposition_traced,
    core_decomposition_traced_scalar,
)
from repro.algorithms.labelprop import (
    label_propagation,
    label_propagation_traced,
    label_propagation_traced_scalar,
)
from repro.algorithms.nq import (
    neighbor_query,
    neighbor_query_traced,
    neighbor_query_traced_scalar,
)
from repro.algorithms.pagerank import (
    pagerank,
    pagerank_traced,
    pagerank_traced_scalar,
)
from repro.algorithms.scc import (
    strongly_connected_components,
    strongly_connected_components_traced,
    strongly_connected_components_traced_scalar,
)
from repro.algorithms.sp import (
    shortest_paths,
    shortest_paths_traced,
    shortest_paths_traced_scalar,
)
from repro.algorithms.wkcore import (
    weighted_core_decomposition,
    weighted_core_decomposition_traced,
)
from repro.algorithms.triangles import (
    triangle_count,
    triangle_count_traced,
    triangle_count_traced_scalar,
)
from repro.algorithms.wcc import (
    weakly_connected_components,
    weakly_connected_components_traced,
)
from repro.errors import UnknownAlgorithmError


@dataclass(frozen=True)
class AlgorithmSpec:
    """One registered benchmark algorithm."""

    name: str  # registry key (the paper's abbreviation, lowercase)
    display_name: str  # the paper's label (NQ, BFS, ...)
    pure: Callable[..., Any]
    traced: Callable[..., Any]
    #: Parameter names carrying logical node ids (relabeled per run).
    source_params: tuple[str, ...] = ()
    #: Parameters that scale the run length in experiment profiles.
    scale_params: tuple[str, ...] = field(default=())
    #: Whether the algorithm belongs to the paper's benchmark nine.
    headline: bool = True
    #: Scalar-loop trace emitter kept as the oracle of a runtime port
    #: or a line-recorder kernel; only the tests and ``bench --suite
    #: algos`` call it.  ``None`` when ``traced`` *is* the scalar
    #: implementation (WCC) or when the traced variant has no
    #: touch-sequence twin (DSSSP, WKcore).
    traced_scalar: Callable[..., Any] | None = None


#: The nine algorithms, in the paper's figure order.
REGISTRY: dict[str, AlgorithmSpec] = {
    spec.name: spec
    for spec in [
        AlgorithmSpec(
            "nq", "NQ", neighbor_query, neighbor_query_traced,
            traced_scalar=neighbor_query_traced_scalar,
        ),
        AlgorithmSpec(
            "bfs", "BFS", breadth_first_search,
            breadth_first_search_traced,
            traced_scalar=breadth_first_search_traced_scalar,
        ),
        AlgorithmSpec(
            "dfs", "DFS", depth_first_search, depth_first_search_traced,
            traced_scalar=depth_first_search_traced_scalar,
        ),
        AlgorithmSpec(
            "scc", "SCC", strongly_connected_components,
            strongly_connected_components_traced,
            traced_scalar=strongly_connected_components_traced_scalar,
        ),
        AlgorithmSpec(
            "sp", "SP", shortest_paths, shortest_paths_traced,
            source_params=("source",),
            traced_scalar=shortest_paths_traced_scalar,
        ),
        AlgorithmSpec(
            "pr", "PR", pagerank, pagerank_traced,
            scale_params=("iterations",),
            traced_scalar=pagerank_traced_scalar,
        ),
        AlgorithmSpec(
            "ds", "DS", dominating_set, dominating_set_traced,
            traced_scalar=dominating_set_traced_scalar,
        ),
        AlgorithmSpec(
            "kcore", "Kcore", core_decomposition,
            core_decomposition_traced,
            traced_scalar=core_decomposition_traced_scalar,
        ),
        AlgorithmSpec(
            "diam", "Diam", diameter, diameter_traced,
            source_params=("sources",),
            traced_scalar=diameter_traced_scalar,
        ),
        # Extension algorithms (beyond the paper's nine) — the
        # replication suggests Gorder "could speed up other graph
        # algorithms as well"; these test that claim.
        AlgorithmSpec(
            "wcc", "WCC", weakly_connected_components,
            weakly_connected_components_traced, headline=False,
        ),
        AlgorithmSpec(
            "tc", "TC", triangle_count, triangle_count_traced,
            headline=False,
            traced_scalar=triangle_count_traced_scalar,
        ),
        AlgorithmSpec(
            "lp", "LP", label_propagation, label_propagation_traced,
            scale_params=("iterations",), headline=False,
            traced_scalar=label_propagation_traced_scalar,
        ),
        AlgorithmSpec(
            "dsssp", "DSSSP", delta_stepping, delta_stepping_traced,
            source_params=("source",), headline=False,
        ),
        AlgorithmSpec(
            "wkcore", "WKcore", weighted_core_decomposition,
            weighted_core_decomposition_traced, headline=False,
        ),
    ]
}

#: Names in the paper's figure order (the headline nine only).
ALGORITHM_NAMES: tuple[str, ...] = tuple(
    name for name, algorithm in REGISTRY.items() if algorithm.headline
)

def spec(name: str) -> AlgorithmSpec:
    """Look up an algorithm by registry name (case-insensitive)."""
    try:
        return REGISTRY[name.lower()]
    except KeyError:
        known = ", ".join(REGISTRY)
        raise UnknownAlgorithmError(
            f"unknown algorithm {name!r}; known algorithms: {known}"
        ) from None
