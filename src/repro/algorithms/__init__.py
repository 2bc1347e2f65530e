"""The paper's nine benchmark graph algorithms (pure + traced)."""

from repro.algorithms.base import (
    ALGORITHM_NAMES,
    REGISTRY,
    AlgorithmSpec,
    spec,
)
from repro.algorithms.bfs import (
    UNVISITED,
    breadth_first_search,
    breadth_first_search_traced,
    breadth_first_search_traced_scalar,
)
from repro.algorithms.deltastep import (
    delta_stepping,
    delta_stepping_traced,
    edge_weights,
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
    pick_sources,
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
    DAMPING,
    PAPER_ITERATIONS,
    pagerank,
    pagerank_traced,
    pagerank_traced_scalar,
)
from repro.algorithms.runtime import (
    BucketQueue,
    Frontier,
    TraceEmitter,
)
from repro.algorithms.scc import (
    strongly_connected_components,
    strongly_connected_components_traced,
    strongly_connected_components_traced_scalar,
)
from repro.algorithms.sp import (
    INFINITY,
    shortest_paths,
    shortest_paths_traced,
    shortest_paths_traced_scalar,
)
from repro.algorithms.traced_heap import TracedBinaryHeap
from repro.algorithms.triangles import (
    triangle_count,
    triangle_count_traced,
    triangle_count_traced_scalar,
)
from repro.algorithms.union_find import UnionFind
from repro.algorithms.wcc import (
    weakly_connected_components,
    weakly_connected_components_traced,
)
from repro.algorithms.wkcore import (
    weighted_core_decomposition,
    weighted_core_decomposition_traced,
)

__all__ = [
    "ALGORITHM_NAMES",
    "REGISTRY",
    "AlgorithmSpec",
    "spec",
    "neighbor_query",
    "neighbor_query_traced",
    "breadth_first_search",
    "breadth_first_search_traced",
    "UNVISITED",
    "depth_first_search",
    "depth_first_search_traced",
    "strongly_connected_components",
    "strongly_connected_components_traced",
    "shortest_paths",
    "shortest_paths_traced",
    "INFINITY",
    "pagerank",
    "pagerank_traced",
    "DAMPING",
    "PAPER_ITERATIONS",
    "dominating_set",
    "dominating_set_traced",
    "core_decomposition",
    "core_decomposition_traced",
    "diameter",
    "diameter_traced",
    "pick_sources",
    "TracedBinaryHeap",
    "UnionFind",
    "weakly_connected_components",
    "weakly_connected_components_traced",
    "triangle_count",
    "triangle_count_traced",
    "triangle_count_traced_scalar",
    "label_propagation",
    "label_propagation_traced",
    "label_propagation_traced_scalar",
    "neighbor_query_traced_scalar",
    "breadth_first_search_traced_scalar",
    "shortest_paths_traced_scalar",
    "pagerank_traced_scalar",
    "diameter_traced_scalar",
    "depth_first_search_traced_scalar",
    "strongly_connected_components_traced_scalar",
    "dominating_set_traced_scalar",
    "core_decomposition_traced_scalar",
    "delta_stepping",
    "delta_stepping_traced",
    "edge_weights",
    "weighted_core_decomposition",
    "weighted_core_decomposition_traced",
    "BucketQueue",
    "Frontier",
    "TraceEmitter",
]
