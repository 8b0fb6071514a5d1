"""Graph substrate: adjacency structures, cleaning, components."""

from repro.graph.build import BuildResult, build_graph, compact_vertices, dedup_edges
from repro.graph.communities import (
    CommunityResult,
    label_propagation_communities,
    modularity,
)
from repro.graph.components import (
    ComponentResult,
    connected_components,
    giant_component,
)
from repro.graph.csr import Adjacency
from repro.graph.degrees import (
    DegreeSummary,
    degree_class_edges,
    degree_class_labels,
    degree_histogram,
    degree_summary,
    normalized_degree_frequency,
    power_law_tail_exponent,
)
from repro.graph.diameter import bfs_level_histogram, effective_diameter
from repro.graph.graph import Graph
from repro.graph.permute import (
    apply_to_edges,
    apply_to_vertex_data,
    check_permutation,
    compose_permutations,
    identity_permutation,
    invert_permutation,
    is_permutation,
    random_permutation,
    sort_order_to_relabeling,
)
from repro.graph.validate import edges_as_keys, validate_graph

__all__ = [
    "Adjacency",
    "Graph",
    "BuildResult",
    "build_graph",
    "compact_vertices",
    "dedup_edges",
    "CommunityResult",
    "label_propagation_communities",
    "modularity",
    "ComponentResult",
    "connected_components",
    "giant_component",
    "DegreeSummary",
    "degree_class_edges",
    "degree_class_labels",
    "degree_histogram",
    "degree_summary",
    "normalized_degree_frequency",
    "power_law_tail_exponent",
    "bfs_level_histogram",
    "effective_diameter",
    "apply_to_edges",
    "apply_to_vertex_data",
    "check_permutation",
    "compose_permutations",
    "identity_permutation",
    "invert_permutation",
    "is_permutation",
    "random_permutation",
    "sort_order_to_relabeling",
    "edges_as_keys",
    "validate_graph",
]
