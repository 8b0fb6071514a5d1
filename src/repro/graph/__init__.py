"""Graph substrate: adjacency structures, cleaning, components."""

from repro.graph.build import BuildResult, build_graph, dedup_edges
from repro.graph.communities import (
    CommunityResult,
    label_propagation_communities,
    modularity,
)
from repro.graph.components import ComponentResult, connected_components
from repro.graph.csr import Adjacency
from repro.graph.degrees import (
    degree_class_edges,
    degree_class_labels,
    power_law_tail_exponent,
)
from repro.graph.diameter import bfs_level_histogram, effective_diameter
from repro.graph.graph import Graph
from repro.graph.permute import (
    apply_to_edges,
    check_permutation,
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
    "dedup_edges",
    "CommunityResult",
    "label_propagation_communities",
    "modularity",
    "ComponentResult",
    "connected_components",
    "degree_class_edges",
    "degree_class_labels",
    "power_law_tail_exponent",
    "bfs_level_histogram",
    "effective_diameter",
    "apply_to_edges",
    "check_permutation",
    "identity_permutation",
    "invert_permutation",
    "is_permutation",
    "random_permutation",
    "sort_order_to_relabeling",
    "edges_as_keys",
    "validate_graph",
]
