"""Graph substrate: adjacency structures, cleaning, components."""

from repro.graph.graph import Graph
from repro.graph.permute import invert_permutation, sort_order_to_relabeling

__all__ = ["Graph", "invert_permutation", "sort_order_to_relabeling"]
