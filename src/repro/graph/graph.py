"""Directed graph with both traversal directions materialized.

A :class:`Graph` pairs the CSR (out-neighbour) and CSC (in-neighbour)
views the paper's SpMV traversals use, together with the degree-based
vertex classification of Section II-A:

* *low-degree vertices* (LDV): degree <= average degree ``m / n``;
* *high-degree vertices* (HDV): degree > average degree;
* *hubs*: degree > ``sqrt(n)``, split into in-hubs and out-hubs.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.csr import Adjacency
from repro.graph.permute import apply_to_edges, check_permutation

__all__ = ["Graph"]


class Graph:
    """Directed graph ``G = (V, E)`` with CSR and CSC adjacency.

    Use :meth:`from_edges` (or :func:`repro.graph.build.build_graph`,
    which also deduplicates and drops zero-degree vertices) rather than
    the raw constructor.
    """

    __slots__ = ("out_adj", "in_adj", "name")

    def __init__(
        self, out_adj: Adjacency, in_adj: Adjacency, *, name: str = ""
    ) -> None:
        if out_adj.num_vertices != in_adj.num_vertices:
            raise GraphFormatError(
                f"CSR has {out_adj.num_vertices} vertices but CSC has "
                f"{in_adj.num_vertices}"
            )
        if out_adj.num_edges != in_adj.num_edges:
            raise GraphFormatError(
                f"CSR has {out_adj.num_edges} edges but CSC has "
                f"{in_adj.num_edges}"
            )
        self.out_adj = out_adj
        self.in_adj = in_adj
        self.name = name

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        sources: np.ndarray,
        targets: np.ndarray,
        *,
        name: str = "",
    ) -> "Graph":
        """Build both directions from parallel edge arrays (no cleaning)."""
        out_adj = Adjacency.from_edges(num_vertices, sources, targets)
        in_adj = Adjacency.from_edges(num_vertices, targets, sources)
        return cls(out_adj, in_adj, name=name)

    # -- shape ---------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self.out_adj.num_vertices

    @property
    def num_edges(self) -> int:
        return self.out_adj.num_edges

    @property
    def average_degree(self) -> float:
        """``|E| / |V|`` — the LDV/HDV threshold (Section II-A)."""
        if self.num_vertices == 0:
            return 0.0
        return self.num_edges / self.num_vertices

    @property
    def hub_threshold(self) -> float:
        """``sqrt(|V|)`` — the hub-degree threshold (Section II-A)."""
        return math.sqrt(self.num_vertices)

    # -- degrees and classes ---------------------------------------------------

    def out_degrees(self) -> np.ndarray:
        return self.out_adj.degrees()

    def in_degrees(self) -> np.ndarray:
        return self.in_adj.degrees()

    def total_degrees(self) -> np.ndarray:
        """Undirected degree: in-degree + out-degree."""
        return self.out_degrees() + self.in_degrees()

    def in_hubs(self) -> np.ndarray:
        """Vertex IDs whose in-degree exceeds ``sqrt(n)``."""
        return np.flatnonzero(self.in_degrees() > self.hub_threshold)

    def out_hubs(self) -> np.ndarray:
        """Vertex IDs whose out-degree exceeds ``sqrt(n)``."""
        return np.flatnonzero(self.out_degrees() > self.hub_threshold)

    def high_degree_mask(self, direction: str = "in") -> np.ndarray:
        """Boolean mask of HDV (degree above the graph average degree)."""
        return self._degrees(direction) > self.average_degree

    def low_degree_mask(self, direction: str = "in") -> np.ndarray:
        """Boolean mask of LDV (degree at or below the average degree)."""
        return ~self.high_degree_mask(direction)

    def _degrees(self, direction: str) -> np.ndarray:
        if direction == "in":
            return self.in_degrees()
        if direction == "out":
            return self.out_degrees()
        if direction == "total":
            return self.total_degrees()
        raise GraphFormatError(f"unknown degree direction: {direction!r}")

    # -- edges and relabeling ----------------------------------------------------

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """All edges as ``(sources, targets)`` arrays (CSR order)."""
        return self.out_adj.edges()

    def permuted(self, relabeling: np.ndarray, *, name: str | None = None) -> "Graph":
        """Rebuild the graph in the new ID space of ``relabeling``.

        This mirrors the paper's workflow: an RA emits a relabeling array
        and the CSR/CSC representations are rebuilt from it.
        """
        relabeling = check_permutation(relabeling, self.num_vertices)
        src, dst = self.edges()
        new_src, new_dst = apply_to_edges(relabeling, src, dst)
        if name is None:
            name = self.name
        return Graph.from_edges(self.num_vertices, new_src, new_dst, name=name)

    def reversed(self) -> "Graph":
        """Graph with every edge direction flipped (swaps CSR and CSC)."""
        return Graph(self.in_adj, self.out_adj, name=self.name)

    # -- dunder -----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.out_adj == other.out_adj and self.in_adj == other.in_adj

    # Defining __eq__ without __hash__ sets __hash__ to None: unhashable.

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"Graph(n={self.num_vertices}, m={self.num_edges}{label})"
