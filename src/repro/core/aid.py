"""Neighbour-to-Neighbour Average ID Distance (N2N AID), Section V-A.

AID is the paper's spatial-locality metric: for a vertex ``v`` with
neighbour IDs sorted ascending,

    AID(v) = sum_{i=2..|N_v|} |N_{v,i} - N_{v,i-1}|  /  |N_v|

Lower AID means a reordering packed the vertex's neighbours into a
narrow ID range, which tends to pack their data onto fewer cache lines
(locality type I).  For a pull SpMV only in-neighbours matter.

The computation is ``O(|E|)`` time, matching the complexity the paper
claims, because neighbour lists are stored sorted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError
from repro.graph.graph import Graph

from repro.core.binning import DegreeBins, log_bins

__all__ = ["aid_per_vertex", "AIDDistribution", "VertexAID", "aid_degree_distribution"]


def aid_per_vertex(graph: Graph, *, direction: str = "in") -> np.ndarray:
    """AID of every vertex (``float64``; NaN for degree-0 vertices).

    A vertex with exactly one neighbour has an empty difference sum and
    therefore AID 0, per Equation 1.
    """
    if direction == "in":
        adj = graph.in_adj
    elif direction == "out":
        adj = graph.out_adj
    else:
        raise ReproError(f"direction must be 'in' or 'out', got {direction!r}")

    n = adj.num_vertices
    targets = adj.targets
    degrees = adj.degrees()
    if targets.size == 0:
        return np.full(n, np.nan)

    # Per-edge gap to the previous neighbour in the same (sorted) list;
    # the first edge of each vertex contributes zero.
    gaps = np.zeros(targets.shape[0], dtype=np.float64)
    gaps[1:] = np.abs(targets[1:] - targets[:-1])
    starts = adj.offsets[:-1]
    gaps[starts[(starts > 0) & (starts < targets.shape[0])]] = 0.0
    # Vertices with offsets[v] == 0 start at position 0, already zero.

    owners = adj.edge_sources()
    sums = np.bincount(owners, weights=gaps, minlength=n)
    with np.errstate(invalid="ignore", divide="ignore"):
        aid = np.where(degrees > 0, sums / np.maximum(degrees, 1), np.nan)
    return aid


@dataclass(frozen=True)
class AIDDistribution:
    """AID averaged per degree bin (the Figure 3 series)."""

    bins: DegreeBins
    mean_aid: np.ndarray
    vertex_counts: np.ndarray

    def series(self) -> tuple[np.ndarray, np.ndarray]:
        """(degree bin centers, mean AID) with empty bins dropped."""
        mask = self.vertex_counts > 0
        return self.bins.centers()[mask], self.mean_aid[mask]


@dataclass(frozen=True)
class VertexAID:
    """Per-vertex AID and same-direction degree, in the graph's ID order.

    The O(V) input of every AID figure: :meth:`distribution` bins it
    without the graph, bit-identically to :func:`aid_degree_distribution`.
    """

    aid: np.ndarray
    degrees: np.ndarray

    @classmethod
    def of(cls, graph: Graph, *, direction: str = "in") -> "VertexAID":
        aid = aid_per_vertex(graph, direction=direction)
        degrees = graph.in_degrees() if direction == "in" else graph.out_degrees()
        return cls(aid=aid, degrees=degrees)

    def distribution(self, bins: DegreeBins | None = None) -> AIDDistribution:
        """Degree distribution of AID (Figure 3): the mean AID of the
        vertices whose degree falls in each bin."""
        aid, degrees = self.aid, self.degrees
        if bins is None:
            bins = log_bins(max(1, int(degrees.max()) if degrees.size else 1))
        idx = bins.index_of(degrees)
        valid = (idx >= 0) & ~np.isnan(aid)
        counts = np.bincount(idx[valid], minlength=bins.num_bins).astype(np.int64)
        sums = np.bincount(idx[valid], weights=aid[valid], minlength=bins.num_bins)
        with np.errstate(invalid="ignore", divide="ignore"):
            mean = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
        return AIDDistribution(bins=bins, mean_aid=mean, vertex_counts=counts)


def aid_degree_distribution(
    graph: Graph, *, direction: str = "in", bins: DegreeBins | None = None
) -> AIDDistribution:
    """Degree distribution of AID (Figure 3) over ``graph``'s vertices."""
    return VertexAID.of(graph, direction=direction).distribution(bins)
