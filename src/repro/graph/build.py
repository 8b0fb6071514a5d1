"""Edge-list cleaning and graph construction.

The paper counts vertices *after removing zero-degree vertices* because
of their destructive effect on reordering quality (Table I caption).
:func:`build_graph` reproduces that pipeline: deduplicate edges, drop
self-loops on request, compact away zero-degree vertices, and construct
both adjacency directions.  Deduplication and both adjacency builds each
take one ``np.sort`` of packed int64 edge keys (see
:func:`repro.graph.csr._sort_edge_pairs`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.csr import _sort_edge_pairs
from repro.graph.graph import Graph

__all__ = ["BuildResult", "build_graph", "dedup_edges"]


@dataclass(frozen=True)
class BuildResult:
    """Outcome of :func:`build_graph`.

    Attributes
    ----------
    graph:
        The cleaned graph in the compacted ID space.
    old_to_new:
        Array indexed by original vertex ID; ``-1`` marks vertices that
        were removed (zero degree), otherwise the compacted ID.
    num_removed_vertices:
        Count of zero-degree vertices dropped.
    num_removed_edges:
        Count of duplicate (and, if requested, self-loop) edges dropped.
    """

    graph: Graph
    old_to_new: np.ndarray
    num_removed_vertices: int
    num_removed_edges: int


def dedup_edges(
    sources: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Remove duplicate directed edges, keeping one copy of each.

    The survivors come back sorted by ``(source, target)``.  IDs may be
    any int64 values, negative ones included, as long as the spread
    ``max - min + 1`` of all endpoints squared stays below ``2**63``.
    """
    sources = np.asarray(sources, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    if sources.shape != targets.shape or sources.ndim != 1:
        raise GraphFormatError("edge arrays must be 1-D and equal length")
    if sources.size == 0:
        return sources.copy(), targets.copy()
    lo = min(int(sources.min()), int(targets.min()))
    hi = max(int(sources.max()), int(targets.max()))
    return _sort_edge_pairs(sources, targets, lo, hi - lo + 1, unique=True)


def build_graph(
    num_vertices: int,
    sources: np.ndarray,
    targets: np.ndarray,
    *,
    name: str = "",
    dedup: bool = True,
    drop_self_loops: bool = False,
    drop_zero_degree: bool = True,
) -> BuildResult:
    """Clean an edge list and build a :class:`~repro.graph.graph.Graph`.

    Parameters mirror the preprocessing the paper applies to its datasets.
    Self-loop removal is off by default because SpMV tolerates them; RAs
    such as Rabbit-Order handle self-weights explicitly.
    """
    sources = np.asarray(sources, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    if sources.shape != targets.shape or sources.ndim != 1:
        raise GraphFormatError("edge arrays must be 1-D and equal length")
    if sources.size and (
        min(sources.min(), targets.min()) < 0
        or max(sources.max(), targets.max()) >= num_vertices
    ):
        raise GraphFormatError(f"edge endpoint outside [0, {num_vertices})")

    original_edge_count = sources.shape[0]
    if drop_self_loops:
        keep = sources != targets
        sources, targets = sources[keep], targets[keep]
    if dedup:
        sources, targets = dedup_edges(sources, targets)
    removed_edges = original_edge_count - sources.shape[0]

    if drop_zero_degree:
        # Renumber the vertices with degree > 0, keeping their order.
        used = np.zeros(num_vertices, dtype=bool)
        used[sources] = True
        used[targets] = True
        survivors = np.flatnonzero(used)
        new_n = survivors.shape[0]
        old_to_new = np.full(num_vertices, -1, dtype=np.int64)
        old_to_new[survivors] = np.arange(new_n, dtype=np.int64)
        sources, targets = old_to_new[sources], old_to_new[targets]
    else:
        new_n = num_vertices
        old_to_new = np.arange(num_vertices, dtype=np.int64)

    graph = Graph.from_edges(new_n, sources, targets, name=name)
    return BuildResult(
        graph=graph,
        old_to_new=old_to_new,
        num_removed_vertices=num_vertices - new_n,
        num_removed_edges=removed_edges,
    )
