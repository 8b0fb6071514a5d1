"""Connected components over the undirected view of a graph.

SlashBurn (Section IV-A of the paper) repeatedly removes hubs and finds
the connected components of the remainder, recursing on the giant
connected component (GCC).  This module provides a vectorized
hook-and-compress CC that is fast on the low-diameter power-law graphs
and on the hub-stripped residues SlashBurn produces: each round hooks
roots along edges, compresses every label to its root, and contracts
the edge list to the edges still joining two roots, so later rounds
scan only the edges between the trees built so far.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GraphFormatError

__all__ = ["ComponentResult", "connected_components"]


@dataclass(frozen=True)
class ComponentResult:
    """Labels plus summary statistics of a components run.

    ``labels[v]`` is the component ID of vertex ``v`` (component IDs are
    contiguous, ordered by first appearance).  ``sizes[c]`` counts the
    vertices in component ``c`` and ``edge_counts[c]`` the edges whose
    endpoints both lie in ``c``.
    """

    labels: np.ndarray
    sizes: np.ndarray
    edge_counts: np.ndarray

    @property
    def num_components(self) -> int:
        return self.sizes.shape[0]

    def giant_component_id(self, by: str = "edges") -> int:
        """Component with most edges (paper's GCC definition) or vertices."""
        if self.num_components == 0:
            raise GraphFormatError("graph has no components")
        if by == "edges":
            # Break edge-count ties by vertex count for determinism.
            key = self.edge_counts * (self.sizes.max() + 1) + self.sizes
        elif by == "vertices":
            key = self.sizes
        else:
            raise GraphFormatError(f"unknown GCC criterion: {by!r}")
        return int(np.argmax(key))


def connected_components(
    num_vertices: int,
    sources: np.ndarray,
    targets: np.ndarray,
    *,
    active: np.ndarray | None = None,
) -> ComponentResult:
    """Undirected connected components by hooking, pointer jumping and contraction.

    Parameters
    ----------
    num_vertices, sources, targets:
        Graph as parallel edge arrays; direction is ignored.
    active:
        Optional boolean mask; inactive vertices are excluded (edges with
        an inactive endpoint are ignored, each inactive vertex receives
        label ``-1``).  This is how SlashBurn removes hubs without
        rebuilding the edge list for them.
    """
    sources = np.asarray(sources, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    if active is not None:
        active = np.asarray(active, dtype=bool)
        if active.shape[0] != num_vertices:
            raise GraphFormatError("active mask length must equal num_vertices")
        keep = active[sources] & active[targets]
        sources, targets = sources[keep], targets[keep]

    # Every label is a vertex of the same component and no larger than
    # its own vertex, and only ever decreases; so the loop's fixed point
    # labels each component with its smallest vertex ID.
    labels = np.arange(num_vertices, dtype=np.int64)
    src, dst = sources, targets
    while src.size:
        # Hook: src and dst are roots here; each larger root takes the
        # smallest root it shares an edge with.
        np.minimum.at(labels, np.maximum(src, dst), np.minimum(src, dst))
        # Compress: jump each label to its label's label until stable.
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped
        # Contract: edges between roots, minus those now inside one tree.
        src, dst = labels[src], labels[dst]
        joins = src != dst
        src, dst = src[joins], dst[joins]

    if active is not None:
        labels[~active] = -1
        member_mask = active
    else:
        member_mask = np.ones(num_vertices, dtype=bool)

    # Renumber component roots to contiguous IDs ordered by first member.
    members = np.flatnonzero(member_mask)
    if members.size == 0:
        return ComponentResult(
            labels=labels,
            sizes=np.zeros(0, dtype=np.int64),
            edge_counts=np.zeros(0, dtype=np.int64),
        )
    roots, contiguous = np.unique(labels[members], return_inverse=True)
    final = labels.copy()
    final[members] = contiguous
    sizes = np.bincount(contiguous, minlength=roots.shape[0]).astype(np.int64)
    if sources.size:
        edge_counts = np.bincount(
            final[sources], minlength=roots.shape[0]
        ).astype(np.int64)
    else:
        edge_counts = np.zeros(roots.shape[0], dtype=np.int64)
    return ComponentResult(labels=final, sizes=sizes, edge_counts=edge_counts)
