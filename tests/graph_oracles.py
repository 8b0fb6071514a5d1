"""Reference copies of graph construction, kept as test oracles.

Each function below is the straightforward formulation the packed-key
construction in :mod:`repro.graph.csr` and :mod:`repro.graph.build`
must match bit for bit: the CSR build that orders each neighbour list
with a two-key ``np.lexsort``, edge deduplication by
``np.unique(axis=0)`` over ``(source, target)`` rows, the graph
constructors and relabeling built from them, and connected components
by label propagation over every edge until no label moves.  They are
not imported by ``src/`` and are never tuned for speed.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.components import ComponentResult
from repro.graph.csr import Adjacency
from repro.graph.graph import Graph
from repro.graph.permute import apply_to_edges, check_permutation

__all__ = [
    "adjacency_oracle",
    "components_oracle",
    "dedup_edges_oracle",
    "graph_oracle",
    "permuted_oracle",
]


def adjacency_oracle(
    num_vertices: int, sources: np.ndarray, targets: np.ndarray
) -> Adjacency:
    """``Adjacency.from_edges`` ordering each neighbour list by ``lexsort``."""
    if num_vertices < 0:
        raise GraphFormatError(f"negative vertex count: {num_vertices}")
    sources = np.asarray(sources, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    if sources.shape != targets.shape or sources.ndim != 1:
        raise GraphFormatError(
            f"edge arrays must be 1-D and equal length, got shapes "
            f"{sources.shape} and {targets.shape}"
        )
    if sources.size:
        lo = min(int(sources.min()), int(targets.min()))
        hi = max(int(sources.max()), int(targets.max()))
        if lo < 0 or hi >= num_vertices:
            raise GraphFormatError(
                f"edge endpoint out of range [0, {num_vertices}): "
                f"saw IDs in [{lo}, {hi}]"
            )
    degrees = np.bincount(sources, minlength=num_vertices).astype(np.int64)
    offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    # Sorting by (source, target) groups each neighbour list and
    # orders it ascending in one pass.
    order = np.lexsort((targets, sources))
    return Adjacency(offsets, targets[order], validate=False)


def dedup_edges_oracle(
    sources: np.ndarray, targets: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """``dedup_edges`` by ``np.unique`` over stacked ``(source, target)`` rows."""
    sources = np.asarray(sources, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    if sources.size == 0:
        return sources.copy(), targets.copy()
    pairs = np.stack([sources, targets], axis=1)
    unique = np.unique(pairs, axis=0)
    return unique[:, 0], unique[:, 1]


def graph_oracle(
    num_vertices: int, sources: np.ndarray, targets: np.ndarray, *, name: str = ""
) -> Graph:
    """``Graph.from_edges`` with both directions built by the oracle."""
    out_adj = adjacency_oracle(num_vertices, sources, targets)
    in_adj = adjacency_oracle(num_vertices, targets, sources)
    return Graph(out_adj, in_adj, name=name)


def permuted_oracle(graph: Graph, relabeling: np.ndarray) -> Graph:
    """``Graph.permuted`` rebuilt through :func:`graph_oracle`."""
    relabeling = check_permutation(relabeling, graph.num_vertices)
    src, dst = graph.edges()
    new_src, new_dst = apply_to_edges(relabeling, src, dst)
    return graph_oracle(graph.num_vertices, new_src, new_dst, name=graph.name)


def components_oracle(
    num_vertices: int,
    sources: np.ndarray,
    targets: np.ndarray,
    *,
    active: "np.ndarray | None" = None,
) -> ComponentResult:
    """``connected_components`` propagating labels over all edges each round."""
    sources = np.asarray(sources, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    if active is not None:
        active = np.asarray(active, dtype=bool)
        keep = active[sources] & active[targets]
        sources, targets = sources[keep], targets[keep]

    labels = np.arange(num_vertices, dtype=np.int64)
    while True:
        edge_min = np.minimum(labels[sources], labels[targets])
        before = labels.copy()
        np.minimum.at(labels, sources, edge_min)
        np.minimum.at(labels, targets, edge_min)
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped
        if np.array_equal(labels, before):
            break

    if active is not None:
        labels[~active] = -1
        member_mask = active
    else:
        member_mask = np.ones(num_vertices, dtype=bool)
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
