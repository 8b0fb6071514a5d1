"""Reference copies of graph construction, kept as test oracles.

Each function below is the straightforward formulation the packed-key
construction in :mod:`repro.graph.csr` and :mod:`repro.graph.build`
must match bit for bit: the CSR build that orders each neighbour list
with a two-key ``np.lexsort``, edge deduplication by
``np.unique(axis=0)`` over ``(source, target)`` rows, and the graph
constructors and relabeling built from them.  They are not imported by
``src/`` and are never tuned for speed.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.csr import Adjacency
from repro.graph.graph import Graph
from repro.graph.permute import apply_to_edges, check_permutation

__all__ = [
    "adjacency_oracle",
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
