"""Edge-list generators for the test fixtures.

These are not dataset stand-ins; they provide controlled structures
(fixed-degree rings, planted communities) against which metric
implementations and reordering algorithms can be checked by hand.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphFormatError


def ring_edges(num_vertices: int, hops: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic ring: edges ``v -> (v + h) mod n`` for h in 1..hops.

    Every vertex has in-degree == out-degree == ``hops``, making locality
    metrics exactly computable by hand in tests.
    """
    if num_vertices <= 0:
        raise GraphFormatError("ring needs at least one vertex")
    if hops < 1 or hops >= num_vertices:
        raise GraphFormatError(f"hops must be in [1, {num_vertices}), got {hops}")
    vertices = np.arange(num_vertices, dtype=np.int64)
    sources = np.tile(vertices, hops)
    offsets = np.repeat(np.arange(1, hops + 1, dtype=np.int64), num_vertices)
    targets = (sources + offsets) % num_vertices
    return sources, targets


def planted_partition_edges(
    num_communities: int,
    community_size: int,
    intra_edges_per_vertex: int,
    inter_edges_per_vertex: int,
    *,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Communities with dense intra- and sparse inter-community edges.

    Ground-truth community structure for testing the community-oriented
    RAs (Rabbit-Order should co-locate each planted block).
    """
    if num_communities <= 0 or community_size <= 0:
        raise GraphFormatError("need at least one community with one vertex")
    n = num_communities * community_size
    rng = np.random.default_rng(seed)
    community = np.repeat(np.arange(num_communities), community_size)
    vertices = np.arange(n, dtype=np.int64)

    intra_src = np.repeat(vertices, intra_edges_per_vertex)
    local = rng.integers(0, community_size, size=intra_src.size, dtype=np.int64)
    intra_dst = community[intra_src] * community_size + local

    inter_src = np.repeat(vertices, inter_edges_per_vertex)
    inter_dst = rng.integers(0, n, size=inter_src.size, dtype=np.int64)

    return (
        np.concatenate([intra_src, inter_src]),
        np.concatenate([intra_dst, inter_dst]),
    )
