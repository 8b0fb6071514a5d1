"""iHTL-style hybrid traversal (Section VIII-A of the paper).

The paper's answer to the hub locality problem RAs cannot solve: iHTL
("in-Hub Temporal Locality", the authors' ICPP'21 system) splits the
graph by *destination*.  Edges into the top in-hubs form dense *flipped
blocks* processed in push direction — their random writes land on the
small, cache-resident hub set — while the remaining *sparse block* is
processed in the usual pull direction.  Unlike RAs, iHTL sizes the hub
set from the cache capacity, "optimizing cache capacity utilization".

This module builds the corresponding access trace so the hybrid can be
simulated and compared against pure pull/push on any graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.graph.graph import Graph

from repro.sim.address_space import VERTEX_DATA_BYTES, AddressSpace, Region
from repro.sim.cache import CacheConfig, SetAssociativeCache
from repro.sim.trace import MemoryTrace, concatenate_traces, spmv_trace

__all__ = [
    "IHTLSplit",
    "IHTLResult",
    "hubs_for_cache",
    "split_by_in_hubs",
    "ihtl_trace",
    "simulate_ihtl",
]

# Share of the cache the hub accumulators may fill; the rest is left to
# the streamed topology.
HUB_CACHE_FRACTION = 0.5


@dataclass(frozen=True)
class IHTLSplit:
    """Graph split into flipped (into-hub) and sparse sub-graphs."""

    hubs: np.ndarray
    flipped: Graph
    sparse: Graph

    @property
    def num_hubs(self) -> int:
        return self.hubs.shape[0]

    @property
    def flipped_edges(self) -> int:
        return self.flipped.num_edges

    @property
    def sparse_edges(self) -> int:
        return self.sparse.num_edges


def hubs_for_cache(graph: Graph, cache: CacheConfig) -> int:
    """Number of in-hubs whose data fits in ``HUB_CACHE_FRACTION`` of the
    cache.

    iHTL's cache-aware selection: keep the flipped blocks' accumulators
    resident while leaving room for the streamed topology.
    """
    budget = int(cache.capacity_bytes * HUB_CACHE_FRACTION / VERTEX_DATA_BYTES)
    return max(1, min(budget, graph.num_vertices))


def split_by_in_hubs(graph: Graph, num_hubs: int) -> IHTLSplit:
    """Split edges by whether their destination is a top in-hub.

    Vertex IDs are preserved in both sub-graphs so the two traversal
    phases share one address space.
    """
    if not 0 < num_hubs <= graph.num_vertices:
        raise SimulationError(
            f"num_hubs must be in [1, {graph.num_vertices}], got {num_hubs}"
        )
    in_deg = graph.in_degrees()
    hubs = np.argpartition(-in_deg, num_hubs - 1)[:num_hubs]
    hubs = hubs[np.lexsort((hubs, -in_deg[hubs]))].astype(np.int64)
    is_hub = np.zeros(graph.num_vertices, dtype=bool)
    is_hub[hubs] = True

    src, dst = graph.edges()
    to_hub = is_hub[dst]
    n = graph.num_vertices
    flipped = Graph.from_edges(n, src[to_hub], dst[to_hub], name=f"{graph.name}:flipped")
    sparse = Graph.from_edges(n, src[~to_hub], dst[~to_hub], name=f"{graph.name}:sparse")
    return IHTLSplit(hubs=hubs, flipped=flipped, sparse=sparse)


def ihtl_trace(
    graph: Graph, num_hubs: int, space: AddressSpace | None = None
) -> tuple[MemoryTrace, IHTLSplit]:
    """Access trace of the iHTL hybrid traversal.

    Phase 1 pushes the flipped blocks (random writes hit only the hub
    accumulators); phase 2 pulls the sparse block as usual.
    """
    if space is None:
        space = AddressSpace(graph.num_vertices, graph.num_edges)
    split = split_by_in_hubs(graph, num_hubs)
    flipped_trace = spmv_trace(split.flipped, space, direction="push")
    sparse_trace = spmv_trace(split.sparse, space, direction="pull")
    return concatenate_traces([flipped_trace, sparse_trace]), split


@dataclass(frozen=True)
class IHTLResult:
    """Simulated miss counts of one iHTL traversal."""

    split: IHTLSplit
    l3_misses: int
    num_accesses: int
    random_accesses: int
    random_misses: int

    @property
    def random_miss_rate(self) -> float:
        if self.random_accesses == 0:
            return 0.0
        return self.random_misses / self.random_accesses


def simulate_ihtl(
    graph: Graph,
    cache: CacheConfig,
    *,
    num_hubs: int | None = None,
) -> IHTLResult:
    """Simulate the hybrid traversal through a fresh cache.

    ``num_hubs`` defaults to the cache-aware selection of
    :func:`hubs_for_cache`.
    """
    if num_hubs is None:
        num_hubs = hubs_for_cache(graph, cache)
    space = AddressSpace(graph.num_vertices, graph.num_edges,
                         line_size=cache.line_size)
    trace, split = ihtl_trace(graph, num_hubs, space)
    outcome = SetAssociativeCache(cache).simulate(trace.lines)
    random_mask = (trace.kinds == Region.VERTEX_DATA) | (
        trace.kinds == Region.VERTEX_OUT
    )
    # Sequential own-vertex accesses also live in these regions; the
    # per-edge random accesses are the ones with a read_vertex set.
    random_mask &= trace.read_vertex >= 0
    random_accesses = int(random_mask.sum())
    random_misses = random_accesses - int(outcome.hits[random_mask].sum())
    return IHTLResult(
        split=split,
        l3_misses=outcome.num_misses,
        num_accesses=outcome.num_accesses,
        random_accesses=random_accesses,
        random_misses=random_misses,
    )
