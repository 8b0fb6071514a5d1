"""Simulation substrate: address space, cache/TLB, traces, SpMV, scheduling.

:func:`simulate_spmv` streams per-thread trace chunks through a
round-robin interleave into one shared cache (:class:`Replay`), which
also cuts the Effective Cache Size snapshots.
"""

from repro.sim.address_space import AddressSpace, Region
from repro.sim.cache import (
    CacheConfig,
    CacheSnapshot,
    Replay,
    SetAssociativeCache,
)
from repro.sim.ihtl import (
    IHTLSplit,
    hubs_for_cache,
    ihtl_trace,
    simulate_ihtl,
    split_by_in_hubs,
)
from repro.sim.parallel import edge_balanced_partitions, interleave_stream
from repro.sim.scheduler import ScheduleResult, simulate_work_stealing
from repro.sim.simulator import (
    SimulationConfig,
    SimulationResult,
    simulate_spmv,
    simulate_spmv_streamed,
)
from repro.sim.spmv import pagerank
from repro.sim.stats import (
    LocalityTypeClassifier,
    LocalityTypeCounts,
    VertexAccessStats,
    attribute_random_accesses,
)
from repro.sim.tlb import TLBConfig, lines_to_pages, simulate_tlb
from repro.sim.trace import (
    MemoryTrace,
    concatenate_traces,
    spmv_trace,
    spmv_trace_chunks,
)

__all__ = [
    "AddressSpace",
    "Region",
    "CacheConfig",
    "CacheSnapshot",
    "Replay",
    "SetAssociativeCache",
    "IHTLSplit",
    "hubs_for_cache",
    "ihtl_trace",
    "simulate_ihtl",
    "split_by_in_hubs",
    "edge_balanced_partitions",
    "interleave_stream",
    "ScheduleResult",
    "simulate_work_stealing",
    "SimulationConfig",
    "SimulationResult",
    "simulate_spmv",
    "simulate_spmv_streamed",
    "pagerank",
    "LocalityTypeClassifier",
    "LocalityTypeCounts",
    "VertexAccessStats",
    "attribute_random_accesses",
    "TLBConfig",
    "lines_to_pages",
    "simulate_tlb",
    "MemoryTrace",
    "concatenate_traces",
    "spmv_trace",
    "spmv_trace_chunks",
]
