"""Simulation substrate: address space, cache/TLB, traces, SpMV, scheduling.

:func:`simulate_spmv` streams per-thread trace chunks through a
round-robin interleave into one shared cache
(:class:`repro.sim.cache.Replay`), which also cuts the Effective Cache
Size snapshots; the result keeps only their per-region line counts.
Locality types I–V read no hit bit, so
:func:`repro.sim.simulator.count_locality_types` classifies the same
merged stream with no cache replayed.
"""

from repro.sim.address_space import AddressSpace, Region
from repro.sim.cache import CacheConfig, SetAssociativeCache
from repro.sim.simulator import (
    SimulationConfig,
    simulate_spmv,
    simulate_spmv_streamed,
)
from repro.sim.trace import spmv_trace

__all__ = [
    "AddressSpace",
    "Region",
    "CacheConfig",
    "SetAssociativeCache",
    "SimulationConfig",
    "simulate_spmv",
    "simulate_spmv_streamed",
    "spmv_trace",
]
