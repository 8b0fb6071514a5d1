"""Misses to the data of high-degree vertices (Section VI-B, Table III).

Counts, from a simulation, how many misses occur while *accessing the
data of* vertices whose degree exceeds a threshold.  The relevant degree
is the access frequency of a vertex's data: the out-degree in a pull
traversal (a vertex's data is read once per out-neighbour).

The paper uses these counts ("reloads") to show that GOrder reduces
reloads of moderately-high-degree vertices by allowing the very hottest
hubs to be reloaded more often — trading hub residency for broader
temporal reuse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.simulator import SimulationResult

__all__ = ["HubMissCount", "hub_data_misses"]


@dataclass(frozen=True)
class HubMissCount:
    """Misses/accesses to data of vertices above a degree threshold."""

    min_degree: int
    num_vertices_above: int
    misses: int
    accesses: int

    @property
    def miss_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses


def hub_data_misses(result: SimulationResult, min_degree: int) -> HubMissCount:
    """Count misses to data of vertices with degree > ``min_degree``."""
    stats = result.random_stats(by="read")
    degrees = (
        result.out_degrees
        if result.config.direction == "pull"
        else result.in_degrees
    )
    mask = degrees > min_degree
    return HubMissCount(
        min_degree=min_degree,
        num_vertices_above=int(mask.sum()),
        misses=int(stats.misses[mask].sum()),
        accesses=int(stats.accesses[mask].sum()),
    )
