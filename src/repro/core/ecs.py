"""Effective Cache Size (ECS), Section VI-F and Table V of the paper.

ECS is "the percentage of cache capacity dedicated to caching randomly
accessed data" — in SpMV, the share of resident lines holding the old
vertex data ``Di`` rather than streamed topology.  It is measured by
functional simulation with periodic scans of cache contents.

The paper's counter-intuitive finding, which the reproduction checks:
RAs with *worse* locality (SlashBurn) show the *largest* ECS, because
destroyed locality evicts topology lines faster; the RA with the best
locality usually has the lowest ECS.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.graph.graph import Graph
from repro.sim.address_space import AddressSpace
from repro.sim.simulator import SimulationConfig, SimulationResult

__all__ = ["ECSMeasurement", "ecs_from_result", "with_ecs_scans"]

NUM_ECS_SCANS = 64  # resident-set scans per traversal (Table V)


@dataclass(frozen=True)
class ECSMeasurement:
    """ECS samples over one traversal."""

    samples: np.ndarray
    scan_interval: int

    @property
    def average_percent(self) -> float:
        """The Table V number."""
        if self.samples.size == 0:
            raise SimulationError("no ECS samples collected")
        return float(self.samples.mean())

    @property
    def final_percent(self) -> float:
        return float(self.samples[-1])


def ecs_from_result(result: SimulationResult) -> ECSMeasurement:
    """Extract ECS from a simulation that was run with scans enabled."""
    samples = result.effective_cache_size_samples()
    if samples.size == 0:
        raise SimulationError(
            "simulation has no ECS scans; rerun with scan_interval > 0"
        )
    return ECSMeasurement(samples=samples, scan_interval=result.config.scan_interval)


def with_ecs_scans(
    graph: "Graph | AddressSpace", config: SimulationConfig
) -> SimulationConfig:
    """``config`` with about ``NUM_ECS_SCANS`` resident-set scans per
    traversal.

    A traversal issues about ``E + V // 4`` accesses (m random reads
    plus the sequential lines), so the scans are spaced that many
    accesses over ``NUM_ECS_SCANS`` apart.  Only the vertex and edge
    counts are read, so the address space of a stored run rebuilds its
    config.
    """
    approx_len = graph.num_edges + graph.num_vertices // 4
    return dataclasses.replace(
        config, scan_interval=max(1, approx_len // NUM_ECS_SCANS)
    )
