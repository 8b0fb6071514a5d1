"""Locality type classification (Section IV-D of the paper).

The paper identifies five patterns of vertex-data reuse in a parallel
SpMV traversal:

* **Type I** — spatial reuse *within* one vertex's neighbour list:
  consecutive neighbours of ``v`` share a cache line.
* **Type II** — temporal reuse across processed vertices: ``v`` and a
  subsequently processed vertex share a neighbour ``u``.
* **Type III** — spatio-temporal: distinct neighbours of subsequently
  processed vertices land on the same cache line.
* **Type IV** — like II but across *threads* through the shared cache.
* **Type V** — like III but across threads.

This module classifies every random-access *reuse* (an access to a line
that has been touched before) in a simulated trace by comparing it to
the most recent access to the same line
(:class:`repro.sim.stats.LocalityTypeClassifier`).  RAs target types
I-III; IV and V depend on partitioning and scheduling.
"""

from __future__ import annotations

import numpy as np

from repro.sim.address_space import Region
from repro.sim.stats import LocalityTypeClassifier, LocalityTypeCounts
from repro.sim.trace import MemoryTrace

__all__ = ["LocalityTypeCounts", "classify_locality_types"]


def classify_locality_types(
    trace: MemoryTrace,
    thread_ids: np.ndarray | None = None,
    *,
    random_region: int = Region.VERTEX_DATA,
) -> LocalityTypeCounts:
    """Classify every random-access reuse in a materialized trace.

    ``thread_ids`` is the per-access thread attribution produced by
    :func:`repro.sim.parallel.interleave_stream`; when omitted the trace
    is treated as single-threaded (types IV/V cannot occur).  A
    simulation classifies its own trace chunk by chunk with
    ``simulate_spmv(..., classify_locality=True)``.
    """
    classifier = LocalityTypeClassifier(trace.space, random_region)
    classifier.add(trace, thread_ids)
    return classifier.counts()
