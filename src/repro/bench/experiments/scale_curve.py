"""Scaling curve — locality metrics vs. graph size and effective diameter.

The paper's evaluation (and the follow-up diameter-dependence study,
arXiv 2111.12281) argues that reordering behaviour shifts with graph
*scale*: as the vertex working set outgrows the LLC the random-region
miss rate climbs, while the effective diameter of a scale-free graph
grows only logarithmically — so ever-larger graphs concentrate their
traffic on a structurally "small world" whose locality reordering can
still exploit.  This experiment walks an RM-family size ladder through
the streaming simulator (:func:`repro.sim.simulator.simulate_spmv`)
and records, per size: edge count, 90th-percentile effective diameter,
mean AID and the random-region miss rate.

The ladder doubles from ``base_vertices * REPRO_SCALE``; the default
tier keeps the run inside the tier-1 budget, and ``REPRO_SCALE=2048``
lifts the same curve into the 10⁷–10⁸-edge band (see
``SCALE_DATASETS``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.aid import aid_per_vertex
from repro.core.report import format_series
from repro.generate.datasets import SCALE_DATASETS, scale_factor
from repro.generate.rmat import rmat_edges
from repro.graph.build import build_graph
from repro.graph.diameter import effective_diameter
from repro.graph.graph import Graph
from repro.sim.simulator import SimulationConfig, simulate_spmv

from repro.bench.harness import ExperimentReport
from repro.bench.workloads import Workloads

#: Rungs on the doubling ladder.  Four octaves is enough to see the
#: working set cross the cache boundary at every tier.
NUM_SIZES = 4

#: Smallest rung at ``REPRO_SCALE=1`` (vertices).  The scale-tier spec
#: ``rmat-scale`` sits ~2^11 above this, so ``REPRO_SCALE=2048`` walks
#: the ladder straight into the 10⁷–10⁸-edge band.
BASE_VERTICES = 1 << 10


def ladder_sizes(scale: "float | None" = None) -> list[int]:
    """The vertex counts of the ladder, honouring ``REPRO_SCALE``."""
    if scale is None:
        scale = scale_factor()
    target = max(BASE_VERTICES, int(BASE_VERTICES * scale))
    base = 1 << max(10, int(round(math.log2(target))))
    return [base << i for i in range(NUM_SIZES)]


def build_ladder_graph(num_vertices: int) -> Graph:
    """The RM-family graph at one ladder rung (deterministic per size).

    ``tests/test_trace_stream.py`` replays one rung to check that the
    streamed simulation stays chunk-exact in bounded memory.
    """
    spec = SCALE_DATASETS["rmat-scale"]
    log_scale = int(round(math.log2(num_vertices)))
    num_edges = int(num_vertices * spec.average_degree)
    sources, targets = rmat_edges(log_scale, num_edges, seed=spec.seed)
    return build_graph(
        num_vertices, sources, targets, name=f"rmat-2^{log_scale}"
    ).graph


def measure_rung(graph: Graph, *, config: "SimulationConfig | None" = None) -> dict:
    """Structure + streamed-simulation metrics for one built graph."""
    diameter = effective_diameter(graph, percentile=0.9, num_sources=8, seed=7)
    aid = aid_per_vertex(graph)
    result = simulate_spmv(graph, config)
    return {
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "effective_diameter": float(diameter),
        "mean_aid": float(np.nanmean(aid)),
        "random_miss_rate": float(result.random_miss_rate),
        "miss_rate": float(result.l3_misses / max(1, result.num_accesses)),
    }


def run(workloads: Workloads) -> ExperimentReport:
    sizes = ladder_sizes()
    # Pin the cache geometry to the smallest rung so the ladder actually
    # walks the working set *across* the cache boundary — a cache scaled
    # per rung would hide exactly the effect the curve measures.  Rungs
    # are built one at a time and dropped: at large REPRO_SCALE holding
    # the whole ladder would defeat the streaming pipeline.
    config: "SimulationConfig | None" = None
    rows = []
    for n in sizes:
        graph = build_ladder_graph(n)
        if config is None:
            config = SimulationConfig.scaled_for(graph)
        rows.append(measure_rung(graph, config=config))
        del graph
    edges = np.array([row["num_edges"] for row in rows], dtype=np.float64)
    diam = np.array([row["effective_diameter"] for row in rows], dtype=np.float64)
    aid = np.array([row["mean_aid"] for row in rows], dtype=np.float64)
    miss = np.array([row["random_miss_rate"] for row in rows], dtype=np.float64)

    text = format_series(
        edges,
        {
            "EffDiam(0.9)": diam,
            "MeanAID": aid,
            "RandMissRate": miss,
        },
        x_label="edges",
        title="RM-family scaling curve (streamed simulation)",
        precision=2,
    )

    shape_checks = {
        # Vertex state outgrows the LLC as the ladder climbs, so the
        # random-region miss rate must end above where it started.
        "random miss rate climbs as the working set outgrows the cache": bool(
            miss[-1] > miss[0]
        ),
        # Random IDs spread neighbours across the whole ID range, so the
        # mean AID grows with the graph.
        "mean AID grows with graph size": bool(np.all(np.diff(aid) > 0)),
        # The 2111.12281 hypothesis: scale-free effective diameter grows
        # far slower than size — each doubling adds at most O(1) hops.
        "effective diameter grows sublinearly in size": bool(
            (diam[-1] / max(diam[0], 1e-9)) < (edges[-1] / edges[0]) ** 0.5
        ),
    }
    data = {
        "sizes": [int(n) for n in sizes],
        "rows": rows,
    }
    return ExperimentReport(
        experiment_id="scale_curve",
        title="Locality vs. scale and effective diameter (scaling curve)",
        text=text,
        data=data,
        shape_checks=shape_checks,
    )
