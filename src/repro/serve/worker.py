"""Worker-side job execution: the replay-safe process-pool entry point.

:func:`execute_job` is what the service's bounded worker pool runs.  It
mirrors ``run_experiments(executor="process")`` (the harness's process
fan-out): each worker rebuilds a store-backed
:class:`~repro.bench.workloads.Workloads` cache and runs the job
through its stages — the same stages, under the same keys, the
experiment harness uses.  A job names its graph by registry dataset or
by a stored graph's content key; both resolve to that graph's key, and
every downstream artifact is keyed by it, so the harness, dataset jobs
and graph-key jobs warm each other.  The content-addressed store is the
sharing mechanism: identical work across workers, requests, server
restarts or harness runs resolves to warm artifacts with zero
recomputation.

The entry point is listed under ``effects-replay-safe`` in
``[tool.repro-lint]``, so RL007 audits it as a process worker:
re-running a job must be undetectable.  The effects it reaches are
declared on :func:`_run_pipeline` and are replay-safe by construction:
store writes are content-addressed and atomic (a re-run rewrites
identical bytes), clock readings land only in provenance sidecars and
manifests, the single environment read (``REPRO_SCALE``) participates
in every content key, and the uuid draws name scratch files and run
ids only.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Optional

import numpy as np

from repro.bench.workloads import Workloads
from repro.core.aid import aid_degree_distribution, aid_per_vertex
from repro.core.ecs import ECSMeasurement, ecs_from_result
from repro.core.missdist import miss_rate_degree_distribution
from repro.errors import ServeError
from repro.lint.contracts import declares_effects
from repro.serve.jobs import JOB_KINDS
from repro.sim.simulator import SimulationResult
from repro.store.store import ArtifactStore

__all__ = ["execute_job"]


def _source(job: Dict[str, Any]) -> str:
    """The job's graph source: a registry dataset or a stored graph key."""
    source: str = job["dataset"] or job["graph_fingerprint"]
    return source


def _simulation(workloads: Workloads, job: Dict[str, Any]) -> SimulationResult:
    return workloads.simulation(
        _source(job),
        job["algorithm"],
        direction=job["direction"],
        policy=job["policy"],
        pressure=job["pressure"],
        params=job["params"],
    )


# -- per-kind responses ------------------------------------------------------


def _reorder_response(workloads: Workloads, job: Dict[str, Any]) -> Dict[str, Any]:
    result = workloads.reordering(_source(job), job["algorithm"], **job["params"])
    order = np.ascontiguousarray(result.relabeling)
    payload: Dict[str, Any] = {
        "algorithm": result.algorithm,
        "num_vertices": int(order.size),
        "preprocessing_seconds": float(result.preprocessing_seconds),
        "order_sha256": hashlib.sha256(order.tobytes()).hexdigest(),
    }
    if job["include_order"]:
        payload["order"] = order.tolist()
    return payload


def _ecs_payload(ecs: ECSMeasurement) -> Dict[str, Any]:
    return {
        "average_percent": float(ecs.average_percent),
        "final_percent": float(ecs.final_percent),
        "samples_percent": [float(v) for v in ecs.samples],
    }


def _simulate_response(workloads: Workloads, job: Dict[str, Any]) -> Dict[str, Any]:
    sim = _simulation(workloads, job)
    curve = miss_rate_degree_distribution(sim)
    centers, rates = curve.series()
    return {
        "num_accesses": int(sim.num_accesses),
        "l3_misses": int(sim.l3_misses),
        "tlb_misses": int(sim.tlb_misses),
        "miss_rate_percent": float(curve.overall_miss_rate_percent),
        "miss_rate_by_degree": {
            "degree": [float(v) for v in centers],
            "miss_rate_percent": [float(v) for v in rates],
        },
        "ecs": _ecs_payload(ecs_from_result(sim)),
    }


def _analyze_response(workloads: Workloads, job: Dict[str, Any]) -> Dict[str, Any]:
    graph = workloads.reordered_graph(
        _source(job), job["algorithm"], **job["params"]
    )
    aid_direction = "in" if job["direction"] == "pull" else "out"
    aid = aid_per_vertex(graph, direction=aid_direction)
    distribution = aid_degree_distribution(graph, direction=aid_direction)
    centers, mean_aid = distribution.series()
    sim = _simulation(workloads, job)
    finite = aid[np.isfinite(aid)]
    return {
        "num_vertices": int(graph.num_vertices),
        "num_edges": int(graph.num_edges),
        "aid": {
            "direction": aid_direction,
            "mean": float(finite.mean()) if finite.size else 0.0,
            "by_degree": {
                "degree": [float(v) for v in centers],
                "mean_aid": [float(v) for v in mean_aid],
            },
        },
        "miss_rate_percent": float(100.0 * sim.l3_misses / max(1, sim.num_accesses)),
        "ecs": _ecs_payload(ecs_from_result(sim)),
    }


# -- entry point -------------------------------------------------------------


@declares_effects("time", "rng-unseeded", "env-read", "dict-order-sensitive")
def _workloads_for(store_root: Optional[str]) -> Workloads:
    """Fresh worker-side workload cache over the shared store.

    Declared carve-outs: the run manifest draws a wall-clock stamp and a
    uuid for its *run id*, and the environment snapshot reads platform
    facts — provenance metadata only, never content.  One cache per job
    keeps workers stateless; artifact reuse lives entirely in the store.
    """
    store = ArtifactStore(store_root) if store_root is not None else None
    return Workloads(store=store)


@declares_effects(
    "time", "rng-unseeded", "env-read", "fs-write", "global-mutate",
    "thread-spawn", "dict-order-sensitive", "float-reduction-order",
)
def _run_pipeline(workloads: Workloads, job: Dict[str, Any]) -> Dict[str, Any]:
    """Dispatch one canonical job through the store-backed stages.

    Declared carve-outs, each replay-safe: ``fs-write`` is the
    content-addressed store committing artifacts (atomic, idempotent —
    a replay rewrites identical bytes); ``time``/``rng-unseeded`` are
    provenance clocks and scratch-file tokens; ``env-read`` is
    ``REPRO_SCALE``, fingerprinted into every key; the remaining bits
    are the simulator's internal bookkeeping, bit-exact by the
    kernel-equivalence and replay property suites.
    """
    kind = job["kind"]
    if kind == "reorder":
        return _reorder_response(workloads, job)
    if kind == "simulate":
        return _simulate_response(workloads, job)
    if kind == "analyze":
        return _analyze_response(workloads, job)
    raise ServeError(f"unknown job kind {kind!r}; expected one of {JOB_KINDS}")


def execute_job(job: Dict[str, Any], store_root: Optional[str]) -> Dict[str, Any]:
    """Process-pool entry point: run one canonical job to a JSON response.

    Returns the per-kind ``result`` plus stage accounting (store hits
    vs. computed) and the content keys of every artifact the job
    touched, so clients can ``GET /artifacts/<key>`` or resubmit a
    graph by fingerprint.
    """
    workloads = _workloads_for(store_root)
    result = _run_pipeline(workloads, job)
    manifest = workloads.manifest
    artifacts: Dict[str, str] = {}
    for record in manifest.records:
        if record.key and record.stage not in artifacts:
            artifacts[record.stage] = record.key
    return {
        "result": result,
        "stages": {
            "hits": manifest.hit_count(),
            "computed": manifest.computed_count(),
        },
        "artifacts": artifacts,
    }
