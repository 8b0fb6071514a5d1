"""Worker-side job execution: the replay-safe process-pool entry point.

:func:`execute_job` is what the service's bounded worker pool runs.  It
mirrors ``run_experiments(executor="process")`` (the harness's process
fan-out): each worker rebuilds a store-backed
:class:`~repro.bench.workloads.Workloads` cache, and the
content-addressed store is the sharing mechanism — identical jobs
across workers, requests, or server restarts resolve to warm artifacts
with zero recomputation.

The entry point is listed under ``effects-replay-safe`` in
``[tool.repro-lint]``, so RL007 audits it like the shard workers:
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
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.bench.workloads import Workloads
from repro.core.aid import aid_degree_distribution, aid_per_vertex
from repro.core.ecs import ECSMeasurement, ecs_from_result
from repro.core.missdist import miss_rate_degree_distribution
from repro.errors import ServeError
from repro.generate.datasets import scale_factor
from repro.graph.graph import Graph
from repro.lint.contracts import declares_effects
from repro.reorder import ReorderResult, get_algorithm
from repro.serve.jobs import JOB_KINDS
from repro.sim.simulator import SimulationConfig, SimulationResult, simulate_spmv
from repro.store.memo import cached_stage
from repro.store.serializers import StoredSimulation
from repro.store.store import ArtifactStore

__all__ = ["execute_job"]

#: Code scope of the serve-owned stages below — the same modules the
#: workloads stages version, so serve artifacts self-invalidate on the
#: same edits.
_STAGE_CODE = ("repro.generate", "repro.graph", "repro.reorder", "repro.sim")


# -- serve-owned cached stages ----------------------------------------------
#
# Reorder jobs on registry datasets flow through the *workloads* stages
# (shared with the experiment harness, so a benchmark's artifacts warm
# the service and vice versa).  Jobs that differ from the harness's
# fixed simulation shape — a chosen policy/pressure, or a graph
# submitted by fingerprint — get their own stages with those choices in
# the key, because the workloads keys do not carry them.  Upstream
# inputs arrive as loaders that only a store miss calls.


@cached_stage(
    "reordering",
    code=_STAGE_CODE,
    key=lambda load_graph, graph_key, algorithm, params: {
        "graph_fingerprint": graph_key,
        "algorithm": algorithm,
        "params": params,
    },
)
def _stored_reordering_stage(
    load_graph: Callable[[], Graph],
    graph_key: str,
    algorithm: str,
    params: Dict[str, Any],
) -> ReorderResult:
    return get_algorithm(algorithm, **params)(load_graph())


@cached_stage(
    "reordered-graph",
    code=_STAGE_CODE,
    key=lambda load_graph, load_result, graph_key, algorithm, params: {
        "graph_fingerprint": graph_key,
        "algorithm": algorithm,
        "params": params,
    },
)
def _stored_reordered_graph_stage(
    load_graph: Callable[[], Graph],
    load_result: Callable[[], ReorderResult],
    graph_key: str,
    algorithm: str,
    params: Dict[str, Any],
) -> Graph:
    result: ReorderResult = load_result()
    return result.apply(load_graph())


@cached_stage(
    "simulation",
    code=_STAGE_CODE,
    key=lambda graph, config, identity: {**identity, "scale": scale_factor()},
    encode=StoredSimulation.from_result,
    decode=lambda stored, graph, config, identity: stored.to_result(graph, config),
)
def _serve_simulation_stage(
    graph: Graph, config: SimulationConfig, identity: Dict[str, Any]
) -> SimulationResult:
    return simulate_spmv(graph, config)


# -- graph resolution --------------------------------------------------------


def _stored_graph(workloads: Workloads, graph_key: str) -> Graph:
    store = workloads.store
    if store is None:
        raise ServeError(
            "graph-by-fingerprint jobs need a server-side artifact store"
        )
    graph = store.get(graph_key, "graph")
    if graph is None:
        raise ServeError(f"no stored graph artifact with key {graph_key!r}")
    return graph


def _stored_reordering(
    workloads: Workloads, graph_key: str, algorithm: str, params: Dict[str, Any]
) -> ReorderResult:
    return _stored_reordering_stage(
        lambda: _stored_graph(workloads, graph_key), graph_key, algorithm, params,
        **_stage_kwargs(workloads),
    )


def _reordered_graph(workloads: Workloads, job: Dict[str, Any]) -> Graph:
    dataset = job.get("dataset")
    algorithm = job["algorithm"]
    params: Dict[str, Any] = job["params"]
    if dataset is not None:
        return workloads.reordered_graph(dataset, algorithm, **params)
    graph_key: str = job["graph_fingerprint"]
    if algorithm == "identity":
        return _stored_graph(workloads, graph_key)
    return _stored_reordered_graph_stage(
        lambda: _stored_graph(workloads, graph_key),
        lambda: _stored_reordering(workloads, graph_key, algorithm, params),
        graph_key, algorithm, params,
        **_stage_kwargs(workloads),
    )


def _stage_kwargs(workloads: Workloads) -> Dict[str, Any]:
    return {
        "store": workloads.store,
        "refresh": False,
        "manifest": workloads.manifest,
    }


def _scan_config(
    graph: Graph, *, policy: str, direction: str, pressure: float
) -> SimulationConfig:
    """The job's cache geometry, with ECS scans enabled (DESIGN.md §13)."""
    base = SimulationConfig.scaled_for(
        graph, direction=direction, policy=policy, pressure=pressure
    )
    approx_len = graph.num_edges + graph.num_vertices // 4
    return SimulationConfig(
        cache=base.cache,
        tlb=base.tlb,
        num_threads=base.num_threads,
        interleave_interval=base.interleave_interval,
        scan_interval=max(1, approx_len // 64),
        direction=base.direction,
        promote_sequential=base.promote_sequential,
        timing=base.timing,
    )


def _simulation(workloads: Workloads, job: Dict[str, Any]) -> SimulationResult:
    graph = _reordered_graph(workloads, job)
    config = _scan_config(
        graph,
        policy=job["policy"],
        direction=job["direction"],
        pressure=job["pressure"],
    )
    identity = {
        "graph": job.get("dataset") or job["graph_fingerprint"],
        "algorithm": job["algorithm"],
        "params": job["params"],
        "policy": job["policy"],
        "direction": job["direction"],
        "pressure": job["pressure"],
    }
    return _serve_simulation_stage(
        graph, config, identity, **_stage_kwargs(workloads)
    )


# -- per-kind responses ------------------------------------------------------


def _reorder_response(workloads: Workloads, job: Dict[str, Any]) -> Dict[str, Any]:
    dataset = job.get("dataset")
    algorithm = job["algorithm"]
    params: Dict[str, Any] = job["params"]
    if dataset is not None:
        result = workloads.reordering(dataset, algorithm, **params)
    else:
        graph_key: str = job["graph_fingerprint"]
        if algorithm == "identity":
            graph = _stored_graph(workloads, graph_key)
            result = ReorderResult(
                algorithm="identity",
                relabeling=np.arange(graph.num_vertices, dtype=np.int64),
                preprocessing_seconds=0.0,
            )
        else:
            result = _stored_reordering(workloads, graph_key, algorithm, params)
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
    graph = _reordered_graph(workloads, job)
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
    kernel-equivalence and shard property suites.
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
