"""Experiment harness: run any paper table/figure and render its report.

Each experiment module under :mod:`repro.bench.experiments` exposes a
``run(workloads) -> ExperimentReport``; this module provides the report
type, a registry, and :func:`run_experiment` used by the benchmark
drivers, the examples and the CLI-style ``python -m``-ish entry points.
"""

from __future__ import annotations

import importlib
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from repro.errors import ExperimentError
from repro.obs import enabled as obs_enabled
from repro.obs import metrics as obs_metrics
from repro.obs import span
from repro.store.manifest import environment_snapshot
from repro.store.store import ArtifactStore
from repro.bench.workloads import Workloads, workloads as default_workloads

__all__ = [
    "ExperimentReport",
    "EXPERIMENTS",
    "run_experiment",
    "run_experiments",
    "experiment_ids",
]


@dataclass
class ExperimentReport:
    """Rendered experiment output plus its structured data.

    ``data`` is experiment-specific (rows, series, matrices) so tests
    and downstream tooling can assert on values instead of re-parsing
    the rendered text.  ``shape_checks`` maps each paper claim the
    experiment verifies to a boolean outcome.  ``duration_s`` and
    ``environment`` are provenance the harness fills in — the same
    schema store manifests use (:func:`repro.store.manifest.environment_snapshot`).
    ``metrics`` holds the counter increments this experiment caused
    (``sim.accesses``, ``store.hit``, ...) when tracing is enabled.
    """

    experiment_id: str
    title: str
    text: str
    data: dict = field(default_factory=dict)
    shape_checks: dict[str, bool] = field(default_factory=dict)
    duration_s: float = 0.0
    environment: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)

    @property
    def all_shapes_hold(self) -> bool:
        return all(self.shape_checks.values())

    def render(self) -> str:
        lines = [f"== {self.experiment_id}: {self.title} ==", self.text]
        if self.shape_checks:
            lines.append("")
            lines.append("Shape checks (paper claim -> holds?):")
            for claim, holds in self.shape_checks.items():
                lines.append(f"  [{'ok' if holds else 'MISMATCH'}] {claim}")
        return "\n".join(lines)


#: Experiment id -> module path (one per paper table and figure).
EXPERIMENTS: dict[str, str] = {
    "table1": "repro.bench.experiments.table1_datasets",
    "table2": "repro.bench.experiments.table2_preprocessing",
    "table3": "repro.bench.experiments.table3_hub_misses",
    "table4": "repro.bench.experiments.table4_spmv",
    "table5": "repro.bench.experiments.table5_ecs",
    "table6": "repro.bench.experiments.table6_push_pull",
    "table7": "repro.bench.experiments.table7_slashburn_pp",
    "fig1": "repro.bench.experiments.fig1_missrate",
    "fig2": "repro.bench.experiments.fig2_sb_gcc",
    "fig3": "repro.bench.experiments.fig3_aid",
    "fig4": "repro.bench.experiments.fig4_asymmetricity",
    "fig5": "repro.bench.experiments.fig5_degree_range",
    "fig6": "repro.bench.experiments.fig6_hub_coverage",
    "sec8_edr": "repro.bench.experiments.sec8_edr",
    "scale_curve": "repro.bench.experiments.scale_curve",
}


def experiment_ids() -> list[str]:
    """All runnable experiment IDs."""
    return list(EXPERIMENTS)


def run_experiment(
    experiment_id: str, workloads: Workloads | None = None
) -> ExperimentReport:
    """Run one experiment and return its report."""
    if experiment_id not in EXPERIMENTS:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; available: {experiment_ids()}"
        )
    module = importlib.import_module(EXPERIMENTS[experiment_id])
    if workloads is None:
        workloads = default_workloads
    before = obs_metrics.registry.snapshot() if obs_enabled() else {}
    start = time.perf_counter()
    with span(f"bench.{experiment_id}"):
        report = module.run(workloads)
    if not isinstance(report, ExperimentReport):
        raise ExperimentError(
            f"experiment {experiment_id!r} returned {type(report).__name__}, "
            "expected ExperimentReport"
        )
    report.duration_s = time.perf_counter() - start
    if not report.environment:
        report.environment = environment_snapshot()
    if obs_enabled():
        report.metrics = obs_metrics.registry.counter_delta(before)
    return report


_EXECUTORS = ("serial", "process")


def _run_in_worker(
    experiment_id: str, store_root: "str | None", refresh: bool
) -> ExperimentReport:
    """Process-pool entry point: rebuild a (store-backed) cache and run.

    Each worker re-derives its workloads, but with a store root the
    expensive stages come back from disk — so a process fan-out shares
    work through the artifact store instead of recomputing per worker.
    """
    workloads = None
    if store_root is not None:
        workloads = Workloads(store=ArtifactStore(store_root), refresh=refresh)
    return run_experiment(experiment_id, workloads)


def run_experiments(
    ids: "list[str] | None" = None,
    workloads: Workloads | None = None,
    *,
    executor: str = "serial",
    max_workers: int | None = None,
    store: ArtifactStore | None = None,
    refresh: bool = False,
) -> "dict[str, ExperimentReport]":
    """Run several experiments, optionally fanned out across workers.

    Parameters
    ----------
    ids:
        Experiment IDs to run (defaults to all registered experiments).
    workloads:
        Shared workload cache; only valid for the ``serial`` executor
        (process workers rebuild the default cache).
    executor:
        ``"serial"`` (default) runs in-process; ``"process"`` uses a
        ``ProcessPoolExecutor`` for full isolation at the cost of
        re-deriving workloads per worker.
    store:
        Attach an artifact store so every stage is memoized on disk.
        With the process executor the store *is* the sharing mechanism:
        workers pull stages other workers (or earlier runs) computed.
        Mutually exclusive with an explicit ``workloads``.
    refresh:
        Recompute every stage and overwrite its stored artifact.

    Returns reports keyed by experiment ID, in the order requested.
    Unknown IDs raise before anything runs.
    """
    if executor not in _EXECUTORS:
        raise ExperimentError(
            f"unknown executor {executor!r}; expected one of {_EXECUTORS}"
        )
    if store is not None and workloads is not None:
        raise ExperimentError(
            "pass either a workloads cache or a store (which builds one), not both"
        )
    if ids is None:
        ids = experiment_ids()
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        raise ExperimentError(
            f"unknown experiments {unknown!r}; available: {experiment_ids()}"
        )
    if executor == "serial":
        if workloads is None and store is not None:
            workloads = Workloads(store=store, refresh=refresh)
        return {i: run_experiment(i, workloads) for i in ids}
    if workloads is not None:
        raise ExperimentError(
            "a shared workloads cache cannot cross process boundaries; "
            "use executor='serial' with custom workloads, "
            "or pass a store for disk-level sharing"
        )
    store_root = str(store.root) if store is not None else None
    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        futures = {i: pool.submit(_run_in_worker, i, store_root, refresh) for i in ids}
        return {i: futures[i].result() for i in ids}
