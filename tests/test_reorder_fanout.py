"""The paper sweep's reorderings, computed in forked worker processes.

``Workloads._simulate_together`` computes its missing cells' default
reorderings in a fork pool before it simulates them.  The pool must
leave exactly what one :meth:`Workloads.reordering` call per cell
leaves: the same relabelings, the same stored artifacts under the same
keys and provenance, and the same manifest counts.  A traced run must
still show every RA's span, now under the sweep's span in one lane per
worker process.  An RA's time there is taken beside other RAs, so
table7 times its SlashBurn pair itself.  Failures are in
``tests/test_faults.py``.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from repro import obs
from repro.bench.harness import run_experiment
from repro.bench.workloads import (
    Workloads,
    _reorder_workers,
    fastest_preprocessing_seconds,
)
from repro.obs import metrics as obs_metrics
from repro.obs.export import chrome_trace_events, export_run
from repro.store.store import ArtifactStore

SOURCES = ("twtr-mini", "sk-mini")
ALGORITHMS = ("identity", "slashburn", "dbg", "rabbit")
#: The six non-identity RAs fig1 reorders with.
FIG1_REORDERINGS = ("slashburn", "gorder", "rabbit", "dbg", "community", "hisorder")


@pytest.fixture(autouse=True)
def tiny_scale(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.05")


@pytest.fixture
def clean_obs():
    obs.disable()
    obs.reset_all()
    yield
    obs.disable()
    obs.reset_all()


def _stored(store: ArtifactStore) -> dict:
    """Stored reordering key -> the provenance that does not time anything."""
    return {
        info.key: {k: v for k, v in info.provenance.items() if k != "duration_s"}
        for info in store.infos("reordering")
    }


def test_cold_pool_leaves_what_per_cell_reorderings_leave(tmp_path):
    pooled = Workloads(store=ArtifactStore(tmp_path / "pooled"))
    pooled._simulate_together(SOURCES, ALGORITHMS)
    serial = Workloads(store=ArtifactStore(tmp_path / "serial"))
    for source in SOURCES:
        for algorithm in ALGORITHMS[1:]:
            np.testing.assert_array_equal(
                pooled.reordering(source, algorithm).relabeling,
                serial.reordering(source, algorithm).relabeling,
            )
    assert len(_stored(pooled.store)) == len(SOURCES) * (len(ALGORITHMS) - 1)
    assert _stored(pooled.store) == _stored(serial.store)
    assert pooled.stats["reordering"] == serial.stats["reordering"] == {
        "hits": 0, "computed": len(SOURCES) * (len(ALGORITHMS) - 1),
    }

    def keys(workloads):
        return sorted(
            (r.key, r.status, repr(r.params))
            for r in workloads.manifest.records
            if r.stage == "reordering"
        )

    assert keys(pooled) == keys(serial)


def test_warm_rerun_computes_nothing(tmp_path):
    Workloads(store=ArtifactStore(tmp_path))._simulate_together(SOURCES, ALGORITHMS)
    warm = Workloads(store=ArtifactStore(tmp_path))
    warm._simulate_together(SOURCES, ALGORITHMS)
    assert warm.manifest.computed_count() == 0


def test_stored_reorderings_are_read_not_recomputed(tmp_path, clean_obs):
    """A cell whose simulation is missing but whose reordering is stored
    reads the reordering; ``refresh`` recomputes it in the pool."""
    store = ArtifactStore(tmp_path)
    seeded = Workloads(store=store)
    for source in SOURCES:
        seeded.reordering(source, "dbg")

    def pool_tasks(workloads):
        with obs.recording():
            workloads._simulate_together(SOURCES, ("identity", "dbg"))
            spans = obs.completed_spans()
        return [r.attrs["tasks"] for r in spans if r.name == "workload.reorder_pool"]

    reused = Workloads(store=store)
    assert pool_tasks(reused) == []
    assert reused.stats["reordering"] == {"hits": 2, "computed": 0}
    refreshed = Workloads(store=store, refresh=True)
    assert pool_tasks(refreshed) == [2]
    assert refreshed.stats["reordering"] == {"hits": 0, "computed": 2}


def test_untraced_pool_ships_no_spans(clean_obs):
    """The disabled path stays allocation-free across the pool: the
    workers record nothing and the parent adopts nothing."""
    Workloads()._simulate_together(SOURCES, ALGORITHMS)
    assert obs.debug_counters() == {
        "spans_started": 0, "spans_completed": 0, "metric_updates": 0,
    }
    assert obs_metrics.registry.snapshot() == {}


def test_traced_fig1_shows_every_ra_in_a_worker_lane(clean_obs):
    with obs.recording():
        run_experiment("fig1", Workloads())
        document = export_run(environment={})
    spans = {record["span_id"]: record for record in document["spans"]}

    def ancestors(record):
        while record["parent_id"] in spans:
            record = spans[record["parent_id"]]
            yield record

    (pool,) = [r for r in spans.values() if r["name"] == "workload.reorder_pool"]
    assert [a["name"] for a in ancestors(pool)] == ["bench.fig1"]
    assert pool["attrs"]["tasks"] == 4 * len(FIG1_REORDERINGS)
    assert pool["attrs"]["workers"] == min(
        len(os.sched_getaffinity(0)), pool["attrs"]["tasks"]
    )
    parent_lanes = {pool["thread_id"]}
    worker_lanes = set()
    for algorithm in FIG1_REORDERINGS:
        ra_spans = [
            r for r in spans.values()
            if r["name"] == f"reorder.{algorithm}"
            and pool in ancestors(r)
            and not any(a["name"].startswith("reorder.") for a in ancestors(r))
        ]
        assert len(ra_spans) == 4, algorithm
        worker_lanes |= {r["thread_id"] for r in ra_spans}
    assert worker_lanes.isdisjoint(parent_lanes | {os.getpid()})
    assert 1 <= len(worker_lanes) <= pool["attrs"]["workers"]
    # The chrome export draws each worker's spans in its own lane.
    grafted = {r["span_id"] for r in spans.values() if pool in ancestors(r)}
    lanes = {
        event["tid"]
        for event, record in zip(chrome_trace_events(document), document["spans"])
        if record["span_id"] in grafted
    }
    assert lanes == worker_lanes
    # SlashBurn's iteration counter reached the parent from the workers.
    assert document["metrics"]["reorder.iterations"]["value"] > 0


def test_fastest_preprocessing_seconds_interleaves_and_keeps_the_minimum():
    calls = []

    def factory(name, times):
        def build():
            def reorder(graph):
                calls.append(name)
                return SimpleNamespace(preprocessing_seconds=times.pop(0))

            return reorder

        return build

    seconds = fastest_preprocessing_seconds(
        None, (factory("a", [3.0, 1.0]), factory("b", [0.5, 2.0]))
    )
    assert seconds == [1.0, 0.5]
    assert calls == ["a", "b", "a", "b"]


def test_table7_times_its_pair_apart_from_the_pool():
    """table7's preprocessing columns do not read the reorderings the
    pool computed (each timed beside another RA)."""
    workloads = Workloads()
    run_experiment("table7", workloads)
    pooled = {
        key: dataclasses.replace(result, preprocessing_seconds=1e6)
        for key, result in workloads._reorderings.items()
    }
    workloads._reorderings.update(pooled)
    metrics = run_experiment("table7", workloads).data["metrics"]
    assert {label for _, label in metrics} == {"sb", "sb++"}
    assert all(0 < cell["prep"] < 1e6 for cell in metrics.values())


def test_pool_size_follows_cores_but_not_inside_a_pool_worker():
    """One worker per core and at most one per task; in a process that
    multiprocessing started (a ``--jobs`` executor worker) just one."""
    assert _reorder_workers(1) == 1
    assert _reorder_workers(64) == min(len(os.sched_getaffinity(0)), 64)
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(1, mp_context=context) as pool:
        assert pool.submit(_reorder_workers, 64).result() == 1
