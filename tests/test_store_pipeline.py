"""Memoized pipeline: warm runs reuse stored stages, bit-identically.

Runs under a tiny ``REPRO_SCALE`` so each store round-trip covers the
full stage graph (generate -> reorder -> AID / simulate) in
seconds.  Stage *regeneration* is observed two ways: through the run
manifest (hit/computed records) and by counting calls into the
underlying producers (``load_dataset`` / ``get_algorithm`` /
``simulate_spmv``) — a warm run must make zero of them.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.bench import workloads as workloads_module
from repro.bench.harness import run_experiment, run_experiments
from repro.bench.workloads import Workloads
from repro.errors import ExperimentError
from repro.serve.jobs import canonical_job
from repro.serve.worker import execute_job
from repro.store import fingerprint as fingerprint_module
from repro.store.manifest import environment_snapshot
from repro.store.store import ArtifactStore

_DATASET = "twtr-mini"


@pytest.fixture
def store(tmp_path, monkeypatch) -> ArtifactStore:
    monkeypatch.setenv("REPRO_SCALE", "0.05")
    return ArtifactStore(tmp_path / "store")


@pytest.fixture
def producer_calls(monkeypatch) -> dict:
    """Count every call into the expensive stage producers."""
    calls = {"load_dataset": 0, "get_algorithm": 0, "simulate_spmv": 0}

    def counting(name):
        original = getattr(workloads_module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(workloads_module, name, counting(name))
    return calls


@pytest.fixture
def store_reads(store, monkeypatch) -> list:
    """Kinds of every artifact read from ``store``'s root, in order."""
    reads: list = []
    original = ArtifactStore.get

    def recording(self, key, kind, **kwargs):
        reads.append(kind)
        return original(self, key, kind, **kwargs)

    # On the class, so the stores a served job opens record too.
    monkeypatch.setattr(ArtifactStore, "get", recording)
    return reads


def _normalize(value):
    """Recursive, NaN-stable form for exact data comparison."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _normalize(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {k: _normalize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_normalize(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_normalize(v) for v in value.tolist()]
    if isinstance(value, np.generic):
        return _normalize(value.item())
    if isinstance(value, float) and math.isnan(value):
        return "__nan__"
    return value


class TestWarmRunsAreCached:
    def test_second_run_regenerates_nothing(
        self, store, producer_calls, store_reads
    ):
        cold = Workloads(store=store)
        cold.simulation(_DATASET, "degree")
        assert producer_calls["load_dataset"] > 0
        assert producer_calls["get_algorithm"] > 0
        assert producer_calls["simulate_spmv"] > 0
        assert cold.manifest.computed_count() > 0
        assert cold.manifest.hit_count() == 0

        for name in producer_calls:
            producer_calls[name] = 0
        store_reads.clear()
        warm = Workloads(store=store)
        warm.simulation(_DATASET, "degree")
        assert producer_calls == {
            "load_dataset": 0,
            "get_algorithm": 0,
            "simulate_spmv": 0,
        }
        assert warm.manifest.computed_count() == 0
        assert warm.manifest.hit_count() > 0
        # The simulation hit rebuilds its config from its own artifact:
        # the warm run reads no graph, no reordering, nothing but it.
        assert warm.stats == {"simulation": {"hits": 1, "computed": 0}}
        assert store_reads == ["simulation"]

    def test_warm_analyze_reads_only_aid_and_simulation(self, store, store_reads):
        job = canonical_job({"dataset": _DATASET, "algorithm": "degree"}, kind="analyze")
        cold = execute_job(job, str(store.root))
        store_reads.clear()
        warm = execute_job(job, str(store.root))
        assert warm["stages"] == {"hits": 2, "computed": 0}
        assert sorted(store_reads) == ["aid", "simulation"]
        assert warm["result"] == cold["result"]

    def test_warm_reordering_reads_no_graph(self, store, producer_calls, store_reads):
        cold = Workloads(store=store).reordering(_DATASET, "degree")
        assert producer_calls["load_dataset"] > 0
        producer_calls["load_dataset"] = 0
        store_reads.clear()

        warm_workloads = Workloads(store=store)
        warm = warm_workloads.reordering(_DATASET, "degree")
        assert store_reads == ["reordering"]
        assert producer_calls["load_dataset"] == 0
        assert warm_workloads.stats == {"reordering": {"hits": 1, "computed": 0}}
        assert np.array_equal(warm.relabeling, cold.relabeling)

    def test_warm_experiment_data_is_bit_identical(self, store):
        cold = run_experiment("fig3", Workloads(store=store))
        warm = run_experiment("fig3", Workloads(store=store))
        assert _normalize(warm.data) == _normalize(cold.data)
        # And identical to a store-less (never-cached) computation.
        plain = run_experiment("fig3", Workloads())
        assert _normalize(warm.data) == _normalize(plain.data)

    def test_simulation_results_identical_cold_vs_warm(self, store):
        cold = Workloads(store=store).simulation(_DATASET, "degree")
        warm = Workloads(store=store).simulation(_DATASET, "degree")
        assert np.array_equal(warm.region_accesses, cold.region_accesses)
        assert np.array_equal(warm.region_hits, cold.region_hits)
        assert np.array_equal(warm.proc_stats.misses, cold.proc_stats.misses)
        assert np.array_equal(warm.read_stats.misses, cold.read_stats.misses)
        assert warm.l3_misses == cold.l3_misses
        assert warm.tlb_misses == cold.tlb_misses

    def test_wall_clock_provenance_is_cached(self, store):
        cold = Workloads(store=store).reordering(_DATASET, "degree")
        warm = Workloads(store=store).reordering(_DATASET, "degree")
        assert warm.preprocessing_seconds == cold.preprocessing_seconds
        assert warm.details == cold.details

    @pytest.mark.parametrize("algorithm", ["dbg", "community", "hisorder"])
    def test_new_ras_recompute_zero_stages_warm(
        self, store, producer_calls, algorithm
    ):
        """The PR-10 RAs inherit store memoization end to end."""
        kwargs = {"inner": "degree"} if algorithm == "community" else {}
        cold = Workloads(store=store)
        cold_result = cold.reordering(_DATASET, algorithm, **kwargs)
        assert cold.manifest.computed_count("reordering") == 1

        producer_calls["get_algorithm"] = 0
        warm = Workloads(store=store)
        warm_result = warm.reordering(_DATASET, algorithm, **kwargs)
        assert producer_calls["get_algorithm"] == 0
        assert warm.manifest.computed_count() == 0
        assert warm.manifest.hit_count("reordering") == 1
        assert np.array_equal(warm_result.relabeling, cold_result.relabeling)
        assert warm_result.details == cold_result.details


class TestInvalidationAndRecovery:
    def test_code_version_bump_invalidates(self, store, monkeypatch, producer_calls):
        cold = Workloads(store=store)
        cold.graph(_DATASET)
        monkeypatch.setattr(
            "repro.store.memo.code_version", lambda *names: "f" * 16
        )
        producer_calls["load_dataset"] = 0
        bumped = Workloads(store=store)
        bumped.graph(_DATASET)
        assert producer_calls["load_dataset"] > 0
        assert bumped.manifest.computed_count("graph") == 1

    def test_serializer_edit_rotates_array_artifact_keys(self, store, monkeypatch):
        def stage_keys() -> dict:
            graph_key = workloads_module._graph_stage.content_key(_DATASET)
            args = (None, graph_key, "degree", {})
            return {
                "graph": graph_key,
                "reordering": workloads_module._reordering_stage.content_key(
                    *args, None
                ),
                "aid": workloads_module._aid_stage.content_key(*args, "in"),
                "simulation": workloads_module._simulation_stage.content_key(
                    *args, False, direction="in", policy="drrip", pressure=1.0
                ),
            }

        before = stage_keys()
        real_digest = fingerprint_module._module_digest

        def edited(name: str) -> str:
            return "0" * 64 if name == "repro.store.serializers" else real_digest(name)

        monkeypatch.setattr(fingerprint_module, "_module_digest", edited)
        after = stage_keys()
        for kind in ("graph", "reordering", "aid", "simulation"):
            assert after[kind] != before[kind], kind

    def test_refresh_recomputes_and_overwrites(self, store, producer_calls):
        Workloads(store=store).graph(_DATASET)
        producer_calls["load_dataset"] = 0
        refreshed = Workloads(store=store, refresh=True)
        refreshed.graph(_DATASET)
        assert producer_calls["load_dataset"] == 1
        assert [r.status for r in refreshed.manifest.records] == ["refreshed"]

    def test_corrupted_artifact_recomputed_not_crashed(self, store, producer_calls):
        Workloads(store=store).graph(_DATASET)
        infos = store.infos("graph")
        assert len(infos) == 1
        infos[0].path.write_bytes(b"bitrot")

        producer_calls["load_dataset"] = 0
        recovered = Workloads(store=store)
        graph = recovered.graph(_DATASET)
        assert graph.num_vertices > 0
        assert producer_calls["load_dataset"] == 1
        assert recovered.manifest.computed_count("graph") == 1
        # The corrupt payload went to quarantine and a clean one returned.
        assert any(store.quarantine_dir.rglob("*.reason.txt"))
        assert store.contains(infos[0].key, "graph")
        warm = Workloads(store=store)
        warm.graph(_DATASET)
        assert warm.manifest.hit_count("graph") == 1


class TestProvenanceSchema:
    def test_report_and_manifest_share_environment_schema(self, store):
        report = run_experiment("table1", Workloads(store=store))
        assert report.duration_s > 0
        snapshot = environment_snapshot()
        assert set(report.environment) == set(snapshot)
        manifest = Workloads(store=store).manifest
        assert set(manifest.environment) == set(snapshot)
        for field in ("python", "numpy", "repro_scale", "code_version"):
            assert field in report.environment

    def test_manifest_saves_under_store(self, store):
        w = Workloads(store=store)
        w.graph(_DATASET)
        path = w.manifest.save(store)
        assert path.parent == store.manifests_dir
        assert path.exists()


class TestHarnessWiring:
    def test_store_and_workloads_are_mutually_exclusive(self, store):
        with pytest.raises(ExperimentError):
            run_experiments(["table1"], Workloads(), store=store)

    def test_run_experiments_builds_store_backed_workloads(self, store):
        reports = run_experiments(["fig3"], store=store)
        assert reports["fig3"].experiment_id == "fig3"
        assert store.infos()  # stages were persisted

    def test_process_executor_matches_serial(self, store, tmp_path):
        serial = run_experiments(["table1"], store=ArtifactStore(tmp_path / "serial"))
        fanned = run_experiments(
            ["table1"], store=store, executor="process", max_workers=2
        )
        assert list(fanned) == ["table1"]
        assert fanned["table1"].render() == serial["table1"].render()
        assert fanned["table1"].shape_checks == serial["table1"].shape_checks
