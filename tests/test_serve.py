"""Tests for :mod:`repro.serve`: validation, coalescing, admission, load.

The two headline properties (ISSUE 9 acceptance):

* N concurrent identical requests perform exactly ONE computation —
  proven by counting worker invocations, ``serve.coalesced`` and the
  parent-visible ``store.*`` counters (thread executor), and by the N
  responses carrying identical results;
* a saturated queue answers 429 with a Retry-After and recovers once
  in-flight work drains.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

import pytest

from repro import obs
from repro.bench.workloads import Workloads
from repro.errors import ServeError
from repro.obs import metrics
from repro.serve import app as app_module
from repro.serve import worker as worker_module
from repro.serve.app import ReorderService
from repro.serve.coalesce import SingleFlight
from repro.serve.http import HttpClient, request_once
from repro.serve.jobs import canonical_job, job_fingerprint
from repro.serve.loadgen import LoadSpec, run_load, zipf_requests
from repro.serve.pool import WorkerPool
from repro.store import ArtifactStore


@pytest.fixture
def serving_env(monkeypatch):
    """Tiny datasets + live metrics for every service test."""
    monkeypatch.setenv("REPRO_SCALE", "0.05")
    obs.reset_all()
    obs.enable()
    yield
    obs.disable()
    obs.reset_all()


def _service(tmp_path, **kwargs) -> ReorderService:
    kwargs.setdefault("max_workers", 2)
    kwargs.setdefault("max_queue_depth", 4)
    kwargs.setdefault("executor", "thread")
    return ReorderService(store_root=str(tmp_path / "store"), **kwargs)


# -- job canonicalization ----------------------------------------------------


class TestCanonicalJobs:
    def test_equivalent_payloads_share_a_fingerprint(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.05")
        sparse = canonical_job(
            {"dataset": "twtr-mini", "algorithm": "degree"}, kind="simulate"
        )
        explicit = canonical_job(
            {
                "kind": "simulate",
                "dataset": "twtr-mini",
                "algorithm": "degree",
                "policy": "drrip",
                "direction": "pull",
                "pressure": 0.08,
                "params": {},
            },
            kind="simulate",
        )
        assert sparse == explicit
        assert job_fingerprint(sparse) == job_fingerprint(explicit)

    def test_fingerprint_tracks_scale_factor(self, monkeypatch):
        job = canonical_job({"dataset": "twtr-mini"}, kind="reorder")
        monkeypatch.setenv("REPRO_SCALE", "0.05")
        small = job_fingerprint(job)
        monkeypatch.setenv("REPRO_SCALE", "0.1")
        assert job_fingerprint(job) != small

    def test_defaults_are_filled(self):
        job = canonical_job({"dataset": "twtr-mini"}, kind="analyze")
        assert job["algorithm"] == "identity"
        assert job["policy"] == "drrip"
        assert job["direction"] == "pull"
        assert job["pressure"] == pytest.approx(0.08)

    @pytest.mark.parametrize(
        "payload",
        [
            {"dataset": "twtr-mini", "dataest": "typo"},
            {},  # neither graph source
            {"dataset": "twtr-mini", "graph_fingerprint": "a" * 64},  # both
            {"dataset": "no-such-graph"},
            {"graph_fingerprint": "abc123"},  # too short
            {"dataset": "twtr-mini", "algorithm": "no-such-alg"},
            {"dataset": "twtr-mini", "pressure": 0.0},
            {"dataset": "twtr-mini", "pressure": "high"},
            {"dataset": "twtr-mini", "policy": "mru"},
            {"dataset": "twtr-mini", "direction": "sideways"},
            {"dataset": "twtr-mini", "params": {"nested": {"no": 1}}},
        ],
    )
    def test_invalid_payloads_raise(self, payload):
        with pytest.raises(ServeError):
            canonical_job(payload, kind="simulate")

    def test_include_order_is_reorder_only(self):
        job = canonical_job(
            {"dataset": "twtr-mini", "include_order": True}, kind="reorder"
        )
        assert job["include_order"] is True
        with pytest.raises(ServeError):
            canonical_job(
                {"dataset": "twtr-mini", "include_order": True}, kind="simulate"
            )

    def test_kind_mismatch_raises(self):
        with pytest.raises(ServeError):
            canonical_job({"kind": "reorder", "dataset": "twtr-mini"}, kind="simulate")


# -- single flight -----------------------------------------------------------


class TestSingleFlight:
    def test_concurrent_same_key_runs_supplier_once(self):
        async def scenario() -> Tuple[int, List[Tuple[str, bool]]]:
            flights = SingleFlight()
            calls = 0
            release = asyncio.Event()

            async def supplier() -> str:
                nonlocal calls
                calls += 1
                await release.wait()
                return "value"

            async def caller():
                return await flights.do("k", supplier)

            tasks = [asyncio.ensure_future(caller()) for _ in range(5)]
            await asyncio.sleep(0)
            release.set()
            results = await asyncio.gather(*tasks)
            assert flights.in_flight() == 0
            return calls, results

        calls, results = asyncio.run(scenario())
        assert calls == 1
        assert sorted(coalesced for _value, coalesced in results) == [
            False, True, True, True, True,
        ]
        assert {value for value, _coalesced in results} == {"value"}

    def test_leader_exception_reaches_every_waiter(self):
        async def scenario() -> List[str]:
            flights = SingleFlight()
            release = asyncio.Event()

            async def supplier() -> str:
                await release.wait()
                raise ServeError("boom")

            async def caller() -> str:
                try:
                    await flights.do("k", supplier)
                    return "ok"
                except ServeError as exc:
                    return str(exc)

            tasks = [asyncio.ensure_future(caller()) for _ in range(3)]
            await asyncio.sleep(0)
            release.set()
            return await asyncio.gather(*tasks)

        assert asyncio.run(scenario()) == ["boom", "boom", "boom"]

    def test_sequential_calls_rerun(self):
        async def scenario() -> int:
            flights = SingleFlight()
            calls = 0

            async def supplier() -> None:
                nonlocal calls
                calls += 1

            await flights.do("k", supplier)
            await flights.do("k", supplier)
            return calls

        assert asyncio.run(scenario()) == 2


# -- worker pool -------------------------------------------------------------


class TestWorkerPool:
    def test_constructor_validation(self):
        with pytest.raises(ServeError):
            WorkerPool(max_workers=0)
        with pytest.raises(ServeError):
            WorkerPool(max_queue_depth=-1)
        with pytest.raises(ServeError):
            WorkerPool(executor="fork")

    def test_retry_after_has_a_one_second_floor(self):
        pool = WorkerPool(max_workers=2, max_queue_depth=2)
        assert pool.retry_after_s() >= 1.0


# -- the coalescing guarantee ------------------------------------------------


class TestCoalescing:
    N = 6

    def test_n_identical_requests_one_computation(self, tmp_path, serving_env, monkeypatch):
        """N concurrent identical jobs -> 1 worker call, N equal bodies."""
        release = threading.Event()
        calls: List[Dict[str, Any]] = []
        real_execute = worker_module.execute_job

        def gated(job: Dict[str, Any], store_root: Optional[str]) -> Dict[str, Any]:
            calls.append(job)
            assert release.wait(timeout=30)
            return real_execute(job, store_root)

        monkeypatch.setattr(app_module, "execute_job", gated)
        payload = {"dataset": "twtr-mini", "algorithm": "degree"}

        async def scenario():
            service = _service(tmp_path)
            host, port = await service.start()
            try:
                tasks = [
                    asyncio.ensure_future(
                        request_once(host, port, "POST", "/simulate", payload)
                    )
                    for _ in range(self.N)
                ]
                requests = metrics.registry.counter("serve.simulate.requests")
                deadline = asyncio.get_running_loop().time() + 30
                while requests.value < self.N:
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.01)
                # Every request has reached the single-flight table and
                # the worker has been entered exactly once.
                assert len(calls) == 1
                release.set()
                return await asyncio.gather(*tasks)
            finally:
                await service.stop()

        responses = asyncio.run(scenario())

        assert len(calls) == 1, "coalescing must yield exactly one computation"
        statuses = [status for status, _body, _headers in responses]
        assert statuses == [200] * self.N
        bodies = [body for _status, body, _headers in responses]
        results = {json.dumps(body["result"], sort_keys=True) for body in bodies}
        assert len(results) == 1, "all coalesced responses carry identical results"
        fingerprints = {body["fingerprint"] for body in bodies}
        assert len(fingerprints) == 1
        assert sorted(body["coalesced"] for body in bodies) == [False] + [True] * (
            self.N - 1
        )
        # Counter evidence: N-1 followers coalesced; the single leader's
        # stages were computed (cold store), and — thread executor — the
        # store counters in *this* process saw exactly one cold pipeline.
        assert metrics.registry.counter("serve.coalesced").value == self.N - 1
        computed = bodies[0]["stages"]["computed"] + bodies[0]["stages"]["hits"]
        assert metrics.registry.counter("serve.stage_computed").value + \
            metrics.registry.counter("serve.stage_hits").value == computed
        assert metrics.registry.counter("store.miss").value >= 1

    def test_store_turns_repeats_into_hits(self, tmp_path, serving_env):
        """Same job sequentially: second response recomputes nothing."""
        payload = {"dataset": "twtr-mini", "algorithm": "degree"}

        async def scenario():
            service = _service(tmp_path)
            host, port = await service.start()
            try:
                first = await request_once(host, port, "POST", "/simulate", payload)
                hits_before = metrics.registry.counter("store.hit").value
                second = await request_once(host, port, "POST", "/simulate", payload)
                return first, second, hits_before
            finally:
                await service.stop()

        (s1, cold, _h1), (s2, warm, _h2), hits_before = asyncio.run(scenario())
        assert (s1, s2) == (200, 200)
        assert cold["stages"]["computed"] > 0
        assert warm["stages"]["computed"] == 0
        assert warm["stages"]["hits"] > 0
        assert metrics.registry.counter("store.hit").value > hits_before
        assert cold["result"] == warm["result"]


# -- admission control -------------------------------------------------------


class TestAdmissionControl:
    def test_saturated_queue_answers_429_then_recovers(
        self, tmp_path, serving_env, monkeypatch
    ):
        release = threading.Event()

        def stuck(job: Dict[str, Any], store_root: Optional[str]) -> Dict[str, Any]:
            assert release.wait(timeout=30)
            return {"result": {"job": job["params"]}, "stages": {}, "artifacts": {}}

        monkeypatch.setattr(app_module, "execute_job", stuck)

        def payload(i: int) -> Dict[str, Any]:
            # Distinct seeds keep the fingerprints distinct (no coalescing)
            # while staying a real constructor kwarg of the random RA —
            # admission now instantiates the algorithm to vet params.
            return {
                "dataset": "twtr-mini",
                "algorithm": "random",
                "params": {"seed": i},
            }

        async def scenario():
            service = _service(
                tmp_path, max_workers=1, max_queue_depth=1, executor="thread"
            )
            host, port = await service.start()
            try:
                filler = [
                    asyncio.ensure_future(
                        request_once(host, port, "POST", "/reorder", payload(i))
                    )
                    for i in range(2)  # capacity = 1 worker + 1 queue slot
                ]
                deadline = asyncio.get_running_loop().time() + 30
                while service.pool.in_flight < 2:
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.01)

                status, body, headers = await request_once(
                    host, port, "POST", "/reorder", payload(99)
                )
                assert status == 429
                assert float(headers["retry-after"]) >= 1.0
                assert body["retry_after_s"] >= 1.0
                assert "capacity" in body["error"]
                assert metrics.registry.counter("serve.rejected").value == 1

                release.set()
                filled = await asyncio.gather(*filler)
                assert [s for s, _b, _h in filled] == [200, 200]

                status, body, _headers = await request_once(
                    host, port, "POST", "/reorder", payload(99)
                )
                return status, body
            finally:
                await service.stop()

        status, body = asyncio.run(scenario())
        assert status == 200, "service recovers once in-flight work drains"
        assert body["result"] == {"job": {"seed": 99}}

    def test_identical_requests_coalesce_even_when_saturated(
        self, tmp_path, serving_env, monkeypatch
    ):
        """Coalescing is checked before admission: no spurious 429s."""
        release = threading.Event()
        calls: List[int] = []

        def stuck(job: Dict[str, Any], store_root: Optional[str]) -> Dict[str, Any]:
            calls.append(1)
            assert release.wait(timeout=30)
            return {"result": {}, "stages": {}, "artifacts": {}}

        monkeypatch.setattr(app_module, "execute_job", stuck)
        payload = {"dataset": "twtr-mini"}

        async def scenario():
            service = _service(
                tmp_path, max_workers=1, max_queue_depth=0, executor="thread"
            )
            host, port = await service.start()
            try:
                tasks = [
                    asyncio.ensure_future(
                        request_once(host, port, "POST", "/reorder", payload)
                    )
                    for _ in range(4)
                ]
                requests = metrics.registry.counter("serve.reorder.requests")
                deadline = asyncio.get_running_loop().time() + 30
                while requests.value < 4:
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.01)
                release.set()
                return await asyncio.gather(*tasks)
            finally:
                await service.stop()

        responses = asyncio.run(scenario())
        assert [status for status, _b, _h in responses] == [200] * 4
        assert len(calls) == 1


# -- HTTP surface ------------------------------------------------------------


class TestHttpSurface:
    def test_healthz_metrics_and_errors(self, tmp_path, serving_env):
        async def scenario():
            service = _service(tmp_path)
            host, port = await service.start()
            try:
                health = await request_once(host, port, "GET", "/healthz")
                snapshot = await request_once(host, port, "GET", "/metrics")
                missing = await request_once(host, port, "GET", "/nope")
                bad_method = await request_once(host, port, "PUT", "/reorder")
                bad_body = await request_once(
                    host, port, "POST", "/simulate", {"dataset": 7}
                )
                no_artifact = await request_once(
                    host, port, "GET", "/artifacts/" + "0" * 16
                )
                bad_artifact = await request_once(
                    host, port, "GET", "/artifacts/zz"
                )
                return (
                    health, snapshot, missing, bad_method, bad_body,
                    no_artifact, bad_artifact,
                )
            finally:
                await service.stop()

        health, snapshot, missing, bad_method, bad_body, no_artifact, bad_artifact = (
            asyncio.run(scenario())
        )
        assert health[0] == 200 and health[1]["status"] == "ok"
        assert snapshot[0] == 200 and "serve.requests" in snapshot[1]["metrics"]
        assert missing[0] == 404
        assert bad_method[0] == 405
        assert bad_body[0] == 400 and "dataset" in bad_body[1]["error"]
        assert no_artifact[0] == 404
        assert bad_artifact[0] == 400

    def test_malformed_json_body_is_a_400(self, tmp_path, serving_env):
        async def scenario():
            service = _service(tmp_path)
            host, port = await service.start()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                body = b"{not json"
                writer.write(
                    b"POST /simulate HTTP/1.1\r\n"
                    b"Host: test\r\n"
                    b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
                )
                await writer.drain()
                status_line = await reader.readline()
                writer.close()
                await writer.wait_closed()
                return status_line
            finally:
                await service.stop()

        status_line = asyncio.run(scenario())
        assert b"400" in status_line

    def test_artifact_lookup_roundtrip(self, tmp_path, serving_env):
        async def scenario():
            service = _service(tmp_path)
            host, port = await service.start()
            try:
                _status, body, _headers = await request_once(
                    host, port, "POST", "/reorder",
                    {"dataset": "twtr-mini", "algorithm": "degree"},
                )
                graph_key = body["artifacts"]["graph"]
                status, found, _headers = await request_once(
                    host, port, "GET", f"/artifacts/{graph_key[:12]}"
                )
                return body, status, found
            finally:
                await service.stop()

        body, status, found = asyncio.run(scenario())
        assert status == 200
        kinds = {entry["kind"] for entry in found["artifacts"]}
        assert "graph" in kinds
        assert any(
            entry["key"] == body["artifacts"]["graph"]
            for entry in found["artifacts"]
        )


# -- graph-by-fingerprint jobs ----------------------------------------------


class TestGraphByFingerprint:
    def test_round_trip_via_stored_graph(self, tmp_path, serving_env):
        async def scenario():
            service = _service(tmp_path)
            host, port = await service.start()
            try:
                _s, seeded, _h = await request_once(
                    host, port, "POST", "/reorder",
                    {"dataset": "twtr-mini", "algorithm": "identity"},
                )
                graph_key = seeded["artifacts"]["graph"]
                status, body, _h = await request_once(
                    host, port, "POST", "/reorder",
                    {"graph_fingerprint": graph_key, "algorithm": "degree"},
                )
                missing, missing_body, _h = await request_once(
                    host, port, "POST", "/reorder",
                    {"graph_fingerprint": "f" * 64},
                )
                return status, body, missing, missing_body
            finally:
                await service.stop()

        status, body, missing, missing_body = asyncio.run(scenario())
        assert status == 200
        assert body["result"]["algorithm"] == "degree"
        assert len(body["result"]["order_sha256"]) == 64
        assert missing == 400
        assert "no stored graph artifact" in missing_body["error"]


    def test_warm_reorder_reads_only_its_reordering(self, tmp_path, serving_env):
        """A warm hit never loads the graph it was computed from."""

        async def scenario():
            service = _service(tmp_path)
            host, port = await service.start()
            try:
                _s, seeded, _h = await request_once(
                    host, port, "POST", "/reorder",
                    {"dataset": "twtr-mini", "algorithm": "identity"},
                )
                jobs = (
                    {"dataset": "twtr-mini", "algorithm": "degree"},
                    {"graph_fingerprint": seeded["artifacts"]["graph"],
                     "algorithm": "degree"},
                )
                pairs = []
                for job in jobs:
                    _s, cold, _h = await request_once(host, port, "POST", "/reorder", job)
                    _s, warm, _h = await request_once(host, port, "POST", "/reorder", job)
                    pairs.append((cold, warm))
                return pairs
            finally:
                await service.stop()

        pairs = asyncio.run(scenario())
        # The dataset job computes the reordering; the graph-key job names
        # the same graph, so its first request is already a hit.
        assert pairs[0][0]["stages"]["computed"] == 1
        assert pairs[1][0]["stages"] == {"hits": 1, "computed": 0}
        for cold, warm in pairs:
            assert warm["stages"] == {"hits": 1, "computed": 0}
            assert set(warm["artifacts"]) == {"reordering"}
            assert warm["result"] == cold["result"]


class TestOneStageFamily:
    """The harness, dataset jobs and graph-key jobs share one artifact
    per result: every stage downstream of the graph is keyed by the
    source graph's content key."""

    @staticmethod
    def _run(kind: str, payload: Dict[str, Any], store_root: str) -> Dict[str, Any]:
        return worker_module.execute_job(canonical_job(payload, kind=kind), store_root)

    def test_graph_key_jobs_reuse_dataset_artifacts(self, tmp_path, serving_env):
        root = str(tmp_path / "store")
        by_dataset = {"dataset": "twtr-mini", "algorithm": "dbg"}
        cold_reorder = self._run("reorder", by_dataset, root)
        cold_simulate = self._run("simulate", by_dataset, root)
        by_key = {
            "graph_fingerprint": cold_reorder["artifacts"]["graph"],
            "algorithm": "dbg",
        }
        reorder = self._run("reorder", by_key, root)
        simulate = self._run("simulate", by_key, root)
        assert reorder["stages"]["computed"] == 0
        assert simulate["stages"]["computed"] == 0
        assert reorder["result"] == cold_reorder["result"]
        assert simulate["result"] == cold_simulate["result"]

    def test_identity_reorder_is_one_rule_for_both_sources(
        self, tmp_path, serving_env
    ):
        root = str(tmp_path / "store")
        by_dataset = self._run(
            "reorder", {"dataset": "twtr-mini", "algorithm": "identity"}, root
        )
        by_key = self._run(
            "reorder",
            {"graph_fingerprint": by_dataset["artifacts"]["graph"]},
            root,
        )
        assert by_key["stages"] == {"hits": 1, "computed": 0}
        assert by_key["artifacts"] == {
            "reordering": by_dataset["artifacts"]["reordering"]
        }
        assert by_key["result"] == by_dataset["result"]

    def test_harness_simulation_warms_the_service(self, tmp_path, serving_env):
        store = ArtifactStore(tmp_path / "store")
        harness = Workloads(store=store).simulation("twtr-mini", "dbg")
        served = self._run(
            "simulate", {"dataset": "twtr-mini", "algorithm": "dbg"}, str(store.root)
        )
        assert served["stages"]["computed"] == 0
        assert served["result"]["l3_misses"] == harness.l3_misses

    def test_one_artifact_per_result(self, tmp_path, serving_env):
        store = ArtifactStore(tmp_path / "store")
        harness = Workloads(store=store).simulation("twtr-mini", "dbg")
        (graph,) = store.infos("graph")
        by_key = {"graph_fingerprint": graph.key, "algorithm": "dbg"}
        served = [
            self._run("simulate", {"dataset": "twtr-mini", "algorithm": "dbg"},
                      str(store.root)),
            self._run("reorder", by_key, str(store.root)),
            self._run("simulate", by_key, str(store.root)),
        ]
        assert [out["stages"]["computed"] for out in served] == [0, 0, 0]
        assert served[0]["result"]["l3_misses"] == harness.l3_misses
        assert served[2]["result"]["l3_misses"] == harness.l3_misses
        kinds = Counter(info.kind for info in store.infos())
        assert kinds == {
            "graph": 1, "reordering": 1, "reordered-graph": 1, "simulation": 1,
        }

    def test_ra_param_named_like_a_simulation_option(self, tmp_path, serving_env):
        # The degree RA's ``direction`` is an RA parameter, not the
        # traversal direction of the simulation.
        root = str(tmp_path / "store")
        payload = {
            "dataset": "twtr-mini",
            "algorithm": "degree",
            "params": {"direction": "in"},
            "direction": "push",
        }
        out = self._run("simulate", payload, root)
        store = ArtifactStore(root)
        (reordering,) = store.infos("reordering")
        (simulation,) = store.infos("simulation")
        assert reordering.provenance["params"]["params"] == {"direction": "in"}
        assert simulation.provenance["params"]["config"]["direction"] == "push"
        assert out["result"]["num_accesses"] > 0


# -- load generator ----------------------------------------------------------


class TestLoadGenerator:
    def test_zipf_requests_are_deterministic_and_skewed(self):
        spec = LoadSpec(
            datasets=("twtr-mini", "frnd-mini"),
            algorithms=("identity", "degree"),
            num_requests=400,
            zipf_s=1.5,
            seed=11,
        )
        first = zipf_requests(spec)
        second = zipf_requests(spec)
        assert first == second
        assert len(first) == 400
        top = {"dataset": "twtr-mini", "algorithm": "identity"}
        top_count = sum(1 for request in first if request == top)
        counts = [
            sum(1 for request in first if request == combo)
            for combo in (
                {"dataset": d, "algorithm": a}
                for d in ("twtr-mini", "frnd-mini")
                for a in ("identity", "degree")
            )
        ]
        assert top_count == max(counts)
        assert top_count > len(first) // 4, "rank-0 must beat the uniform share"
        different_seed = zipf_requests(
            LoadSpec(
                datasets=("twtr-mini", "frnd-mini"),
                algorithms=("identity", "degree"),
                num_requests=400,
                zipf_s=1.5,
                seed=12,
            )
        )
        assert different_seed != first

    def test_spec_validation(self):
        with pytest.raises(ServeError):
            zipf_requests(LoadSpec(zipf_s=-1.0))
        with pytest.raises(ServeError):
            zipf_requests(LoadSpec(num_requests=0))
        with pytest.raises(ServeError):
            zipf_requests(LoadSpec(datasets=("no-such",)))
        with pytest.raises(ServeError):
            zipf_requests(LoadSpec(algorithms=("no-such",)))
        with pytest.raises(ServeError):
            zipf_requests(LoadSpec(kind="delete"))

    def test_load_run_cold_then_warm(self, tmp_path, serving_env):
        """The warm pass sees a strictly higher store-hit ratio."""
        spec = LoadSpec(
            datasets=("twtr-mini",),
            algorithms=("identity", "degree"),
            kind="simulate",
            num_requests=8,
            concurrency=2,
            seed=5,
        )

        async def scenario():
            service = _service(tmp_path)
            host, port = await service.start()
            try:
                cold = await run_load(host, port, spec)
                warm = await run_load(host, port, spec)
                return cold, warm
            finally:
                await service.stop()

        cold, warm = asyncio.run(scenario())
        assert cold.completed == 8 and warm.completed == 8
        assert cold.failed == 0 and warm.failed == 0
        assert cold.stage_computed > 0
        assert warm.stage_computed == 0
        assert warm.store_hit_ratio == 1.0
        assert warm.store_hit_ratio > cold.store_hit_ratio
        quantiles = warm.latency_percentiles()
        assert set(quantiles) == {"p50", "p95", "p99"}
        assert quantiles["p50"] <= quantiles["p95"] <= quantiles["p99"]
        assert warm.to_dict()["store_hit_ratio"] == 1.0
