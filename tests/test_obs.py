"""Unit tests for :mod:`repro.obs` plus the disabled-overhead guard.

The overhead guard is the load-bearing test: the instrumented hot paths
(`simulate_spmv`, the reorder algorithms, the store) promise *zero* span
allocations while ``REPRO_TRACE`` is off, and the debug counters make
that property assertable without timing noise.
"""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from repro import obs
from repro.errors import ObservabilityError
from repro.obs import metrics as obs_metrics
from repro.obs.cli import main as obs_main
from repro.obs import core as obs_core
from repro.obs.core import TRACE_ENV, graft, refresh_from_env, reset
from repro.obs.export import (
    PhaseSummary,
    aggregate_phases,
    export_run,
    summarize_run,
)
from repro.sim.simulator import SimulationConfig, simulate_spmv


@pytest.fixture(autouse=True)
def clean_obs_state():
    """Every test starts disabled with empty spans/metrics, and leaves so."""
    obs.disable()
    obs.reset_all()
    yield
    obs.disable()
    obs.reset_all()


class TestSwitch:
    def test_disabled_by_default_without_env(self, monkeypatch):
        monkeypatch.delenv(TRACE_ENV, raising=False)
        assert refresh_from_env() is False

    @pytest.mark.parametrize("value", ["", "0", "false", "OFF", "no", " 0 "])
    def test_falsy_env_values_disable(self, monkeypatch, value):
        monkeypatch.setenv(TRACE_ENV, value)
        assert refresh_from_env() is False

    @pytest.mark.parametrize("value", ["1", "true", "on", "yes", "anything"])
    def test_truthy_env_values_enable(self, monkeypatch, value):
        monkeypatch.setenv(TRACE_ENV, value)
        assert refresh_from_env() is True
        obs.disable()

    def test_recording_restores_prior_state(self):
        assert not obs.enabled()
        with obs.recording():
            assert obs.enabled()
        assert not obs.enabled()

    def test_recording_fresh_clears_previous_activity(self):
        with obs.recording():
            with obs.span("stale"):
                pass
        with obs.recording(fresh=True):
            assert obs.completed_spans() == []


class TestSpans:
    def test_disabled_span_is_the_shared_null_singleton(self):
        first = obs.span("a", big_attr=list(range(100)))
        second = obs.span("b")
        assert first is second  # no allocation on the disabled path

    def test_nesting_records_parent_ids(self):
        with obs.recording():
            with obs.span("outer") as outer:
                with obs.span("inner"):
                    pass
            with obs.span("sibling"):
                pass
        spans = {record.name: record for record in obs.completed_spans()}
        assert spans["outer"].parent_id == -1
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["sibling"].parent_id == -1
        assert outer.span_id != spans["inner"].span_id

    def test_attrs_and_set(self):
        with obs.recording():
            with obs.span("work", vertices=7) as live:
                live.set(edges=13)
        (record,) = obs.completed_spans()
        assert record.attrs == {"vertices": 7, "edges": 13}
        assert record.end_s >= record.start_s
        assert record.duration_s == record.end_s - record.start_s

    def test_span_survives_exception(self):
        with obs.recording():
            with pytest.raises(ValueError):
                with obs.span("boom"):
                    raise ValueError("inner failure")
            with obs.span("after"):
                pass
        names = [record.name for record in obs.completed_spans()]
        assert names == ["boom", "after"]
        # Nesting is intact after the exception: "after" is a root span.
        assert obs.completed_spans()[1].parent_id == -1

    def test_threads_get_independent_stacks(self):
        def worker() -> None:
            with obs.span("child-root"):
                pass

        with obs.recording():
            with obs.span("main-root"):
                thread = threading.Thread(target=worker)
                thread.start()
                thread.join()
        spans = {record.name: record for record in obs.completed_spans()}
        # The other thread's span must NOT nest under the main thread's.
        assert spans["child-root"].parent_id == -1
        assert spans["child-root"].thread_id != spans["main-root"].thread_id

    def test_span_ids_are_unique_and_monotonic(self):
        with obs.recording():
            for index in range(5):
                with obs.span(f"s{index}"):
                    pass
        ids = [record.span_id for record in obs.completed_spans()]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)


class TestOverheadGuard:
    def test_disabled_simulation_allocates_zero_spans(self, ring_graph):
        """The tier-1 acceptance property: REPRO_TRACE=0 -> no span objects.

        Runs the fully instrumented pipeline (partition, trace, cache,
        TLB, metrics counters) and asserts via the debug counters that
        the disabled path created nothing at all.
        """
        assert not obs.enabled()
        reset()
        config = SimulationConfig.scaled_for(ring_graph)
        result = simulate_spmv(ring_graph, config)
        assert result.num_accesses > 0  # the pipeline really ran
        counters = obs.debug_counters()
        assert counters["spans_started"] == 0
        assert counters["spans_completed"] == 0
        assert counters["metric_updates"] == 0
        assert obs_metrics.registry.snapshot() == {}

    def test_enabled_simulation_does_allocate(self, ring_graph):
        """Sanity check that the guard above is not vacuous."""
        config = SimulationConfig.scaled_for(ring_graph)
        with obs.recording():
            simulate_spmv(ring_graph, config)
            counters = obs.debug_counters()
        assert counters["spans_started"] > 0
        assert counters["metric_updates"] > 0


def _wait_for_exit(pid: int, bound_s: float) -> int:
    """The exit code of child ``pid``; kills it and fails past ``bound_s``."""
    deadline = time.monotonic() + bound_s
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        time.sleep(0.01)
    os.kill(pid, 9)
    os.waitpid(pid, 0)
    pytest.fail(f"forked child still running after {bound_s} s: deadlocked")


class TestFork:
    def test_child_gets_fresh_lock_and_empty_buffer(self):
        """A child forked while another thread holds the span and metric
        locks records its own spans and counters, and none of the
        parent's."""
        holding, release = threading.Event(), threading.Event()

        def hold() -> None:
            with obs_core._STATE.lock, obs_metrics.registry._lock, counter._lock:
                holding.set()
                release.wait()

        with obs.recording():
            counter = obs_metrics.registry.counter("fork.test")
            with obs.span("parent.open"):
                with obs.span("parent.done"):
                    pass
                thread = threading.Thread(target=hold)
                thread.start()
                holding.wait()
                try:
                    pid = os.fork()
                    if pid == 0:  # the child: report through the exit code
                        code = 1
                        try:
                            with obs.span("child.root"):
                                counter.inc(3)
                            spans = obs.completed_spans()
                            code = 0 if (
                                [(r.name, r.parent_id) for r in spans]
                                == [("child.root", -1)]
                                and obs_metrics.registry.snapshot()["fork.test"]["value"] == 3
                                and obs.debug_counters()["spans_started"] == 1
                            ) else 2
                        finally:
                            os._exit(code)
                    assert _wait_for_exit(pid, 5.0) == 0
                finally:
                    release.set()
                    thread.join()
        assert [r.name for r in obs.completed_spans()] == ["parent.done", "parent.open"]

    def test_graft_renumbers_under_the_open_span(self):
        worker = [
            obs.SpanRecord(7, 3, "reorder.rabbit", 11, 1.0, 2.0, {"vertices": 4}),
            obs.SpanRecord(3, -1, "workload.reordering", 11, 0.5, 2.5),
            obs.SpanRecord(9, 42, "store.reordering", 11, 2.5, 2.6),
        ]
        with obs.recording():
            with obs.span("workload.reorder_pool"):
                graft(worker, thread_id=4321)
            spans = obs.completed_spans()
            counters = obs.debug_counters()
        pool = spans[-1]
        rabbit, reordering, store = spans[:3]
        assert len({r.span_id for r in spans}) == 4
        assert reordering.parent_id == store.parent_id == pool.span_id
        assert rabbit.parent_id == reordering.span_id
        assert {r.thread_id for r in spans[:3]} == {4321}
        assert (rabbit.start_s, rabbit.end_s, rabbit.attrs) == (1.0, 2.0, {"vertices": 4})
        assert counters["spans_started"] == counters["spans_completed"] == 4

    def test_graft_of_nothing_allocates_nothing(self):
        graft([], thread_id=1)
        assert obs.debug_counters() == {
            "spans_started": 0, "spans_completed": 0, "metric_updates": 0,
        }


class TestMetrics:
    def test_counter_gauge_histogram(self):
        with obs.recording():
            registry = obs_metrics.registry
            registry.counter("sim.accesses").inc(10)
            registry.counter("sim.accesses").inc()
            registry.gauge("store.size").set(42)
            histogram = registry.histogram("batch.len")
            for value in (1.0, 3.0, 2.0):
                histogram.observe(value)
            snapshot = registry.snapshot()
        assert snapshot["sim.accesses"] == {"type": "counter", "value": 11}
        assert snapshot["store.size"] == {"type": "gauge", "value": 42}
        assert snapshot["batch.len"]["count"] == 3
        assert snapshot["batch.len"]["min"] == 1.0
        assert snapshot["batch.len"]["max"] == 3.0
        assert snapshot["batch.len"]["mean"] == 2.0

    def test_disabled_metrics_are_noops(self):
        registry = obs_metrics.registry
        registry.counter("quiet").inc(5)
        registry.gauge("quiet.gauge").set(1)
        registry.histogram("quiet.hist").observe(1)
        with obs.recording(fresh=False):
            snapshot = registry.snapshot()
        assert snapshot["quiet"]["value"] == 0
        assert snapshot["quiet.gauge"]["value"] is None
        assert snapshot["quiet.hist"]["count"] == 0

    def test_name_bound_to_one_instrument_type(self):
        registry = obs_metrics.registry
        registry.counter("sim.accesses")
        with pytest.raises(ObservabilityError):
            registry.gauge("sim.accesses")

    def test_counter_delta(self):
        with obs.recording():
            registry = obs_metrics.registry
            registry.counter("a").inc(3)
            registry.gauge("g").set(9)
            before = registry.snapshot()
            registry.counter("a").inc(4)
            registry.counter("b").inc(1)
            delta = registry.counter_delta(before)
        assert delta == {"a": 4, "b": 1}  # gauges and unchanged names absent


class TestPercentiles:
    def test_nearest_rank_definition(self):
        values = [float(v) for v in range(1, 101)]  # 1..100
        result = obs_metrics.percentiles(values)
        assert result == {"p50": 50.0, "p95": 95.0, "p99": 99.0}
        assert obs_metrics.percentiles([7.0], (50, 99))["p99"] == 7.0
        assert obs_metrics.percentiles(values, (99.9,)) == {"p99_9": 100.0}
        assert obs_metrics.percentiles(values, (100,))["p100"] == 100.0

    def test_order_does_not_matter(self):
        shuffled = [3.0, 1.0, 2.0, 5.0, 4.0]
        assert obs_metrics.percentiles(shuffled, (50,))["p50"] == 3.0

    def test_empty_and_out_of_range_raise(self):
        with pytest.raises(ObservabilityError):
            obs_metrics.percentiles([])
        with pytest.raises(ObservabilityError):
            obs_metrics.percentiles([1.0], (0,))
        with pytest.raises(ObservabilityError):
            obs_metrics.percentiles([1.0], (101,))

    def test_histogram_percentiles_and_snapshot(self):
        with obs.recording():
            histogram = obs_metrics.registry.histogram("req.latency_ms")
            for value in range(1, 101):
                histogram.observe(float(value))
            quantiles = histogram.percentiles()
            snapshot = obs_metrics.registry.snapshot()
        assert quantiles == {"p50": 50.0, "p95": 95.0, "p99": 99.0}
        entry = snapshot["req.latency_ms"]
        assert entry["p50"] == 50.0
        assert entry["p95"] == 95.0
        assert entry["p99"] == 99.0

    def test_empty_histogram_snapshot_has_no_percentiles(self):
        with obs.recording():
            obs_metrics.registry.histogram("quiet.hist")
            snapshot = obs_metrics.registry.snapshot()
        assert "p50" not in snapshot["quiet.hist"]

    def test_reservoir_keeps_trailing_window(self):
        with obs.recording():
            histogram = obs_metrics.registry.histogram("long.stream")
            for value in range(obs_metrics.HISTOGRAM_RESERVOIR + 100):
                histogram.observe(float(value))
            quantiles = histogram.percentiles((100,))
        # Totals cover the full stream; percentiles cover the window.
        assert histogram.count == obs_metrics.HISTOGRAM_RESERVOIR + 100
        assert quantiles["p100"] == float(obs_metrics.HISTOGRAM_RESERVOIR + 99)
        assert len(histogram._samples) == obs_metrics.HISTOGRAM_RESERVOIR

    def test_summarize_run_shows_percentiles(self):
        with obs.recording():
            histogram = obs_metrics.registry.histogram("req.latency_ms")
            for value in (10.0, 20.0, 30.0):
                histogram.observe(value)
            document = export_run()
        text = summarize_run(document)
        assert "p50=20" in text
        assert "p95=30" in text
        assert "p99=30" in text


class TestExport:
    def _record_small_run(self) -> None:
        with obs.span("bench.fig3"):
            with obs.span("reorder.rabbit", vertices=64):
                pass
        obs_metrics.registry.counter("store.hit").inc(2)

    def test_run_roundtrip(self, tmp_path):
        with obs.recording():
            self._record_small_run()
            path = obs.save_run(tmp_path / "run.json")
        document = obs.load_run(path)
        assert document["version"] == 1
        assert [span["name"] for span in document["spans"]] == [
            "reorder.rabbit",
            "bench.fig3",
        ]
        assert document["metrics"]["store.hit"]["value"] == 2
        assert "trace_enabled" in document["environment"]

    def test_load_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99, "spans": []}))
        with pytest.raises(ObservabilityError):
            obs.load_run(path)

    def test_chrome_trace_events(self, tmp_path):
        with obs.recording():
            self._record_small_run()
            path = obs.save_chrome_trace(tmp_path / "trace.json")
        document = json.loads(path.read_text())
        events = document["traceEvents"]
        assert len(events) == 2
        assert all(event["ph"] == "X" for event in events)
        assert all(event["ts"] >= 0 and event["dur"] >= 0 for event in events)
        names = {event["name"] for event in events}
        assert names == {"bench.fig3", "reorder.rabbit"}

    def test_aggregate_phases_paths_and_self_time(self):
        with obs.recording():
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
            document = export_run()
        phases = {entry.path: entry for entry in aggregate_phases(document["spans"])}
        assert set(phases) == {"outer", "outer/inner"}
        outer = phases["outer"]
        assert isinstance(outer, PhaseSummary)
        assert outer.count == 1 and outer.depth == 0
        assert phases["outer/inner"].depth == 1
        assert outer.self_s == pytest.approx(
            outer.total_s - phases["outer/inner"].total_s
        )

    def test_summarize_run_mentions_phases_and_metrics(self):
        with obs.recording():
            self._record_small_run()
            document = export_run()
        text = summarize_run(document)
        assert "bench.fig3" in text
        assert "reorder.rabbit" in text
        assert "store.hit" in text


class TestCLI:
    def test_summarize_subcommand(self, tmp_path, capsys):
        with obs.recording():
            with obs.span("bench.table5"):
                pass
            run_path = obs.save_run(tmp_path / "run.json")
        assert obs_main(["summarize", str(run_path)]) == 0
        captured = capsys.readouterr()
        assert "bench.table5" in captured.out

    def test_chrome_subcommand(self, tmp_path):
        with obs.recording():
            with obs.span("bench.table5"):
                pass
            run_path = obs.save_run(tmp_path / "run.json")
        out_path = tmp_path / "trace.json"
        assert obs_main(["chrome", str(run_path), "-o", str(out_path)]) == 0
        assert json.loads(out_path.read_text())["traceEvents"]

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert obs_main(["summarize", str(tmp_path / "absent.json")]) == 1
        assert "absent.json" in capsys.readouterr().err
