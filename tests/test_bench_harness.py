"""Unit tests for the experiment harness (registry and report plumbing).

The experiments themselves, and their paper shape checks, run in
``tests/test_paper_claims.py``.
"""

import pytest

from repro.bench.harness import (
    EXPERIMENTS,
    ExperimentReport,
    experiment_ids,
    run_experiment,
)
from repro.bench.workloads import Workloads
from repro.errors import ExperimentError


class TestRegistry:
    def test_all_experiments_registered(self):
        assert len(EXPERIMENTS) == 15
        assert set(experiment_ids()) >= {
            "table1", "table2", "table3", "table4", "table5", "table6",
            "table7", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
            "sec8_edr", "scale_curve",
        }

    def test_unknown_experiment(self):
        with pytest.raises(ExperimentError):
            run_experiment("table99")

    def test_report_render(self):
        report = ExperimentReport(
            experiment_id="x",
            title="T",
            text="body",
            shape_checks={"claim": True, "other": False},
        )
        rendered = report.render()
        assert "MISMATCH" in rendered
        assert "[ok] claim" in rendered
        assert not report.all_shapes_hold


class TestWorkloadCache:
    @pytest.mark.slow
    def test_graph_cached(self):
        w = Workloads()
        assert w.graph("sk-mini") is w.graph("sk-mini")

    def test_family_lookup(self):
        w = Workloads()
        assert w.family("twtr-mini") == "SN"
        assert w.family("sk-mini") == "WG"
        with pytest.raises(ExperimentError):
            w.family("unknown")

    @pytest.mark.slow
    def test_identity_reordered_graph_is_original(self):
        w = Workloads()
        assert w.reordered_graph("sk-mini", "identity") is w.graph("sk-mini")

    @pytest.mark.slow
    def test_clear(self):
        w = Workloads()
        w.graph("sk-mini")
        w.clear()
        assert not w._graphs

