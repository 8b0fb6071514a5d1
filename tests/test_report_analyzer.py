"""Unit tests for report formatting and the LocalityAnalyzer facade."""

import numpy as np
import pytest

from repro.core.analyzer import LocalityAnalyzer
from repro.core.report import format_matrix, format_series, format_table, format_value


class TestFormatValue:
    def test_small_integers_plain(self):
        assert format_value(42) == "42"
        assert format_value(42.0) == "42"

    def test_si_suffixes(self):
        assert format_value(1_500_000) == "1.50M"
        assert format_value(25_000) == "25.00K"
        assert format_value(3_200_000_000) == "3.20B"

    def test_floats(self):
        assert format_value(3.14159) == "3.14"
        assert format_value(3.14159, precision=3) == "3.142"

    def test_none_and_nan(self):
        assert format_value(None) == "-"
        assert format_value(float("nan")) == "-"

    def test_strings_passthrough(self):
        assert format_value("SB") == "SB"

    def test_bools(self):
        assert format_value(True) == "yes"
        assert format_value(np.bool_(False)) == "no"


class TestFormatTable:
    def test_alignment_and_header(self):
        text = format_table(["name", "count"], [["a", 1], ["bb", 22]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert len(set(len(line) for line in lines[:1])) == 1
        assert "22" in lines[3]

    def test_title(self):
        text = format_table(["x"], [[1]], title="T")
        assert text.splitlines()[0] == "T"

    def test_empty_rows(self):
        text = format_table(["x", "y"], [])
        assert "x" in text


class TestFormatSeries:
    def test_shapes(self):
        text = format_series(
            np.array([1, 2, 3]),
            {"a": np.array([1.0, 2.0, 3.0]), "b": np.array([9.0, 8.0])},
            x_label="deg",
        )
        assert "deg" in text
        assert "-" in text  # the short series pads with '-'


class TestFormatMatrix:
    def test_labels(self):
        text = format_matrix(
            np.array([[1.0, 2.0], [3.0, 4.0]]), ["r0", "r1"], ["c0", "c1"]
        )
        assert "r0" in text and "c1" in text


class TestAnalyzer:
    @pytest.fixture(scope="class")
    def analyzer(self, small_web):
        return LocalityAnalyzer(small_web)

    def test_summary_fields(self, analyzer, small_web):
        summary = analyzer.summary()
        assert summary.num_vertices == small_web.num_vertices
        assert summary.favoured_direction == "push"
        assert 0 <= summary.reciprocity <= 1

    def test_structural_metrics_no_simulation(self, small_web):
        analyzer = LocalityAnalyzer(small_web)
        analyzer.aid_distribution()
        analyzer.asymmetricity_distribution()
        analyzer.degree_range()
        analyzer.hub_coverage()
        analyzer.gap_profile()
        assert analyzer._result is None  # nothing simulated yet

    def test_simulation_cached(self, analyzer):
        first = analyzer.simulation
        second = analyzer.simulation
        assert first is second

    def test_simulation_backed_metrics(self, analyzer):
        dist = analyzer.miss_rate_distribution()
        assert dist.accesses.sum() > 0
        ecs = analyzer.effective_cache_size()
        assert 0 <= ecs.average_percent <= 100
        hubs = analyzer.hub_misses(10)
        assert hubs.accesses >= hubs.misses
        types = analyzer.locality_types()
        assert types.total_reuses + types.cold > 0
