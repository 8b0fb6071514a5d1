"""The paper's contribution: locality metrics, analyses and reporting."""

from repro.core.aid import AIDDistribution, aid_degree_distribution, aid_per_vertex
from repro.core.analyzer import GraphSummary, LocalityAnalyzer
from repro.core.asymmetricity import (
    AsymmetricityDistribution,
    asymmetricity_degree_distribution,
    asymmetricity_per_vertex,
    reciprocity,
)
from repro.core.binning import DegreeBins, log_bins
from repro.core.degree_range import (
    DegreeRangeDecomposition,
    degree_range_decomposition,
)
from repro.core.ecs import ECSMeasurement, ecs_from_result
from repro.core.gap import GapProfile, average_gap_profile
from repro.core.hub_coverage import HubCoverage, coverage_at, hub_coverage
from repro.core.hubs_misses import HubMissCount, hub_data_misses
from repro.core.missdist import MissRateDistribution, miss_rate_degree_distribution
from repro.core.report import format_matrix, format_series, format_table, format_value
from repro.core.reuse import ReuseProfile, reuse_distance_histogram, reuse_distances
from repro.core.validation import ValidationReport, validate_simulator

__all__ = [
    "AIDDistribution",
    "aid_degree_distribution",
    "aid_per_vertex",
    "GraphSummary",
    "LocalityAnalyzer",
    "AsymmetricityDistribution",
    "asymmetricity_degree_distribution",
    "asymmetricity_per_vertex",
    "reciprocity",
    "DegreeBins",
    "log_bins",
    "DegreeRangeDecomposition",
    "degree_range_decomposition",
    "ECSMeasurement",
    "ecs_from_result",
    "GapProfile",
    "average_gap_profile",
    "HubCoverage",
    "coverage_at",
    "hub_coverage",
    "HubMissCount",
    "hub_data_misses",
    "MissRateDistribution",
    "miss_rate_degree_distribution",
    "format_matrix",
    "format_series",
    "format_table",
    "format_value",
    "ReuseProfile",
    "reuse_distance_histogram",
    "reuse_distances",
    "ValidationReport",
    "validate_simulator",
]
