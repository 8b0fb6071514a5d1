"""The paper's contribution: locality metrics, analyses and reporting."""

from repro.core.aid import aid_per_vertex
from repro.core.analyzer import LocalityAnalyzer
from repro.core.report import format_matrix, format_series, format_table

__all__ = [
    "aid_per_vertex",
    "LocalityAnalyzer",
    "format_matrix",
    "format_series",
    "format_table",
]
