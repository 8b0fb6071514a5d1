"""Degree classes and the power-law tail exponent.

The decade-based degree classes ("1-10", "10-100", ...) are used by the
degree range decomposition (Figure 5); the tail exponent by the
Figure 2 analysis.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "degree_class_edges",
    "degree_class_labels",
    "power_law_tail_exponent",
]


def degree_class_labels(num_classes: int) -> list[str]:
    """Decade labels '1-10', '10-100', ... used by Figure 5."""
    labels = []
    for k in range(num_classes):
        low = 10**k
        high = 10 ** (k + 1)
        labels.append(f"{_compact(low)}-{_compact(high)}")
    return labels


def _compact(value: int) -> str:
    if value >= 1_000_000 and value % 1_000_000 == 0:
        return f"{value // 1_000_000}M"
    if value >= 1_000 and value % 1_000 == 0:
        return f"{value // 1_000}K"
    return str(value)


def degree_class_edges(degrees: np.ndarray) -> np.ndarray:
    """Decade class index for each degree: class k covers [10^k, 10^(k+1)).

    Degree 0 maps to class 0 alongside the 1-10 decade (the paper drops
    zero-degree vertices before analysis, so the case is degenerate).
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    classes = np.zeros(degrees.shape, dtype=np.int64)
    positive = degrees > 0
    classes[positive] = np.floor(np.log10(degrees[positive])).astype(np.int64)
    return classes


def power_law_tail_exponent(degrees: np.ndarray, d_min: int = 10) -> float:
    """Maximum-likelihood (discrete approximation) power-law exponent.

    Uses the standard Clauset-Shalizi-Newman continuous approximation
    ``alpha = 1 + n / sum(ln(d / (d_min - 0.5)))`` over degrees >= d_min.
    Used by the Figure 2 analysis to show the GCC of SlashBurn losing its
    power-law character.  Returns ``nan`` when fewer than two vertices
    exceed ``d_min``.
    """
    degrees = np.asarray(degrees, dtype=np.float64)
    tail = degrees[degrees >= d_min]
    if tail.size < 2:
        return float("nan")
    return float(1.0 + tail.size / np.log(tail / (d_min - 0.5)).sum())
