"""Logarithmic degree binning shared by all degree distributions.

The paper's Figures 1, 3 and 4 plot metrics against degree on a log
axis with 1-2-5 tick structure.  :func:`log_bins` reproduces that
binning; every per-degree distribution in :mod:`repro.core` aggregates
into these bins so curves from different metrics line up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ReproError

__all__ = ["DegreeBins", "log_bins"]

_MANTISSAS = (1, 2, 5)


@dataclass(frozen=True)
class DegreeBins:
    """Half-open degree bins ``[lower[i], lower[i+1])``.

    ``lower`` has one extra element acting as the exclusive upper edge of
    the last bin.  Degrees at or above the last bin's lower edge fall in
    the last bin, so :meth:`index_of` is one gather from a table over
    ``[0, lower[-2]]``, whose size depends on the bins, never on the
    degrees binned.
    """

    lower: np.ndarray
    _table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        lower = np.asarray(self.lower, dtype=np.int64)
        if lower.ndim != 1 or lower.shape[0] < 2:
            raise ReproError("degree bins need at least two edges")
        if lower[0] < 0 or np.any(lower[1:] < lower[:-1]):
            raise ReproError(
                "degree bin edges must be non-negative and non-decreasing"
            )
        # table[d] is the bin of degree d: -1 below lower[0], and bin i
        # (the last one holding d, as ``searchsorted(..., "right") - 1``
        # picks it) for d in [lower[i], lower[i+1]).
        num_bins = lower.shape[0] - 1
        inner = np.arange(num_bins - 1, dtype=np.int64)
        table = np.concatenate(
            [
                np.full(int(lower[0]), -1, dtype=np.int64),
                np.repeat(inner, np.diff(lower[:-1])),
                np.array([num_bins - 1], dtype=np.int64),
            ]
        )
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "_table", table)

    @property
    def num_bins(self) -> int:
        return self.lower.shape[0] - 1

    def centers(self) -> np.ndarray:
        """Geometric bin centers, for plotting on a log axis."""
        lo = self.lower[:-1].astype(np.float64)
        hi = self.lower[1:].astype(np.float64)
        return np.sqrt(lo * hi)

    def labels(self) -> list[str]:
        """Human-readable bin labels like ``'5-10'``."""
        return [
            f"{int(self.lower[i])}-{int(self.lower[i + 1])}"
            for i in range(self.num_bins)
        ]

    def index_of(self, degrees: np.ndarray) -> np.ndarray:
        """Bin index per (non-negative) degree; ``-1`` for degrees below
        the first edge and the last bin for degrees at or above its lower
        edge."""
        degrees = np.asarray(degrees, dtype=np.int64)
        return self._table[np.clip(degrees, 0, int(self.lower[-2]))]


def log_bins(max_degree: int, *, min_degree: int = 1) -> DegreeBins:
    """1-2-5 logarithmic bins covering ``[min_degree, max_degree]``."""
    if max_degree < min_degree:
        raise ReproError(
            f"max_degree {max_degree} below min_degree {min_degree}"
        )
    if min_degree < 1:
        raise ReproError(f"min_degree must be >= 1, got {min_degree}")
    edges: list[int] = []
    power = 1
    while True:
        for mantissa in _MANTISSAS:
            edge = mantissa * power
            if edge > max_degree:
                edges.append(edge)
                break
            if edge >= min_degree:
                edges.append(edge)
        else:
            power *= 10
            continue
        break
    if not edges or edges[0] > min_degree:
        edges.insert(0, min_degree)
    return DegreeBins(lower=np.asarray(edges, dtype=np.int64))
