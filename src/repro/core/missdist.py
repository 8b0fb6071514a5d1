"""Cache miss rate degree distribution (Section V-B, Figure 1).

Bins the simulator's random accesses by the degree of the vertex being
processed and reports the miss rate per bin, showing "how RAs affect
locality types II and III of different vertex classes".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError
from repro.sim.simulator import SimulationResult

from repro.core.binning import DegreeBins, log_bins

__all__ = ["MissRateDistribution", "miss_rate_degree_distribution"]


@dataclass(frozen=True)
class MissRateDistribution:
    """Miss rate (%) per degree bin — one Figure 1 curve."""

    bins: DegreeBins
    miss_rate_percent: np.ndarray
    accesses: np.ndarray
    misses: np.ndarray

    def series(self) -> tuple[np.ndarray, np.ndarray]:
        """(degree bin centers, miss rate %) with empty bins dropped."""
        mask = self.accesses > 0
        return self.bins.centers()[mask], self.miss_rate_percent[mask]

    @property
    def overall_miss_rate_percent(self) -> float:
        total = self.accesses.sum()
        if total == 0:
            return 0.0
        return float(self.misses.sum() / total * 100.0)


def miss_rate_degree_distribution(
    result: SimulationResult,
    *,
    by: str = "proc",
    bins: DegreeBins | None = None,
) -> MissRateDistribution:
    """Degree distribution of the simulated cache miss rate.

    Parameters
    ----------
    result:
        Output of :func:`repro.sim.simulate_spmv`.
    by:
        ``"proc"`` (default, the Figure 1 convention) bins each random
        access by the degree of the vertex being processed; ``"read"``
        bins by the degree of the vertex whose data is accessed.
    """
    if by not in ("proc", "read"):
        raise ReproError(f"by must be 'proc' or 'read', got {by!r}")
    stats = result.random_stats(by=by)
    if by == "proc":
        # Processing degree: the traversal direction's own degree.
        degrees = (
            result.in_degrees
            if result.config.direction == "pull"
            else result.out_degrees
        )
    else:
        # Access frequency of a vertex's data: the opposite degree.
        degrees = (
            result.out_degrees
            if result.config.direction == "pull"
            else result.in_degrees
        )
    if bins is None:
        bins = log_bins(max(1, int(degrees.max()) if degrees.size else 1))
    idx = bins.index_of(degrees)
    valid = idx >= 0
    accesses = np.bincount(
        idx[valid], weights=stats.accesses[valid], minlength=bins.num_bins
    ).astype(np.int64)
    misses = np.bincount(
        idx[valid], weights=stats.misses[valid], minlength=bins.num_bins
    ).astype(np.int64)
    with np.errstate(invalid="ignore", divide="ignore"):
        rate = np.where(accesses > 0, misses / np.maximum(accesses, 1) * 100.0, np.nan)
    return MissRateDistribution(
        bins=bins, miss_rate_percent=rate, accesses=accesses, misses=misses
    )
