"""Simulated data TLB.

DTLB misses in the paper capture locality "at larger granularity, i.e.
at longer reuse distances than L3 misses" (Section VI-E).  The TLB is a
small set-associative cache of page translations; we reuse the cache
machinery on page IDs derived from the trace's cache-line IDs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.sim.address_space import VERTEX_DATA_BYTES
from repro.sim.cache import CacheConfig, SetAssociativeCache, SimulatedAccesses

__all__ = ["TLBConfig", "simulate_tlb", "lines_to_pages", "tlb_cache"]

TLB_COVERAGE = 2.0  # scaled TLB reach over the vertex data array


@dataclass(frozen=True)
class TLBConfig:
    """TLB geometry: ``entries`` translations, ``ways``-associative.

    ``page_size`` is in bytes and must be a power-of-two multiple of the
    cache line size of the trace being fed in.  Replacement is LRU,
    which is the common choice for small TLBs.
    """

    entries: int = 64
    ways: int = 4
    page_size: int = 4096

    def __post_init__(self) -> None:
        if self.entries <= 0 or self.ways <= 0:
            raise SimulationError("entries and ways must be positive")
        if self.entries % self.ways:
            raise SimulationError("entries must be divisible by ways")
        if self.page_size <= 0 or self.page_size & (self.page_size - 1):
            raise SimulationError("page_size must be a power of two")

    @property
    def num_sets(self) -> int:
        return self.entries // self.ways

    @classmethod
    def scaled_for(cls, num_vertices: int) -> "TLBConfig":
        """Default-geometry TLB whose reach covers ``TLB_COVERAGE`` times
        the vertex data array.

        Mirrors :meth:`repro.sim.cache.CacheConfig.scaled_for`.  The paper
        notes that "the total size of huge memory pages that are cached by
        TLB is much greater than the aggregate CPU cache capacity"
        (Section VI-E), hence a reach of twice the data array — DTLB
        misses stay orders of magnitude rarer than L3 misses, as in
        Table IV.
        """
        data_bytes = max(1, num_vertices * VERTEX_DATA_BYTES)
        target_page = max(64, int(data_bytes * TLB_COVERAGE / cls.entries))
        page_size = 1 << int(np.ceil(np.log2(target_page)))
        return cls(page_size=page_size)


def lines_to_pages(lines: np.ndarray, line_size: int, page_size: int) -> np.ndarray:
    """Convert non-negative cache-line IDs to page IDs, in the narrowest
    integer dtype that holds the largest of them."""
    if page_size < line_size or page_size % line_size:
        raise SimulationError(
            f"page_size {page_size} must be a multiple of line_size {line_size}"
        )
    # Both sizes are powers of two, so the ratio is one too.
    shift = (page_size // line_size).bit_length() - 1
    lines = np.asarray(lines)
    top = int(lines.max()) >> shift if lines.shape[0] else 0
    pages = np.empty(lines.shape[0], dtype=np.min_scalar_type(top))
    np.right_shift(lines, shift, out=pages, casting="unsafe")
    return pages


def tlb_cache(config: TLBConfig) -> SetAssociativeCache:
    """A fresh LRU cache of page translations with the TLB's geometry.

    Feed it page IDs (:func:`lines_to_pages`); it keeps its state across
    :meth:`~repro.sim.cache.SetAssociativeCache.simulate` calls, so a
    streamed trace can be replayed chunk by chunk.
    """
    return SetAssociativeCache(
        CacheConfig(
            num_sets=config.num_sets,
            ways=config.ways,
            line_size=64,  # irrelevant at page granularity
            policy="lru",
        )
    )


def simulate_tlb(
    lines: np.ndarray, line_size: int, config: TLBConfig
) -> SimulatedAccesses:
    """Run the trace's page stream through a fresh LRU TLB."""
    pages = lines_to_pages(lines, line_size, config.page_size)
    return tlb_cache(config).simulate(pages)
