"""Simulated address-space layout of an SpMV traversal.

The traversal of Algorithm 1 touches four arrays (Section II of the
paper), laid out here in one flat byte address space:

=============  =====================  ==========  =================
region         contents               elem bytes  access pattern
=============  =====================  ==========  =================
OFFSETS        CSC/CSR offsets        8           sequential
EDGES          CSC/CSR edges          4           sequential stream
VERTEX_DATA    old vertex data (Di)   8           **random reads**
VERTEX_OUT     new vertex data        8           sequential writes
=============  =====================  ==========  =================

The random reads into ``VERTEX_DATA`` are the accesses reordering
algorithms try to make local; everything else streams.  The address
space exposes *cache-line IDs* (byte address divided by the line size)
because the simulator works at line granularity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError

__all__ = ["Region", "AddressSpace"]

# The paper's element sizes (Section III-B).  The cache, TLB and iHTL
# sizing read VERTEX_DATA_BYTES from here.
OFFSET_BYTES = 8
EDGE_ID_BYTES = 4
VERTEX_DATA_BYTES = 8


class Region:
    """Region codes; values index the counters produced by region_counts."""

    OFFSETS = 0
    EDGES = 1
    VERTEX_DATA = 2
    VERTEX_OUT = 3

    NAMES = ("offsets", "edges", "vertex_data", "vertex_out")
    COUNT = 4


def _align_up(value: int, alignment: int) -> int:
    return (value + alignment - 1) // alignment * alignment


@dataclass(frozen=True)
class AddressSpace:
    """Byte layout for a graph of ``num_vertices`` / ``num_edges``, with
    the module's element sizes."""

    num_vertices: int
    num_edges: int
    line_size: int = 64

    def __post_init__(self) -> None:
        if self.line_size <= 0 or self.line_size & (self.line_size - 1):
            raise SimulationError(f"line_size must be a power of two, got {self.line_size}")
        if self.num_vertices < 0 or self.num_edges < 0:
            raise SimulationError("negative graph dimensions")

    # -- region base addresses (line aligned so regions never share a line)

    @property
    def offsets_base(self) -> int:
        return 0

    @property
    def edges_base(self) -> int:
        size = (self.num_vertices + 1) * OFFSET_BYTES
        return _align_up(self.offsets_base + size, self.line_size)

    @property
    def data_base(self) -> int:
        size = self.num_edges * EDGE_ID_BYTES
        return _align_up(self.edges_base + size, self.line_size)

    @property
    def out_base(self) -> int:
        size = self.num_vertices * VERTEX_DATA_BYTES
        return _align_up(self.data_base + size, self.line_size)

    @property
    def end(self) -> int:
        size = self.num_vertices * VERTEX_DATA_BYTES
        return _align_up(self.out_base + size, self.line_size)

    # -- line helpers ------------------------------------------------------

    def data_lines(self, vertices: np.ndarray) -> np.ndarray:
        """Cache-line ID of ``Di[v]`` for each vertex (vectorized)."""
        vertices = np.asarray(vertices, dtype=np.int64)
        return (self.data_base + vertices * VERTEX_DATA_BYTES) // self.line_size

    def out_lines(self, vertices: np.ndarray) -> np.ndarray:
        """Cache-line ID of ``Di+1[v]`` for each vertex."""
        vertices = np.asarray(vertices, dtype=np.int64)
        return (self.out_base + vertices * VERTEX_DATA_BYTES) // self.line_size

    def offsets_lines(self, vertices: np.ndarray) -> np.ndarray:
        """Cache-line ID of ``offsets[v]``."""
        vertices = np.asarray(vertices, dtype=np.int64)
        return (self.offsets_base + vertices * OFFSET_BYTES) // self.line_size

    def edges_lines(self, edge_indices: np.ndarray) -> np.ndarray:
        """Cache-line ID of ``edges[i]``."""
        edge_indices = np.asarray(edge_indices, dtype=np.int64)
        return (self.edges_base + edge_indices * EDGE_ID_BYTES) // self.line_size

    def vertices_per_data_line(self) -> int:
        """How many vertex-data elements share one cache line."""
        return max(1, self.line_size // VERTEX_DATA_BYTES)

    def region_of_lines(self, lines: np.ndarray) -> np.ndarray:
        """Region code of each cache-line ID (vectorized)."""
        addresses = np.asarray(lines, dtype=np.int64) * self.line_size
        regions = np.empty(addresses.shape, dtype=np.uint8)
        regions[:] = Region.OFFSETS
        regions[addresses >= self.edges_base] = Region.EDGES
        regions[addresses >= self.data_base] = Region.VERTEX_DATA
        regions[addresses >= self.out_base] = Region.VERTEX_OUT
        if addresses.size and (addresses.min() < 0 or addresses.max() >= self.end):
            raise SimulationError("cache line outside the simulated address space")
        return regions

    def region_counts(self, lines: np.ndarray) -> np.ndarray:
        """Histogram of lines per region (length ``Region.COUNT``)."""
        regions = self.region_of_lines(lines)
        return np.bincount(regions, minlength=Region.COUNT).astype(np.int64)

    def region_counts_batch(self, line_groups: "list[np.ndarray]") -> np.ndarray:
        """Region histograms for many line groups in one pass.

        Equivalent to ``np.stack([self.region_counts(g) for g in
        line_groups])`` but classifies the concatenated lines once and
        splits the histogram with a single ``bincount`` over
        ``group_id * Region.COUNT + region`` keys.  :func:`simulate_spmv`
        counts its ECS scans' resident-line sets with it, once per run.
        Returns an int64 array of shape ``(len(line_groups),
        Region.COUNT)``.
        """
        num_groups = len(line_groups)
        if num_groups == 0:
            return np.zeros((0, Region.COUNT), dtype=np.int64)
        lengths = np.array([np.asarray(g).shape[0] for g in line_groups])
        total = int(lengths.sum())
        if total == 0:
            return np.zeros((num_groups, Region.COUNT), dtype=np.int64)
        all_lines = np.concatenate([np.asarray(g) for g in line_groups])
        regions = self.region_of_lines(all_lines)
        gid = np.repeat(np.arange(num_groups, dtype=np.int64), lengths)
        keys = gid * Region.COUNT + regions
        counts = np.bincount(keys, minlength=num_groups * Region.COUNT)
        return counts.reshape(num_groups, Region.COUNT).astype(np.int64)
