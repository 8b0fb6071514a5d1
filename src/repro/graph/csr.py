"""Compressed sparse adjacency structure.

The paper (Section II-A) represents graph topology in Compressed Sparse
Rows (CSR, out-neighbours) and Compressed Sparse Columns (CSC,
in-neighbours).  Both are the same data structure — an ``offsets`` array
of ``n + 1`` elements and a flat ``targets`` array of ``m`` elements —
differing only in which endpoint of each edge they enumerate.
:class:`Adjacency` implements that shared structure; :class:`repro.graph.graph.Graph`
pairs one instance per direction.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import GraphFormatError

__all__ = ["Adjacency"]

# Packed edge keys ``(source - base) * span + (target - base)`` must stay
# below this bound to fit in int64.
_KEY_LIMIT = 1 << 63


class Adjacency:
    """Immutable compressed adjacency (one direction of a directed graph).

    Parameters
    ----------
    offsets:
        ``int64`` array of ``n + 1`` non-decreasing indices into ``targets``.
        ``targets[offsets[v]:offsets[v + 1]]`` are the neighbours of ``v``.
    targets:
        ``int64`` array of neighbour vertex IDs, each in ``[0, n)``.
    validate:
        When true (default), structural invariants are checked eagerly.

    Neighbour lists are stored in ascending ID order by all constructors
    in this library; :meth:`from_edges` sorts them.  Sortedness is what
    makes the N2N AID metric (Equation 1 of the paper) well defined.
    """

    __slots__ = ("offsets", "targets")

    def __init__(
        self, offsets: np.ndarray, targets: np.ndarray, *, validate: bool = True
    ) -> None:
        offsets = np.asarray(offsets, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        if validate:
            _validate_structure(offsets, targets)
        self.offsets = offsets
        self.targets = targets
        self.offsets.setflags(write=False)
        self.targets.setflags(write=False)

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_edges(
        cls, num_vertices: int, sources: np.ndarray, targets: np.ndarray
    ) -> "Adjacency":
        """Build adjacency over ``sources[i] -> targets[i]`` edges.

        The result enumerates, for each source vertex, its target
        neighbours in ascending ID order; duplicate edges are kept.  To
        obtain the reverse direction, swap the two edge arrays at the
        call site.
        """
        if num_vertices < 0:
            raise GraphFormatError(f"negative vertex count: {num_vertices}")
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        if sources.shape != targets.shape or sources.ndim != 1:
            raise GraphFormatError(
                f"edge arrays must be 1-D and equal length, got shapes "
                f"{sources.shape} and {targets.shape}"
            )
        if sources.size:
            lo = min(int(sources.min()), int(targets.min()))
            hi = max(int(sources.max()), int(targets.max()))
            if lo < 0 or hi >= num_vertices:
                raise GraphFormatError(
                    f"edge endpoint out of range [0, {num_vertices}): "
                    f"saw IDs in [{lo}, {hi}]"
                )
        _, ordered_targets = _sort_edge_pairs(sources, targets, 0, num_vertices)
        degrees = np.bincount(sources, minlength=num_vertices).astype(np.int64)
        offsets = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(degrees, out=offsets[1:])
        return cls(offsets, ordered_targets, validate=False)

    # -- basic shape ------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self.offsets.shape[0] - 1

    @property
    def num_edges(self) -> int:
        """Number of stored edges ``m``."""
        return self.targets.shape[0]

    def degrees(self) -> np.ndarray:
        """Degree of every vertex in this direction (``int64``, length n)."""
        return np.diff(self.offsets)

    def degree(self, vertex: int) -> int:
        """Degree of one vertex."""
        self._check_vertex(vertex)
        return int(self.offsets[vertex + 1] - self.offsets[vertex])

    def neighbours(self, vertex: int) -> np.ndarray:
        """Read-only neighbour array of ``vertex`` (ascending IDs)."""
        self._check_vertex(vertex)
        return self.targets[self.offsets[vertex] : self.offsets[vertex + 1]]

    def iter_neighbour_lists(self) -> Iterator[np.ndarray]:
        """Yield every vertex's neighbour array in vertex-ID order."""
        offsets = self.offsets
        targets = self.targets
        for v in range(self.num_vertices):
            yield targets[offsets[v] : offsets[v + 1]]

    def edge_sources(self) -> np.ndarray:
        """Expand offsets back to a per-edge source-vertex array."""
        return np.repeat(np.arange(self.num_vertices, dtype=np.int64), self.degrees())

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(sources, targets)`` edge arrays in storage order."""
        return self.edge_sources(), self.targets.copy()

    def transpose(self) -> "Adjacency":
        """Reverse every edge (CSR <-> CSC)."""
        return Adjacency.from_edges(self.num_vertices, self.targets, self.edge_sources())

    def has_sorted_neighbours(self) -> bool:
        """True when every neighbour list is in ascending order."""
        if self.num_edges == 0:
            return True
        ascending = np.ones(self.num_edges, dtype=bool)
        ascending[1:] = self.targets[1:] >= self.targets[:-1]
        # Positions where a new neighbour list starts may break order.
        starts = self.offsets[1:-1]
        ascending[starts[starts < self.num_edges]] = True
        return bool(ascending.all())

    # -- dunder -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Adjacency):
            return NotImplemented
        return np.array_equal(self.offsets, other.offsets) and np.array_equal(
            self.targets, other.targets
        )

    # Defining __eq__ without __hash__ sets __hash__ to None: unhashable.

    def __repr__(self) -> str:
        return f"Adjacency(n={self.num_vertices}, m={self.num_edges})"

    def _check_vertex(self, vertex: int) -> None:
        if not 0 <= vertex < self.num_vertices:
            raise GraphFormatError(
                f"vertex {vertex} out of range [0, {self.num_vertices})"
            )


def _validate_structure(offsets: np.ndarray, targets: np.ndarray) -> None:
    if offsets.ndim != 1 or offsets.shape[0] < 1:
        raise GraphFormatError("offsets must be a 1-D array of length >= 1")
    if targets.ndim != 1:
        raise GraphFormatError("targets must be a 1-D array")
    if offsets[0] != 0:
        raise GraphFormatError(f"offsets[0] must be 0, got {offsets[0]}")
    if offsets[-1] != targets.shape[0]:
        raise GraphFormatError(
            f"offsets[-1] ({offsets[-1]}) must equal number of edges "
            f"({targets.shape[0]})"
        )
    if np.any(np.diff(offsets) < 0):
        raise GraphFormatError("offsets must be non-decreasing")
    n = offsets.shape[0] - 1
    if targets.size and (targets.min() < 0 or targets.max() >= n):
        raise GraphFormatError(f"target vertex IDs must lie in [0, {n})")


def _sort_edge_pairs(
    sources: np.ndarray,
    targets: np.ndarray,
    base: int,
    span: int,
    *,
    unique: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Edges sorted by ``(source, target)``, through one sort of int64 keys.

    Every endpoint must lie in ``[base, base + span)``.  Each edge packs
    into the key ``(source - base) * span + (target - base)``, whose
    integer order is the lexicographic ``(source, target)`` order, so
    one ``np.sort`` orders by both endpoints and equal keys are equal
    pairs.  ``unique=True`` keeps one copy of each pair.  Raises
    :class:`GraphFormatError` when ``span ** 2`` reaches ``2 ** 63``,
    where the keys would wrap.
    """
    base, span = int(base), int(span)
    if span * span >= _KEY_LIMIT:
        raise GraphFormatError(
            f"{span} vertex IDs are too many to pack an edge into int64 "
            f"(needs span**2 < 2**63)"
        )
    keys = sources - base
    keys *= span
    keys += targets - base if base else targets
    keys.sort()
    if unique:
        keep = np.ones(keys.shape[0], dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=keep[1:])
        keys = keys[keep]
    # Division by a scalar is much cheaper than ``%`` or ``np.divmod``,
    # so the remainder comes from the quotient.
    ordered_sources = keys // span
    keys -= ordered_sources * span
    if base:
        ordered_sources += base
        keys += base
    return ordered_sources, keys
