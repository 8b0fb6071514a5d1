"""Relabeling (permutation) machinery.

A reordering algorithm produces a *relabeling array* of ``n`` elements,
indexed by the old vertex ID and holding the new vertex ID
(Section II-E of the paper).  This module provides validation,
inversion, and application of such arrays to edge lists.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PermutationError

__all__ = [
    "identity_permutation",
    "random_permutation",
    "is_permutation",
    "check_permutation",
    "invert_permutation",
    "apply_to_edges",
    "sort_order_to_relabeling",
]


def identity_permutation(num_vertices: int) -> np.ndarray:
    """The relabeling that keeps every vertex ID unchanged."""
    if num_vertices < 0:
        raise PermutationError(f"negative size: {num_vertices}")
    return np.arange(num_vertices, dtype=np.int64)


def random_permutation(num_vertices: int, seed: int = 0) -> np.ndarray:
    """A uniformly random relabeling, deterministic in ``seed``."""
    rng = np.random.default_rng(seed)
    return rng.permutation(num_vertices).astype(np.int64)


def is_permutation(relabeling: np.ndarray, num_vertices: int | None = None) -> bool:
    """True when ``relabeling`` is a bijection on ``[0, n)``."""
    relabeling = np.asarray(relabeling)
    if relabeling.ndim != 1:
        return False
    n = relabeling.shape[0]
    if num_vertices is not None and n != num_vertices:
        return False
    if n == 0:
        return True
    if relabeling.min() < 0 or relabeling.max() >= n:
        return False
    seen = np.zeros(n, dtype=bool)
    seen[relabeling] = True
    return bool(seen.all())


def check_permutation(relabeling: np.ndarray, num_vertices: int | None = None) -> np.ndarray:
    """Validate and return the relabeling as an ``int64`` array.

    Raises
    ------
    PermutationError
        If the array is not a permutation of ``[0, n)``.
    """
    arr = np.asarray(relabeling, dtype=np.int64)
    if not is_permutation(arr, num_vertices):
        expected = "" if num_vertices is None else f" of length {num_vertices}"
        raise PermutationError(f"relabeling array is not a permutation{expected}")
    return arr


def invert_permutation(relabeling: np.ndarray) -> np.ndarray:
    """Return ``inv`` with ``inv[new_id] = old_id``."""
    relabeling = check_permutation(relabeling)
    inverse = np.empty_like(relabeling)
    inverse[relabeling] = np.arange(relabeling.shape[0], dtype=np.int64)
    return inverse


def apply_to_edges(
    relabeling: np.ndarray, sources: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rewrite both endpoints of every edge to the new ID space."""
    relabeling = check_permutation(relabeling)
    sources = np.asarray(sources, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    return relabeling[sources], relabeling[targets]


def sort_order_to_relabeling(order: np.ndarray) -> np.ndarray:
    """Convert a processing order into a relabeling array.

    ``order`` lists old vertex IDs in the sequence they should receive new
    IDs (``order[k]`` becomes vertex ``k``); the result is the relabeling
    array indexed by old ID, as produced by the RAs in this library.
    """
    return invert_permutation(order)
