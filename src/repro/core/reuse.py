"""Reuse-distance (LRU stack distance) analysis.

Background metric the paper positions its tools against (Section I):
reuse-distance curves summarize whole-program locality but "do not
reveal detailed information about the impact of RAs".  Here the exact
distances drive the simulator's accuracy check
(:mod:`repro.core.validation`): an access hits a fully-associative LRU
cache of ``C`` lines exactly when its distance is below ``C``.

The implementation is the standard exact algorithm: a Fenwick tree over
access timestamps marks the most recent position of every line; the
stack distance of an access is the number of distinct lines touched
since the line's previous access.
"""

from __future__ import annotations

import numpy as np

__all__ = ["reuse_distances"]

_COLD = -1


def reuse_distances(lines: np.ndarray) -> np.ndarray:
    """Exact LRU stack distance of every access (``-1`` for cold misses)."""
    lines = np.asarray(lines, dtype=np.int64)
    num_accesses = lines.shape[0]
    distances = np.empty(num_accesses, dtype=np.int64)
    tree = [0] * (num_accesses + 1)  # Fenwick tree over timestamps

    def add(index: int, delta: int) -> None:
        index += 1
        while index <= num_accesses:
            tree[index] += delta
            index += index & (-index)

    def prefix(index: int) -> int:
        index += 1
        total = 0
        while index > 0:
            total += tree[index]
            index -= index & (-index)
        return total

    last_position: dict[int, int] = {}
    total_marked = 0
    for t, line in enumerate(lines.tolist()):
        prev = last_position.get(line)
        if prev is None:
            distances[t] = _COLD
        else:
            # Distinct lines touched strictly after prev: marks in (prev, t).
            distances[t] = total_marked - prefix(prev)
            add(prev, -1)
            total_marked -= 1
        add(t, 1)
        total_marked += 1
        last_position[line] = t
    return distances
