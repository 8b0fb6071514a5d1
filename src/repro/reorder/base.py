"""Reordering algorithm interface.

A reordering (relabeling) algorithm consumes a graph and produces a
relabeling array ``new_id = relabeling[old_id]`` (Section II-E of the
paper).  :class:`ReorderingAlgorithm` standardizes that contract and
measures the wall-clock preprocessing time Table II reports (its
peak-memory column is measured around a whole child process; see
:mod:`repro.bench.experiments.table2_preprocessing`).
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ReorderingError
from repro.graph.graph import Graph
from repro.graph.permute import check_permutation
from repro.obs import span

__all__ = ["ReorderResult", "ReorderingAlgorithm"]


@dataclass(frozen=True)
class ReorderResult:
    """A validated relabeling plus its preprocessing time."""

    algorithm: str
    relabeling: np.ndarray
    preprocessing_seconds: float
    details: dict = field(default_factory=dict)

    def apply(self, graph: Graph) -> Graph:
        """Rebuild ``graph`` in the new ID space."""
        return graph.permuted(self.relabeling)


class ReorderingAlgorithm(ABC):
    """Base class for all relabeling algorithms.

    Subclasses implement :meth:`compute`, returning the relabeling
    array.  Calling the instance wraps the computation with timing and
    permutation validation.
    """

    #: Short name used by registries, tables and reports.
    name: str = "base"

    def __call__(self, graph: Graph) -> ReorderResult:
        if graph.num_vertices == 0:
            raise ReorderingError("cannot reorder an empty graph")
        details: dict = {}
        start = time.perf_counter()
        with span(
            f"reorder.{self.name}",
            vertices=graph.num_vertices,
            edges=graph.num_edges,
        ):
            relabeling = self.compute(graph, details)
        elapsed = time.perf_counter() - start
        relabeling = check_permutation(relabeling, graph.num_vertices)
        return ReorderResult(
            algorithm=self.name,
            relabeling=relabeling,
            preprocessing_seconds=elapsed,
            details=details,
        )

    @abstractmethod
    def compute(self, graph: Graph, details: dict) -> np.ndarray:
        """Produce the relabeling array; may record extras in ``details``."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
