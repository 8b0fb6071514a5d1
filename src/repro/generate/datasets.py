"""Dataset registry mirroring Table I of the paper.

The paper evaluates nine real graphs of 1-8 billion edges (WebBase,
Twitter-MPI, Friendster, SK-Domain, Web-CC12, UK-Delis, UK-Union,
UK-Domain, ClueWeb09).  Those datasets and the 768 GB machine they need
are unavailable here, so the registry provides *scaled synthetic
analogues* — one per paper dataset — produced by the structural
generators in :mod:`repro.generate.social` and
:mod:`repro.generate.webgraph` (see DESIGN.md, substitution table).

Every entry records the paper dataset it stands in for, its family
(``SN`` social network / ``WG`` web graph) and the generator parameters.
Graph sizes scale with the ``REPRO_SCALE`` environment variable
(float multiplier, default 1.0) so experiments can be rerun larger.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

from repro.errors import ExperimentError
from repro.graph.build import build_graph
from repro.graph.graph import Graph

from repro.generate.rmat import rmat_edges
from repro.generate.social import social_network
from repro.generate.webgraph import web_graph

__all__ = [
    "DatasetSpec",
    "DATASETS",
    "SCALE_DATASETS",
    "dataset_names",
    "load_dataset",
    "scale_factor",
]


def scale_factor() -> float:
    """Workload multiplier from the ``REPRO_SCALE`` environment variable.

    The value is itself fingerprinted into every dataset content key
    (it appears in each stage's ``key`` dict), so two runs with
    different ``REPRO_SCALE`` produce *different* keys rather than
    silently colliding.
    """
    raw = os.environ.get("REPRO_SCALE", "1.0")
    try:
        value = float(raw)
    except ValueError as exc:
        raise ExperimentError(f"REPRO_SCALE must be a float, got {raw!r}") from exc
    if not math.isfinite(value) or value <= 0:
        raise ExperimentError(
            f"REPRO_SCALE must be a positive finite float, got {raw!r}"
        )
    return value


@dataclass(frozen=True)
class DatasetSpec:
    """One row of the (scaled) Table I registry."""

    name: str
    paper_name: str
    family: str  # "SN" or "WG"
    base_vertices: int
    average_degree: float
    seed: int
    builder: Callable[["DatasetSpec", float], Graph]

    def build(self, scale: float | None = None) -> Graph:
        """Generate the graph, honouring ``REPRO_SCALE`` unless overridden."""
        if scale is None:
            scale = scale_factor()
        return self.builder(self, scale)


def _build_social(spec: DatasetSpec, scale: float) -> Graph:
    target = max(1024, int(spec.base_vertices * scale))
    log_scale = max(10, int(round(math.log2(target))))
    return social_network(
        scale=log_scale,
        average_degree=spec.average_degree,
        name=spec.name,
        seed=spec.seed,
    )


def _build_web(spec: DatasetSpec, scale: float) -> Graph:
    num_vertices = max(1024, int(spec.base_vertices * scale))
    return web_graph(
        num_vertices=num_vertices,
        average_degree=spec.average_degree,
        name=spec.name,
        seed=spec.seed,
    )


def _build_rmat(spec: DatasetSpec, scale: float) -> Graph:
    target = max(1024, int(spec.base_vertices * scale))
    log_scale = max(10, int(round(math.log2(target))))
    num_edges = int((1 << log_scale) * spec.average_degree)
    sources, targets = rmat_edges(log_scale, num_edges, seed=spec.seed)
    return build_graph(1 << log_scale, sources, targets, name=spec.name).graph


_BUILDERS: dict[str, Callable[[DatasetSpec, float], Graph]] = {
    "SN": _build_social,
    "WG": _build_web,
    "RM": _build_rmat,
}


def _spec(
    name: str,
    paper_name: str,
    family: str,
    base_vertices: int,
    average_degree: float,
    seed: int,
) -> DatasetSpec:
    builder = _BUILDERS[family]
    return DatasetSpec(
        name=name,
        paper_name=paper_name,
        family=family,
        base_vertices=base_vertices,
        average_degree=average_degree,
        seed=seed,
        builder=builder,
    )


#: Scaled analogues of Table I.  ``base_vertices`` and ``average_degree``
#: keep the *relative* proportions of the paper's datasets (average
#: degrees match the paper: e.g. Twitter-MPI ~ 36, UK-Domain ~ 63).
DATASETS: dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in [
        _spec("webb-mini", "WebBase-2001", "WG", 24576, 9.0, 101),
        _spec("twtr-mini", "Twitter MPI", "SN", 16384, 36.0, 102),
        _spec("frnd-mini", "Friendster", "SN", 16384, 28.0, 103),
        _spec("sk-mini", "SK-Domain", "WG", 16384, 40.0, 104),
        _spec("wbcc-mini", "Web-CC12", "WG", 20480, 22.0, 105),
        _spec("ukdls-mini", "UK-Delis", "WG", 20480, 36.0, 106),
        _spec("uu-mini", "UK-Union", "WG", 24576, 41.0, 107),
        _spec("ukdmn-mini", "UK-Domain", "WG", 20480, 63.0, 108),
        _spec("clwb-mini", "ClueWeb09", "WG", 32768, 4.6, 109),
    ]
}


#: Scale tier (ISSUE 7 / ROADMAP item 4): one entry per generator family
#: at ~10⁷ edges for ``REPRO_SCALE=1``, reaching the 10⁸ band at
#: ``REPRO_SCALE=10``.  These are the sizes where the diameter-dependence
#: study (arXiv 2111.12281) predicts reordering rankings start to shift;
#: :func:`repro.sim.simulator.simulate_spmv` streams them in bounded
#: memory.
SCALE_DATASETS: dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in [
        _spec("rmat-scale", "RMAT ~2^21x8", "RM", 1 << 21, 8.0, 201),
        _spec("web-scale", "WebBase-2001", "WG", 1 << 20, 12.0, 202),
        _spec("social-scale", "Twitter MPI", "SN", 1 << 20, 16.0, 203),
    ]
}

_TIERS = ("mini", "scale", "all")


def _registry(tier: str) -> dict[str, DatasetSpec]:
    if tier == "mini":
        return DATASETS
    if tier == "scale":
        return SCALE_DATASETS
    if tier == "all":
        return {**DATASETS, **SCALE_DATASETS}
    raise ExperimentError(f"unknown dataset tier {tier!r}; expected one of {_TIERS}")


def dataset_names(family: str | None = None, *, tier: str = "mini") -> list[str]:
    """Registry names, optionally filtered to one family ('SN'/'WG'/'RM').

    ``tier`` selects the registry: ``"mini"`` (default, the Table I
    analogues), ``"scale"`` (the 10⁷–10⁸-edge tier) or ``"all"``.
    """
    registry = _registry(tier)
    if family is None:
        return list(registry)
    if family not in _BUILDERS:
        raise ExperimentError(f"unknown dataset family: {family!r}")
    return [name for name, spec in registry.items() if spec.family == family]


def load_dataset(name: str, *, scale: float | None = None) -> Graph:
    """Generate the named dataset analogue (deterministic per name).

    Looks the name up across both tiers — mini analogues and the
    scale-tier entries.
    """
    registry = _registry("all")
    if name not in registry:
        raise ExperimentError(
            f"unknown dataset {name!r}; available: {sorted(registry)}"
        )
    return registry[name].build(scale)
