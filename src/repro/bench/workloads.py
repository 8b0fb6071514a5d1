"""Shared workload definitions and caching for the experiment harness.

Every experiment draws its graphs, reorderings and simulations from
here, so repeated benchmark invocations of the same (dataset, RA,
config) combination are computed once per process.  When a
:class:`~repro.store.store.ArtifactStore` is attached, each stage is
additionally memoized *on disk* through :func:`repro.store.memo.cached_stage`:
the expensive upstream stages (dataset build -> reorder -> rebuild ->
cache simulation) are computed once ever per (parameters, code version)
and every later run — in this process or the next — loads them back
verified from the store.  Workload sizes scale with ``REPRO_SCALE``
(see :mod:`repro.generate.datasets`), which participates in every
content key.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import ExperimentError
from repro.generate.datasets import DATASETS, load_dataset, scale_factor
from repro.obs import span
from repro.graph.graph import Graph
from repro.reorder import ReorderResult, get_algorithm
from repro.sim.simulator import SimulationConfig, SimulationResult, simulate_spmv
from repro.store.manifest import RunManifest
from repro.store.memo import cached_stage
from repro.store.serializers import StoredSimulation
from repro.store.store import ArtifactStore

__all__ = [
    "SOCIAL_DATASETS",
    "WEB_DATASETS",
    "SIM_DATASETS",
    "STUDIED_ALGORITHMS",
    "EXTENDED_ALGORITHMS",
    "Workloads",
    "workloads",
]

#: Dataset analogues used by the simulation-heavy experiments (two per
#: family keeps Table III/IV/V/VII and Figure 1 runtimes reasonable; the
#: cheap structural experiments use the full registry).
SOCIAL_DATASETS = ("twtr-mini", "frnd-mini")
WEB_DATASETS = ("sk-mini", "uu-mini")
SIM_DATASETS = SOCIAL_DATASETS + WEB_DATASETS

#: The RAs the paper studies, in its table column order (Bl, SB, GO, RO).
STUDIED_ALGORITHMS = ("identity", "slashburn", "gorder", "rabbit")

#: RAs from the related literature (ROADMAP item 3) the simulation-heavy
#: experiments report alongside the paper's own columns: Degree-Based
#: Grouping, per-community composition, and trace-profiled clustering.
EXTENDED_ALGORITHMS = ("dbg", "community", "hisorder")


def _params_key(params: dict) -> tuple:
    """Hashable in-memory key component for algorithm kwargs."""
    return tuple(sorted(params.items()))


# -- store-backed pipeline stages -------------------------------------------
#
# Module-level functions so the `cached_stage` decorator key derivation
# stays independent of any Workloads instance; the instance threads its
# store/refresh/manifest through the reserved keyword arguments.
# Upstream inputs arrive as zero-argument loaders that only the stage
# body calls, so a store hit reads exactly the artifact it returns.

@cached_stage(
    "graph",
    code=("repro.generate", "repro.graph"),
    key=lambda dataset: {"dataset": dataset, "scale": scale_factor()},
)
def _graph_stage(dataset: str) -> Graph:
    return load_dataset(dataset)


@cached_stage(
    "reordering",
    code=("repro.generate", "repro.graph", "repro.reorder"),
    key=lambda load_graph, dataset, algorithm, track_memory, params, factory: {
        "dataset": dataset,
        "scale": scale_factor(),
        "algorithm": algorithm,
        "track_memory": track_memory,
        "params": params,
    },
)
def _reordering_stage(
    load_graph: Callable[[], Graph],
    dataset: str,
    algorithm: str,
    track_memory: bool,
    params: dict,
    factory: "Optional[Callable[[], object]]",
) -> ReorderResult:
    instance = factory() if factory is not None else get_algorithm(algorithm, **params)
    return instance(load_graph(), track_memory=track_memory)  # type: ignore[operator]


@cached_stage(
    "reordered-graph",
    code=("repro.generate", "repro.graph", "repro.reorder"),
    key=lambda load_graph, load_result, dataset, algorithm, params: {
        "dataset": dataset,
        "scale": scale_factor(),
        "algorithm": algorithm,
        "params": params,
    },
)
def _reordered_graph_stage(
    load_graph: Callable[[], Graph],
    load_result: Callable[[], ReorderResult],
    dataset: str,
    algorithm: str,
    params: dict,
) -> Graph:
    result: ReorderResult = load_result()
    return result.apply(load_graph())


@cached_stage(
    "simulation",
    code=("repro.generate", "repro.graph", "repro.reorder", "repro.sim"),
    key=lambda graph, config, dataset, algorithm, params, direction, with_scans, reverse: {
        "dataset": dataset,
        "scale": scale_factor(),
        "algorithm": algorithm,
        "params": params,
        "direction": direction,
        "with_scans": with_scans,
        "reverse": reverse,
    },
    encode=StoredSimulation.from_result,
    decode=lambda stored, graph, config, *rest: stored.to_result(graph, config),
)
def _simulation_stage(
    graph: Graph,
    config: SimulationConfig,
    dataset: str,
    algorithm: str,
    params: dict,
    direction: str,
    with_scans: bool,
    reverse: bool,
) -> SimulationResult:
    return simulate_spmv(graph, config)


def _scan_config(graph: Graph, direction: str) -> SimulationConfig:
    """The ECS-sampling config the simulation-heavy experiments use."""
    config = SimulationConfig.scaled_for(graph, direction=direction)
    approx_len = graph.num_edges + graph.num_vertices // 4
    return SimulationConfig(
        cache=config.cache,
        tlb=config.tlb,
        num_threads=config.num_threads,
        interleave_interval=config.interleave_interval,
        scan_interval=max(1, approx_len // 64),
        direction=config.direction,
        promote_sequential=config.promote_sequential,
        timing=config.timing,
    )


class Workloads:
    """Process-wide cache of graphs, reorderings and simulations.

    ``store`` attaches a content-addressed on-disk layer underneath the
    in-memory dictionaries; ``refresh=True`` recomputes every stage and
    overwrites its stored artifact.  ``manifest`` (created automatically)
    records one entry per stage call — hit or computed, with durations —
    and :attr:`stats` aggregates it for cache-behavior assertions.
    """

    def __init__(
        self,
        store: "ArtifactStore | None" = None,
        *,
        refresh: bool = False,
        manifest: "RunManifest | None" = None,
    ) -> None:
        self._store = store
        self._refresh = refresh
        self.manifest = manifest if manifest is not None else RunManifest.start()
        self._graphs: dict[str, Graph] = {}
        self._reorderings: dict[tuple, ReorderResult] = {}
        self._reordered_graphs: dict[tuple, Graph] = {}
        self._simulations: dict[tuple, SimulationResult] = {}

    @property
    def store(self) -> "ArtifactStore | None":
        return self._store

    @property
    def stats(self) -> dict:
        """Per-stage ``{"hits": n, "computed": n}`` from the manifest."""
        return self.manifest.counts()

    def _stage_kwargs(self) -> dict:
        return {
            "store": self._store,
            "refresh": self._refresh,
            "manifest": self.manifest,
        }

    def graph(self, dataset: str) -> Graph:
        """The named dataset analogue (generated once, store-backed)."""
        if dataset not in DATASETS:
            raise ExperimentError(
                f"unknown dataset {dataset!r}; available: {sorted(DATASETS)}"
            )
        if dataset not in self._graphs:
            with span("workload.graph", dataset=dataset):
                self._graphs[dataset] = _graph_stage(
                    dataset, **self._stage_kwargs()
                )
        return self._graphs[dataset]

    def reordering(
        self,
        dataset: str,
        algorithm: str,
        *,
        track_memory: bool = False,
        factory: "Callable[[], object] | None" = None,
        **kwargs,
    ) -> ReorderResult:
        """RA result on the dataset.

        ``kwargs`` parameterize the algorithm and join the memo key, so
        variants (a custom SlashBurn ``k``, an EDR window) cache
        independently.  ``factory`` builds a non-registry algorithm
        instance; the ``algorithm`` name + kwargs still form the key, so
        callers must give variant factories distinct names.

        ``track_memory=True`` wraps the run in tracemalloc (an order of
        magnitude slower), so only the Table II experiment requests it —
        and reads the preprocessing *time* from the untracked run.
        """
        key = (dataset, algorithm, track_memory, _params_key(kwargs))
        if key not in self._reorderings:
            with span("workload.reordering", dataset=dataset, algorithm=algorithm):
                self._reorderings[key] = _reordering_stage(
                    lambda: self.graph(dataset),
                    dataset,
                    algorithm,
                    track_memory,
                    dict(kwargs),
                    factory,
                    **self._stage_kwargs(),
                )
        return self._reorderings[key]

    def reordered_graph(
        self,
        dataset: str,
        algorithm: str,
        *,
        factory: "Callable[[], object] | None" = None,
        **kwargs,
    ) -> Graph:
        """The dataset rebuilt in the RA's new ID space."""
        key = (dataset, algorithm, _params_key(kwargs))
        if key not in self._reordered_graphs:
            if algorithm == "identity":
                self._reordered_graphs[key] = self.graph(dataset)
            else:
                self._reordered_graphs[key] = _reordered_graph_stage(
                    lambda: self.graph(dataset),
                    lambda: self.reordering(
                        dataset, algorithm, factory=factory, **kwargs
                    ),
                    dataset,
                    algorithm,
                    dict(kwargs),
                    **self._stage_kwargs(),
                )
        return self._reordered_graphs[key]

    def simulation(
        self,
        dataset: str,
        algorithm: str = "identity",
        *,
        direction: str = "pull",
        with_scans: bool = True,
        reverse: bool = False,
        factory: "Callable[[], object] | None" = None,
        **kwargs,
    ) -> SimulationResult:
        """Cached SpMV cache simulation of (dataset, RA, direction).

        ``reverse=True`` simulates the reversed graph (a CSR read
        traversal — Table VI's comparison); ``with_scans`` adds the
        periodic resident-set snapshots the ECS metric needs.
        """
        key = (dataset, algorithm, direction, with_scans, reverse, _params_key(kwargs))
        if key not in self._simulations:
            graph = self.reordered_graph(
                dataset, algorithm, factory=factory, **kwargs
            )
            if reverse:
                graph = graph.reversed()
            if with_scans:
                config = _scan_config(graph, direction)
            else:
                config = SimulationConfig.scaled_for(graph, direction=direction)
            with span("workload.simulation", dataset=dataset, algorithm=algorithm):
                self._simulations[key] = _simulation_stage(
                    graph,
                    config,
                    dataset,
                    algorithm,
                    dict(kwargs),
                    direction,
                    with_scans,
                    reverse,
                    **self._stage_kwargs(),
                )
        return self._simulations[key]

    def family(self, dataset: str) -> str:
        """'SN' or 'WG' for a registered dataset."""
        if dataset not in DATASETS:
            raise ExperimentError(f"unknown dataset {dataset!r}")
        return DATASETS[dataset].family

    def clear(self) -> None:
        """Drop every in-memory artefact (tests use this for isolation)."""
        self._graphs.clear()
        self._reorderings.clear()
        self._reordered_graphs.clear()
        self._simulations.clear()


#: The shared process-wide instance the benchmarks use (no disk store:
#: attaching one is an explicit choice of the examples CLI / harness).
workloads = Workloads()
