"""Shared workload definitions and caching for the harness and the service.

Every experiment and every serve job draws its graphs, reorderings and
simulations from here, so repeated requests for the same (graph, RA,
config) combination are computed once per process.  When a
:class:`~repro.store.store.ArtifactStore` is attached, each stage is
additionally memoized *on disk* through :func:`repro.store.memo.cached_stage`:
the expensive upstream stages (dataset build -> reorder -> AID / cache
simulation) are computed once ever per (parameters, code version)
and every later run — in this process or the next — loads them back
verified from the store.  A graph source is a registry dataset or the
content key of a stored graph; every stage downstream of the graph is
keyed by that graph's key, so the two routes share one artifact per
result.  Workload sizes scale with ``REPRO_SCALE`` (see
:mod:`repro.generate.datasets`), which the graph key carries.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Callable, Iterable, Optional

from repro.core.aid import VertexAID
from repro.core.ecs import with_ecs_scans
from repro.errors import ExperimentError, ReproError, ServeError
from repro.generate.datasets import DATASETS, load_dataset, scale_factor
from repro.obs import metrics as obs_metrics
from repro.obs import span
from repro.obs.core import completed_spans, graft, reset
from repro.graph.graph import Graph
from repro.reorder import ReorderResult, get_algorithm
from repro.reorder.base import ReorderingAlgorithm
from repro.sim.address_space import AddressSpace
from repro.sim.cache import CacheConfig
from repro.sim.simulator import (
    SimulationConfig,
    SimulationResult,
    simulate_spmv,
    simulate_spmv_group,
)
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
    "fastest_preprocessing_seconds",
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
# The one family of stored stages: the experiment harness and the
# service both reach the store through these.  Module-level functions so
# the `cached_stage` key derivation stays independent of any Workloads
# instance; the instance threads its store/refresh/manifest through the
# reserved keyword arguments.  Every stage downstream of the graph is
# keyed by its source graph's content key, so a result reached from a
# registry dataset or from a stored graph key is one artifact.  Upstream
# inputs arrive as zero-argument loaders that only the stage body calls,
# so a store hit reads exactly the artifact it returns.

@cached_stage(
    "graph",
    code=("repro.generate", "repro.graph", "repro.store.serializers"),
    key=lambda dataset: {"dataset": dataset, "scale": scale_factor()},
)
def _graph_stage(dataset: str) -> Graph:
    return load_dataset(dataset)


@cached_stage(
    "reordering",
    code=("repro.generate", "repro.graph", "repro.reorder", "repro.store.serializers"),
    key=lambda load_graph, graph_key, algorithm, params, factory: {
        "graph": graph_key,
        "algorithm": algorithm,
        "params": params,
    },
)
def _reordering_stage(
    load_graph: Callable[[], Graph],
    graph_key: str,
    algorithm: str,
    params: dict,
    factory: "Optional[Callable[[], object]]",
) -> ReorderResult:
    instance = factory() if factory is not None else get_algorithm(algorithm, **params)
    return instance(load_graph())  # type: ignore[operator]


@cached_stage(
    "aid",
    code=(
        "repro.generate",
        "repro.graph",
        "repro.reorder",
        "repro.core.aid",
        "repro.store.serializers",
    ),
    key=lambda load_graph, graph_key, algorithm, params, direction: {
        "graph": graph_key,
        "algorithm": algorithm,
        "params": params,
        "direction": direction,
    },
)
def _aid_stage(
    load_graph: Callable[[], Graph],
    graph_key: str,
    algorithm: str,
    params: dict,
    direction: str,
) -> VertexAID:
    return VertexAID.of(load_graph(), direction=direction)


def _simulation_config(
    shape: "Graph | AddressSpace", direction: str, policy: str, pressure: float
) -> SimulationConfig:
    """The config the pipeline simulates a graph of ``shape``'s size under:
    scaled to its vertex count, with ECS scans spaced over its edges."""
    return with_ecs_scans(
        shape,
        SimulationConfig.scaled_for(
            shape, direction=direction, policy=policy, pressure=pressure
        ),
    )


@cached_stage(
    "simulation",
    code=(
        "repro.generate",
        "repro.graph",
        "repro.reorder",
        "repro.sim",
        "repro.core.ecs",
        "repro.store.serializers",
    ),
    key=lambda simulate, graph_key, algorithm, params, reverse, **cache: {
        "graph": graph_key,
        "algorithm": algorithm,
        "params": params,
        "reverse": reverse,
        **cache,
    },
    encode=StoredSimulation.from_result,
    decode=lambda stored, *inputs, **cache: stored.to_result(
        _simulation_config(stored.space, **cache)
    ),
)
def _simulation_stage(
    simulate: Callable[[], SimulationResult],
    graph_key: str,
    algorithm: str,
    params: dict,
    reverse: bool,
    *,
    direction: str,
    policy: str,
    pressure: float,
) -> SimulationResult:
    return simulate()


#: Interleaved calls of each RA :func:`fastest_preprocessing_seconds`
#: makes; the fastest counts.
_TIMING_ROUNDS = 2


def fastest_preprocessing_seconds(
    graph: Graph, factories: "tuple[Callable[[], ReorderingAlgorithm], ...]"
) -> "list[float]":
    """Fastest preprocessing time of each RA ``factories`` builds, over
    ``_TIMING_ROUNDS`` interleaved calls each on ``graph`` in this
    process, so all of them see the same host load.

    Experiments that compare RAs' times measure them here rather than
    read the stored reorderings: a stored time was taken by whichever
    run computed the artifact, under whatever else loaded the host then
    (the sweep's reordering pool runs RAs side by side).
    """
    seconds: "list[list[float]]" = [[] for _ in factories]
    for _ in range(_TIMING_ROUNDS):
        for factory, times in zip(factories, seconds):
            times.append(factory()(graph).preprocessing_seconds)
    return [min(times) for times in seconds]


def _reorder_workers(tasks: int) -> int:
    """Reordering-pool size: one worker per available core, and never
    more than ``tasks``.  A process that :mod:`multiprocessing` started
    (a worker of ``run_experiments``' process executor) gets one: its
    sibling workers already take the other cores."""
    import multiprocessing

    if multiprocessing.parent_process() is not None:
        return 1
    cores = (
        len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")  # not on macOS
        else os.cpu_count() or 1
    )
    return min(cores, tasks)


#: A reordering worker's fork of the parent's :class:`Workloads`.
_forked_workloads: "Workloads | None" = None


def _adopt(workloads: "Workloads") -> None:
    """Reordering-pool initializer: keep the forked parent's cache."""
    global _forked_workloads
    _forked_workloads = workloads


def _reorder_in_worker(source: str, algorithm: str) -> tuple:
    """Reordering-pool task: one default reordering on the forked cache.

    Returns the result, its manifest records, this worker's pid, the
    spans it completed and its counter deltas, for the parent to adopt.
    """
    workloads = _forked_workloads
    assert workloads is not None
    workloads.manifest = dataclasses.replace(workloads.manifest, records=[])
    reset()
    before = obs_metrics.registry.snapshot()
    result = workloads.reordering(source, algorithm)
    return (
        result,
        workloads.manifest.records,
        os.getpid(),
        completed_spans(),
        obs_metrics.registry.counter_delta(before),
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
        self._aids: dict[tuple, VertexAID] = {}
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

    def _source(self, source: str) -> "tuple[str, Callable[[], Graph]]":
        """Resolve a graph source to ``(graph key, graph loader)``.

        A registry dataset resolves to its ``graph``-stage key, derived
        without building anything; any other source names a stored graph
        artifact by its content key.  The loader memoizes the graph in
        memory; stages call it only on a store miss.
        """
        if source in DATASETS:
            graph_key = _graph_stage.content_key(source)  # type: ignore[attr-defined]
        else:
            graph_key = source

        def load() -> Graph:
            if graph_key not in self._graphs:
                with span("workload.graph", dataset=source):
                    self._graphs[graph_key] = (
                        _graph_stage(source, **self._stage_kwargs())
                        if source in DATASETS
                        else self._stored_graph(source)
                    )
            return self._graphs[graph_key]

        return graph_key, load

    def _stored_graph(self, graph_key: str) -> Graph:
        if self._store is None:
            raise ServeError(
                f"unknown dataset {graph_key!r}; graph-by-fingerprint jobs "
                "need a server-side artifact store"
            )
        graph = self._store.get(graph_key, "graph")
        if graph is None:
            raise ServeError(f"no stored graph artifact with key {graph_key!r}")
        return graph

    def graph(self, source: str) -> Graph:
        """A registry dataset analogue (generated once, store-backed), or
        a stored graph named by its content key."""
        return self._source(source)[1]()

    def reordering(
        self,
        source: str,
        algorithm: str,
        *,
        factory: "Callable[[], object] | None" = None,
        **kwargs,
    ) -> ReorderResult:
        """RA result on the source graph (identity included).

        ``kwargs`` parameterize the algorithm and join the memo key, so
        variants (a custom SlashBurn ``k``, an EDR window) cache
        independently.  ``factory`` builds a non-registry algorithm
        instance; the ``algorithm`` name + kwargs still form the key, so
        callers must give variant factories distinct names.
        """
        graph_key, load_graph = self._source(source)
        key = (graph_key, algorithm, _params_key(kwargs))
        if key not in self._reorderings:
            with span("workload.reordering", dataset=source, algorithm=algorithm):
                self._reorderings[key] = _reordering_stage(
                    load_graph,
                    graph_key,
                    algorithm,
                    dict(kwargs),
                    factory,
                    **self._stage_kwargs(),
                )
        return self._reorderings[key]

    def reordered_graph(
        self,
        source: str,
        algorithm: str,
        *,
        factory: "Callable[[], object] | None" = None,
        **kwargs,
    ) -> Graph:
        """The source graph rebuilt in the RA's new ID space.

        Computed in memory and never stored: only a miss of the O(V)
        ``aid`` and ``simulation`` stages (and the locality-type
        classifier) needs the whole reordered graph.
        """
        graph_key, load_graph = self._source(source)
        key = (graph_key, algorithm, _params_key(kwargs))
        if key not in self._reordered_graphs:
            graph = load_graph()
            if algorithm != "identity":
                result = self.reordering(source, algorithm, factory=factory, **kwargs)
                graph = result.apply(graph)
            self._reordered_graphs[key] = graph
        return self._reordered_graphs[key]

    def aid(
        self,
        source: str,
        algorithm: str = "identity",
        *,
        direction: str = "in",
        params: "dict | None" = None,
    ) -> VertexAID:
        """Cached per-vertex AID of (source, RA) in the RA's ID order.

        ``direction`` picks in- or out-neighbours; ``params`` are the
        RA's parameters, as in :meth:`simulation`.
        """
        params = dict(params or {})
        graph_key, _ = self._source(source)
        key = (graph_key, algorithm, _params_key(params), direction)
        if key not in self._aids:
            with span("workload.aid", dataset=source, algorithm=algorithm):
                self._aids[key] = _aid_stage(
                    lambda: self.reordered_graph(source, algorithm, **params),
                    graph_key,
                    algorithm,
                    params,
                    direction,
                    **self._stage_kwargs(),
                )
        return self._aids[key]

    def simulation(
        self,
        source: str,
        algorithm: str = "identity",
        *,
        direction: str = "pull",
        reverse: bool = False,
        policy: str = "drrip",
        pressure: float = 0.08,
        factory: "Callable[[], object] | None" = None,
        params: "dict | None" = None,
    ) -> SimulationResult:
        """Cached SpMV cache simulation of (source, RA, config).

        Every run takes the periodic resident-set scans the ECS metric
        reads, and keeps each as its per-region line counts.
        ``reverse=True`` simulates the reversed graph (a
        CSR read traversal — Table VI's comparison); ``policy`` and
        ``pressure`` pick the cache (see
        :meth:`SimulationConfig.scaled_for`).  ``params`` are the RA's
        parameters, a dict because some share a name with these keywords
        (the degree RAs' ``direction``).  The stored result is keyed by
        these inputs, and a hit rebuilds its config from the stored
        vertex and edge counts, so it reads no graph.
        """
        params = dict(params or {})
        graph_key, _ = self._source(source)
        key = (
            graph_key, algorithm, _params_key(params), direction, reverse,
            policy, pressure,
        )
        if key not in self._simulations:

            def simulate() -> SimulationResult:
                graph = self.reordered_graph(
                    source, algorithm, factory=factory, **params
                )
                if reverse:
                    graph = graph.reversed()
                return simulate_spmv(
                    graph, _simulation_config(graph, direction, policy, pressure)
                )

            self._store_simulation(source, key, simulate)
        return self._simulations[key]

    def _store_simulation(
        self, source: str, key: tuple, simulate: Callable[[], SimulationResult]
    ) -> None:
        """Memoize the simulation ``key`` through the store; ``simulate``
        computes it on a miss."""
        graph_key, algorithm, params, direction, reverse, policy, pressure = key
        with span("workload.simulation", dataset=source, algorithm=algorithm):
            self._simulations[key] = _simulation_stage(
                simulate,
                graph_key,
                algorithm,
                dict(params),
                reverse,
                direction=direction,
                policy=policy,
                pressure=pressure,
                **self._stage_kwargs(),
            )

    def _simulate_together(
        self, sources: Iterable[str], algorithms: Iterable[str]
    ) -> None:
        """Compute the missing default simulations of ``sources`` x
        ``algorithms``, the L3 replays of each cache geometry together.

        A cell is missing unless memory or (without ``refresh``) the
        store holds it.  The missing cells' reorderings are computed
        first, in parallel (:meth:`_reorder_in_workers`).  Missing cells
        are then grouped by cache config and
        simulated with :func:`simulate_spmv_group`; each goes through the
        simulation stage under the key, and with the manifest record,
        that :meth:`simulation` with its default settings gives it.  The
        experiments of the paper sweep call this before their cell loops;
        one-cell callers (the service) use :meth:`simulation`.
        """
        # simulation()'s defaults: pull, not reversed, DRRIP, pressure 0.08.
        direction, reverse, policy, pressure = "pull", False, "drrip", 0.08
        missing = []
        algorithms = tuple(algorithms)
        for source in sources:
            graph_key, _ = self._source(source)
            for algorithm in algorithms:
                key = (graph_key, algorithm, (), direction, reverse, policy, pressure)
                if key in self._simulations:
                    continue
                if self._store is not None and not self._refresh:
                    content_key = _simulation_stage.content_key(  # type: ignore[attr-defined]
                        None, graph_key, algorithm, {}, reverse,
                        direction=direction, policy=policy, pressure=pressure,
                    )
                    if self._store.contains(content_key, "simulation"):
                        continue
                missing.append((source, key))
        self._reorder_in_workers([(source, key[1]) for source, key in missing])
        by_cache: "dict[CacheConfig, list]" = {}
        for source, key in missing:
            graph = self.reordered_graph(source, key[1])
            config = _simulation_config(graph, direction, policy, pressure)
            by_cache.setdefault(config.cache, []).append((source, key, graph, config))
        for cells in by_cache.values():
            finishers = simulate_spmv_group(
                (graph, config) for _, _, graph, config in cells
            )
            for (source, key, _, _), finish in zip(cells, finishers):
                self._store_simulation(source, key, finish)

    def _reorder_in_workers(self, cells: "list[tuple[str, str]]") -> None:
        """Compute the missing default reorderings of ``cells`` in forked
        worker processes, one per core (:func:`_reorder_workers`).

        A reordering is missing unless it is the identity, in memory or
        (without ``refresh``) in the store.  Each worker runs
        :meth:`reordering` on its fork of this cache, so the result goes
        through the reordering stage, and into the store, as it would
        here; this process adopts its result, manifest records, spans
        (under one ``workload.reorder_pool`` span, a lane per worker pid)
        and counter deltas.  An RA that raises re-raises here as the same
        :class:`ReproError` subclass, and a worker that dies as an
        :class:`ExperimentError`; both name the dataset and the RA.
        """
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        tasks = []
        for source, algorithm in dict.fromkeys(cells):
            graph_key, _ = self._source(source)
            key = (graph_key, algorithm, ())
            if algorithm == "identity" or key in self._reorderings:
                continue
            if self._store is not None and not self._refresh:
                content_key = _reordering_stage.content_key(  # type: ignore[attr-defined]
                    None, graph_key, algorithm, {}, None
                )
                if self._store.contains(content_key, "reordering"):
                    continue
            tasks.append((source, algorithm, key))
        if not tasks:
            return
        # Sorting loads every source graph, so no worker forks without one.
        tasks.sort(key=lambda task: -self.graph(task[0]).num_edges)
        workers = _reorder_workers(len(tasks))
        pool = ProcessPoolExecutor(
            workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_adopt,
            initargs=(self,),
        )
        with span("workload.reorder_pool", tasks=len(tasks), workers=workers), pool:
            futures = [
                (source, algorithm, key, pool.submit(_reorder_in_worker, source, algorithm))
                for source, algorithm, key in tasks
            ]
            for source, algorithm, key, future in futures:
                try:
                    result, records, pid, spans, deltas = future.result()
                except Exception as exc:  # an RA's error, or a dead worker
                    # Kill the siblings' running RAs: shutdown alone waits
                    # for them, and the pool has no public way to stop them.
                    running = list(pool._processes.values())
                    pool.shutdown(wait=False, cancel_futures=True)
                    for process in running:
                        process.kill()
                    error = type(exc) if isinstance(exc, ReproError) else ExperimentError
                    raise error(
                        f"{algorithm} on {source} failed in its reordering worker: {exc!r}"
                    ) from exc
                self._reorderings[key] = result
                self.manifest.records.extend(records)
                graft(spans, thread_id=pid)
                for name, delta in deltas.items():
                    obs_metrics.registry.counter(name).inc(delta)

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
        self._aids.clear()
        self._simulations.clear()


#: The shared process-wide instance the benchmarks use (no disk store:
#: attaching one is an explicit choice of the examples CLI / harness).
workloads = Workloads()
