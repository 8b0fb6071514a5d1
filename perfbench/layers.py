"""Per-layer numbers of a traced run, read from spans and counters by name.

:func:`instrumented` wraps a few public functions of the pipeline in the
benchmark's own ``bench.*`` spans while a traced region runs, and puts
the originals back afterwards; nothing inside ``src/`` changes.  The
program's own spans (``sim.partition|trace|interleave|cache|tlb``,
``reorder.<ra>``, ``sim.spmv``) and counters (``cache.*``, ``store.*``,
``sim.shard.barrier_waits``) are read as they are.  :func:`derive` turns
one traced region into every generic per-layer metric; workload modules
add the few that need their own state.
"""

from __future__ import annotations

import contextlib
import functools
from collections import defaultdict
from typing import Any, Dict, Iterator, List, Sequence

from repro.generate.datasets import DatasetSpec
from repro.graph.graph import Graph
from repro.obs import SpanRecord, span
from repro.reorder import algorithm_names
from repro.store.store import ArtifactStore

#: The six non-identity RAs of the paper sweep, in table column order.
REORDERINGS = ("slashburn", "gorder", "rabbit", "dbg", "community", "hisorder")
POLICIES = ("lru", "srrip", "brrip", "drrip")
SIM_PHASES = ("partition", "trace", "interleave", "cache", "tlb")

#: (owner, attribute, span name) of each public call timed from outside.
_WRAPPED = (
    (DatasetSpec, "build", "bench.generate"),
    (Graph, "permuted", "bench.graph.permute"),
    (ArtifactStore, "put", "bench.store.put"),
    (ArtifactStore, "get", "bench.store.get"),
)


def _spanned(fn: Any, name: str) -> Any:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with span(name):
            return fn(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def instrumented() -> Iterator[None]:
    """Time the wrapped public calls in ``bench.*`` spans inside the block."""
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in _WRAPPED]
    for owner, attr, name in _WRAPPED:
        setattr(owner, attr, _spanned(owner.__dict__[attr], name))
    try:
        yield
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


class SpanIndex:
    """Name, parent and child lookups over one traced region."""

    def __init__(self, spans: Sequence[SpanRecord]) -> None:
        self.spans = list(spans)
        self.by_id = {record.span_id: record for record in self.spans}
        self.children: Dict[int, List[SpanRecord]] = defaultdict(list)
        for record in self.spans:
            self.children[record.parent_id].append(record)

    def named(self, name: str) -> List[SpanRecord]:
        return [record for record in self.spans if record.name == name]

    def total_s(self, name: str) -> float:
        return sum(record.duration_s for record in self.named(name))

    def self_s(self, name: str) -> float:
        """Duration of the named spans minus what their children cover."""
        return sum(
            record.duration_s
            - sum(child.duration_s for child in self.children[record.span_id])
            for record in self.named(name)
        )

    def ancestors(self, record: SpanRecord) -> Iterator[SpanRecord]:
        parent = self.by_id.get(record.parent_id)
        while parent is not None:
            yield parent
            parent = self.by_id.get(parent.parent_id)


def _counter(snapshot: Dict[str, Dict[str, Any]], name: str) -> float:
    return float(snapshot.get(name, {}).get("value", 0))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _reorder_seconds(index: SpanIndex) -> Dict[str, float]:
    """Seconds per RA, counting only RA spans not nested in another RA."""
    ra_spans = {f"reorder.{name}" for name in algorithm_names()}
    seconds: Dict[str, float] = defaultdict(float)
    for record in index.spans:
        if record.name in ra_spans and not any(
            outer.name in ra_spans for outer in index.ancestors(record)
        ):
            seconds[record.name[len("reorder."):]] += record.duration_s
    return seconds


def _cache_rates(index: SpanIndex) -> Dict[str, float]:
    """Million simulated accesses per second of cache replay, per policy."""
    accesses: Dict[str, float] = defaultdict(float)
    seconds: Dict[str, float] = defaultdict(float)
    for record in index.named("sim.cache"):
        policy = index.by_id[record.parent_id].attrs.get("policy")
        accesses[policy] += record.attrs.get("accesses", 0)
        seconds[policy] += record.duration_s
    return {
        f"sim.cache.{policy}.macc_per_s": _ratio(accesses[policy], seconds[policy]) / 1e6
        for policy in POLICIES
    }


def derive(
    setup_spans: Sequence[SpanRecord],
    spans: Sequence[SpanRecord],
    snapshot: Dict[str, Dict[str, Any]],
) -> Dict[str, float]:
    """Every generic per-layer metric of one traced region.

    ``spans``/``snapshot`` cover the timed passes.  Generation runs in
    set-up on two workloads, so ``generate.s`` also counts
    ``setup_spans``; every other metric covers the timed passes only.
    """
    index = SpanIndex(spans)
    reorder = _reorder_seconds(index)
    kernel = _counter(snapshot, "cache.kernel_batches")
    reference = _counter(snapshot, "cache.reference_batches")
    hits = _counter(snapshot, "store.hit")
    misses = _counter(snapshot, "store.miss")
    sim_s = index.total_s("sim.spmv") + index.total_s("sim.spmv_streamed")
    return {
        "generate.s": SpanIndex(setup_spans).total_s("bench.generate")
        + index.total_s("bench.generate"),
        "graph.permute.s": index.total_s("bench.graph.permute"),
        "reorder.s": sum(reorder.values()),
        **{f"reorder.{name}.s": reorder.get(name, 0.0) for name in REORDERINGS},
        **{f"sim.{phase}.s": index.total_s(f"sim.{phase}") for phase in SIM_PHASES},
        **_cache_rates(index),
        "sim.cache.kernel_share": _ratio(kernel, kernel + reference),
        "sim.streamed.s": index.total_s("bench.sim.streamed"),
        "sim.shard.s": index.total_s("bench.sim.shard"),
        "sim.shard.barrier_waits": _counter(snapshot, "sim.shard.barrier_waits"),
        "sim_macc_per_s": _ratio(_counter(snapshot, "sim.accesses"), sim_s) / 1e6,
        "core.locality_types.s": index.self_s("bench.core.locality_types"),
        "store.put.s": index.total_s("bench.store.put"),
        "store.put_mb": _counter(snapshot, "store.put_bytes") / 1e6,
        "store.get.s": index.total_s("bench.store.get"),
        "store.get_mb": _counter(snapshot, "store.get_bytes") / 1e6,
        "store.hit_ratio": _ratio(hits, hits + misses),
    }
