"""Zipf-distributed synthetic traffic for the reordering service.

Real request streams are skewed: a handful of (graph, algorithm) pairs
dominate while a long tail appears once.  The generator ranks every
``dataset x algorithm`` combination and draws requests from a Zipf
law over ranks (``p_i ~ (i+1)^-s``), seeded — the same spec always
produces the same request sequence, so cold-vs-warm comparisons replay
identical traffic.

:func:`run_load` drives the service with a fixed-size pool of
keep-alive clients and reports throughput, nearest-rank latency
percentiles (the same :func:`repro.obs.metrics.percentiles` definition
the server's histograms use) and the store-hit ratio observed across
responses.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ServeError
from repro.generate.datasets import dataset_names
from repro.obs.metrics import percentiles
from repro.reorder import algorithm_names
from repro.serve.http import HttpClient
from repro.serve.jobs import JOB_KINDS

__all__ = ["LoadSpec", "LoadResult", "zipf_requests", "run_load", "generate_load"]

#: How many times one request is re-tried after 429 before being
#: counted as failed (each retry honours the server's Retry-After,
#: capped so a short load run cannot stall forever).
_MAX_RETRIES = 100

_MAX_RETRY_SLEEP_S = 0.5


@dataclass(frozen=True)
class LoadSpec:
    """One reproducible traffic mix."""

    datasets: Tuple[str, ...] = ()
    algorithms: Tuple[str, ...] = ()
    kind: str = "simulate"
    zipf_s: float = 1.1
    num_requests: int = 64
    concurrency: int = 4
    seed: int = 0

    def resolved(self) -> "LoadSpec":
        """Fill empty dataset/algorithm tuples from the registries."""
        datasets = self.datasets or tuple(dataset_names(tier="mini")[:4])
        algorithms = self.algorithms or ("identity", "degree", "hubsort")
        return LoadSpec(
            datasets=datasets,
            algorithms=algorithms,
            kind=self.kind,
            zipf_s=self.zipf_s,
            num_requests=self.num_requests,
            concurrency=self.concurrency,
            seed=self.seed,
        )

    def validate(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ServeError(
                f"load kind {self.kind!r} must be one of {JOB_KINDS}"
            )
        if self.zipf_s <= 0:
            raise ServeError(f"zipf_s must be > 0, got {self.zipf_s}")
        if self.num_requests < 1:
            raise ServeError(f"num_requests must be >= 1, got {self.num_requests}")
        if self.concurrency < 1:
            raise ServeError(f"concurrency must be >= 1, got {self.concurrency}")
        unknown_algorithms = set(self.algorithms) - set(algorithm_names())
        if unknown_algorithms:
            raise ServeError(
                f"unknown algorithm(s) in load spec: {sorted(unknown_algorithms)}"
            )
        unknown_datasets = set(self.datasets) - set(dataset_names(tier="all"))
        if unknown_datasets:
            raise ServeError(
                f"unknown dataset(s) in load spec: {sorted(unknown_datasets)}"
            )


def zipf_requests(spec: LoadSpec) -> List[Dict[str, Any]]:
    """The spec's deterministic request payload sequence.

    Combinations are ranked dataset-major, and rank *i* is drawn with
    probability proportional to ``(i + 1) ** -zipf_s``.  A fixed seed
    fixes the whole sequence.
    """
    spec = spec.resolved()
    spec.validate()
    combos = [
        {"dataset": dataset, "algorithm": algorithm}
        for dataset in spec.datasets
        for algorithm in spec.algorithms
    ]
    weights = np.arange(1, len(combos) + 1, dtype=np.float64) ** -float(spec.zipf_s)
    probabilities = weights / weights.sum()
    rng = np.random.default_rng(spec.seed)
    draws = rng.choice(len(combos), size=spec.num_requests, p=probabilities)
    return [dict(combos[int(index)]) for index in draws]


@dataclass
class LoadResult:
    """Aggregate outcome of one load run."""

    spec: LoadSpec
    duration_s: float = 0.0
    completed: int = 0
    failed: int = 0
    retries_429: int = 0
    coalesced: int = 0
    stage_hits: int = 0
    stage_computed: int = 0
    latencies_ms: List[float] = field(default_factory=list)

    @property
    def throughput_rps(self) -> float:
        return self.completed / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def store_hit_ratio(self) -> float:
        touched = self.stage_hits + self.stage_computed
        return self.stage_hits / touched if touched else 0.0

    def latency_percentiles(self) -> Dict[str, float]:
        if not self.latencies_ms:
            return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        return percentiles(self.latencies_ms)

    def to_dict(self) -> Dict[str, Any]:
        quantiles = self.latency_percentiles()
        return {
            "kind": self.spec.kind,
            "num_requests": self.spec.num_requests,
            "concurrency": self.spec.concurrency,
            "zipf_s": self.spec.zipf_s,
            "seed": self.spec.seed,
            "duration_s": round(self.duration_s, 4),
            "completed": self.completed,
            "failed": self.failed,
            "retries_429": self.retries_429,
            "coalesced": self.coalesced,
            "stage_hits": self.stage_hits,
            "stage_computed": self.stage_computed,
            "store_hit_ratio": round(self.store_hit_ratio, 4),
            "throughput_rps": round(self.throughput_rps, 2),
            "latency_ms": {
                name: round(value, 3) for name, value in quantiles.items()
            },
        }


async def _drive_one(
    client: HttpClient,
    path: str,
    payload: Dict[str, Any],
    result: LoadResult,
) -> None:
    # A request's latency runs from its first send to its final answer,
    # so time spent backing off from 429s counts.
    loop = asyncio.get_running_loop()
    started = loop.time()
    for _attempt in range(_MAX_RETRIES):
        status, body, _headers = await client.request("POST", path, payload)
        elapsed_ms = (loop.time() - started) * 1e3
        if status == 429:
            result.retries_429 += 1
            retry_after = float(body.get("retry_after_s", 0.1))
            await asyncio.sleep(min(_MAX_RETRY_SLEEP_S, max(0.01, retry_after)))
            continue
        if status != 200:
            result.failed += 1
            return
        result.completed += 1
        result.latencies_ms.append(elapsed_ms)
        if body.get("coalesced"):
            result.coalesced += 1
        else:
            stages = body.get("stages", {})
            result.stage_hits += int(stages.get("hits", 0))
            result.stage_computed += int(stages.get("computed", 0))
        return
    result.failed += 1


async def run_load(host: str, port: int, spec: LoadSpec) -> LoadResult:
    """Replay the spec's request sequence with ``spec.concurrency`` clients."""
    spec = spec.resolved()
    requests = zipf_requests(spec)
    result = LoadResult(spec=spec)
    queue: "asyncio.Queue[Optional[Dict[str, Any]]]" = asyncio.Queue()
    for payload in requests:
        queue.put_nowait(payload)
    for _ in range(spec.concurrency):
        queue.put_nowait(None)
    path = f"/{spec.kind}"

    async def worker() -> None:
        client = HttpClient(host, port)
        try:
            while True:
                payload = await queue.get()
                if payload is None:
                    return
                await _drive_one(client, path, payload, result)
        finally:
            await client.close()

    started = time.perf_counter()
    await asyncio.gather(*(worker() for _ in range(spec.concurrency)))
    result.duration_s = time.perf_counter() - started
    return result


def generate_load(host: str, port: int, spec: LoadSpec) -> LoadResult:
    """Synchronous entry point for the CLI and benchmarks."""
    return asyncio.run(run_load(host, port, spec))
