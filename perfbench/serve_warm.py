"""``serve-warm``: a warm reordering service under a closed loop.

Set-up starts an in-process ``ReorderService`` (thread executor, one
worker, queue depth two) on a fresh store at ``REPRO_SCALE=1.0`` and
computes every job once.  A job is one of {twtr-mini, sk-mini} x
{identity, degree, dbg, hubsort} x {/reorder, /simulate, /analyze}.

Each pass is a closed loop: one keep-alive ``HttpClient`` sends the
pass's requests, drawn from a seeded Zipf(s=1.1) over the jobs, each
only after the previous one is answered.  The job ranking is fixed; ``--seed`` seeds the draws.  Every
request is a store read, so no reordering or simulation runs in a pass.

A request is timed from its first send, through any 429 back-off and
retries, to its answer.  It fails if the answer is not 200, if it is
still refused after the last retry, or if its ``result`` differs from
the one set-up captured for the same job.
"""

from __future__ import annotations

import asyncio
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Tuple

import numpy as np

from repro import obs
from repro.obs import metrics
from repro.obs.metrics import percentiles
from repro.serve import HttpClient, ReorderService

from common import PassResult, SpeedProbe, tree_bytes

SCALE = "1.0"
KINDS = ("simulate", "analyze", "reorder")
ALGORITHMS = ("identity", "degree", "dbg", "hubsort")
DATASETS = ("twtr-mini", "sk-mini")
#: Zipf rank order: kind-major, so the slower store reads (simulate and
#: analyze decode a whole stored simulation) make up most of the draws.
JOBS: Tuple[Tuple[str, str, str], ...] = tuple(
    (kind, dataset, algorithm)
    for kind in KINDS
    for algorithm in ALGORITHMS
    for dataset in DATASETS
)
ZIPF_S = 1.1
REQUESTS_PER_PASS = 64
#: One client: with two, the clients' requests and the two worker
#: threads contend for the interpreter lock, and on a 2-core VM latency
#: spread 43-58% between runs of different seeds (5-7% with one).
CLIENTS = 1
#: One worker, as one client never has two jobs in flight: with two
#: idle-alternating worker threads the passes' peak RSS read either 134
#: or 184 MB between runs.
WORKERS = 1
QUEUE_DEPTH = 2
#: Attempts per request while the service answers 429, and the longest
#: Retry-After the loop honours between them.
MAX_ATTEMPTS = 50
MAX_RETRY_SLEEP_S = 0.5


def _zipf_probabilities() -> np.ndarray:
    weights = np.arange(1, len(JOBS) + 1, dtype=np.float64) ** -ZIPF_S
    return weights / weights.sum()


@dataclass
class State:
    loop: asyncio.AbstractEventLoop
    service: ReorderService
    store_root: Path
    clients: List[HttpClient]
    expected: Dict[Tuple[str, str, str], Any]
    rng: np.random.Generator
    #: Client-side latencies and 429 retries of traced passes, per kind.
    traced_ms: Dict[str, List[float]] = field(default_factory=lambda: defaultdict(list))
    traced_retries: int = 0


async def _send(client: HttpClient, job: Tuple[str, str, str]) -> Tuple[int, Dict[str, Any], int]:
    """POST one job, honouring 429 Retry-After; returns status, body, retries."""
    kind, dataset, algorithm = job
    payload = {"dataset": dataset, "algorithm": algorithm}
    for attempt in range(MAX_ATTEMPTS):
        status, body, _headers = await client.request("POST", f"/{kind}", payload)
        if status != 429:
            return status, body, attempt
        retry_after = float(body.get("retry_after_s", 0.1))
        await asyncio.sleep(min(MAX_RETRY_SLEEP_S, max(0.01, retry_after)))
    return status, body, MAX_ATTEMPTS


def setup(seed: int, tmp: Path) -> State:
    loop = asyncio.new_event_loop()
    store_root = tmp / "serve-store"
    service = ReorderService(
        store_root=str(store_root),
        max_workers=WORKERS,
        max_queue_depth=QUEUE_DEPTH,
        executor="thread",
    )
    host, port = loop.run_until_complete(service.start())
    clients = [HttpClient(host, port) for _ in range(CLIENTS)]

    async def compute_every_job() -> Dict[Tuple[str, str, str], Any]:
        expected = {}
        for job in JOBS:
            status, body, _retries = await _send(clients[0], job)
            if status != 200:
                raise RuntimeError(f"set-up request {job} answered {status}: {body}")
            expected[job] = body["result"]
        return expected

    expected = loop.run_until_complete(compute_every_job())
    return State(
        loop=loop,
        service=service,
        store_root=store_root,
        clients=clients,
        expected=expected,
        rng=np.random.default_rng(seed),
    )


def run_pass(state: State, probe: SpeedProbe) -> PassResult:
    """One closed-loop pass; the probe samples between passes, never
    during one, since it would stall the service's event loop."""
    draws = state.rng.choice(len(JOBS), size=REQUESTS_PER_PASS, p=_zipf_probabilities())
    queue = [JOBS[int(index)] for index in draws]
    traced = obs.enabled()
    latencies: List[float] = []
    failures: List[str] = []

    async def client_loop(client: HttpClient) -> None:
        while queue:
            job = queue.pop(0)
            started = time.perf_counter()
            status, body, retries = await _send(client, job)
            elapsed_ms = (time.perf_counter() - started) * 1e3
            latencies.append(elapsed_ms)
            if traced:
                state.traced_ms[job[0]].append(elapsed_ms)
                state.traced_retries += retries
            if status != 200:
                failures.append(f"{job}: status {status} after {retries} retries")
            elif body.get("result") != state.expected[job]:
                failures.append(f"{job}: result differs from set-up")

    async def closed_loop() -> None:
        await asyncio.gather(*(client_loop(client) for client in state.clients))

    started = time.perf_counter()
    state.loop.run_until_complete(closed_loop())
    return PassResult(
        wall_s=time.perf_counter() - started, latencies_ms=latencies, failures=failures
    )


def layer_extras(state: State) -> Dict[str, float]:
    registry = metrics.registry
    out: Dict[str, float] = {}
    gaps: List[Tuple[int, float]] = []
    for kind in KINDS:
        histogram = registry.histogram(f"serve.{kind}.latency_ms")
        server_p50 = histogram.percentiles()["p50"] if histogram.count else 0.0
        out[f"serve.{kind}.server_p50_ms"] = server_p50
        client_ms = state.traced_ms.get(kind, [])
        if client_ms and histogram.count:
            gaps.append((len(client_ms), percentiles(client_ms, (50,))["p50"] - server_p50))
    requests = registry.counter("serve.requests").value
    weight = sum(count for count, _ in gaps)
    out["serve.http_overhead_ms"] = (
        sum(count * gap for count, gap in gaps) / weight if weight else 0.0
    )
    out["serve.coalesced_ratio"] = (
        registry.counter("serve.coalesced").value / requests if requests else 0.0
    )
    out["serve.retries_429"] = float(state.traced_retries)
    out["store_mb"] = tree_bytes(state.store_root) / 1e6
    return out


def teardown(state: State) -> None:
    async def close() -> None:
        for client in state.clients:
            await client.close()
        await state.service.stop()
        # Let the server's connection handlers see the closed sockets.
        await asyncio.sleep(0.05)

    state.loop.run_until_complete(close())
    state.loop.close()
