"""Per-run provenance manifests and the shared environment schema.

A :class:`RunManifest` records, for one pipeline run, every stage the
memoization layer touched: the stage kind, the content key, whether it
was served from the store or computed, how long it took, and the
parameters that formed the key.  Saved manifests land under
``<store>/manifests/`` so a populated store is auditable — which run
produced which artifact, under which environment.

:func:`environment_snapshot` is the one provenance schema shared by
manifests and :class:`~repro.bench.harness.ExperimentReport` —
python/numpy versions, platform, kernel mode, workload scale, and the
repo code version.
"""

from __future__ import annotations

import itertools
import json
import os
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from repro.store.fingerprint import code_version
from repro.store.store import ArtifactStore

__all__ = ["environment_snapshot", "StageRecord", "RunManifest"]

_RUN_COUNTER = itertools.count()


def environment_snapshot() -> dict:
    """Environment metadata shared by reports and store manifests."""
    import platform

    from repro import __version__
    from repro.generate.datasets import scale_factor
    from repro.obs import enabled as trace_enabled
    from repro.obs import peak_rss_bytes

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "repro_version": __version__,
        "repro_scale": scale_factor(),
        "code_version": code_version("repro"),
        "trace_enabled": trace_enabled(),
        "peak_rss_bytes": peak_rss_bytes(),
    }


@dataclass
class StageRecord:
    """One memoized-stage event within a run."""

    stage: str
    key: str
    status: str  # "hit" | "computed" | "refreshed"
    duration_s: float
    params: dict = field(default_factory=dict)
    size_bytes: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "key": self.key,
            "status": self.status,
            "duration_s": self.duration_s,
            "params": self.params,
            "size_bytes": self.size_bytes,
        }


@dataclass
class RunManifest:
    """Provenance of one pipeline run (inputs, hashes, durations, env)."""

    run_id: str
    created_at: float
    environment: dict = field(default_factory=dict)
    records: list = field(default_factory=list)

    @classmethod
    def start(cls) -> "RunManifest":
        """New manifest with a unique id and the current environment."""
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
        run_id = (
            f"run-{stamp}-{os.getpid()}-{next(_RUN_COUNTER)}-{uuid.uuid4().hex[:6]}"
        )
        return cls(
            run_id=run_id,
            created_at=time.time(),
            environment=environment_snapshot(),
        )

    def record(
        self,
        stage: str,
        key: str,
        status: str,
        duration_s: float,
        params: Optional[dict] = None,
        size_bytes: Optional[int] = None,
    ) -> StageRecord:
        entry = StageRecord(
            stage=stage,
            key=key,
            status=status,
            duration_s=duration_s,
            params=params or {},
            size_bytes=size_bytes,
        )
        self.records.append(entry)
        return entry

    # -- aggregation -------------------------------------------------------

    def counts(self) -> dict:
        """Per-stage ``{"hits": n, "computed": n}`` (refreshes count as
        computed — the stage function actually ran)."""
        out: dict = {}
        for entry in self.records:
            bucket = out.setdefault(entry.stage, {"hits": 0, "computed": 0})
            if entry.status == "hit":
                bucket["hits"] += 1
            else:
                bucket["computed"] += 1
        return out

    def computed_count(self, stage: Optional[str] = None) -> int:
        """Stage executions (non-hits), optionally for one stage kind."""
        return sum(
            1
            for entry in self.records
            if entry.status != "hit" and (stage is None or entry.stage == stage)
        )

    def hit_count(self, stage: Optional[str] = None) -> int:
        """Store hits, optionally for one stage kind."""
        return sum(
            1
            for entry in self.records
            if entry.status == "hit" and (stage is None or entry.stage == stage)
        )

    # -- persistence -------------------------------------------------------

    def to_dict(self) -> dict:
        from repro.obs import enabled as _trace_enabled
        from repro.obs import metrics as _obs_metrics

        totals = self.counts()
        return {
            "version": 1,
            "run_id": self.run_id,
            "created_at": self.created_at,
            "environment": self.environment,
            "totals": totals,
            "records": [entry.to_dict() for entry in self.records],
            # Point-in-time metrics snapshot; empty unless tracing is on.
            "metrics": _obs_metrics.registry.snapshot() if _trace_enabled() else {},
        }

    def save(self, store: ArtifactStore) -> Path:
        """Atomically write this manifest under ``<store>/manifests/``."""
        directory = store.manifests_dir
        directory.mkdir(parents=True, exist_ok=True)
        destination = directory / f"{self.run_id}.json"
        tmp = directory / f"tmp-{os.getpid()}-{uuid.uuid4().hex}.json"
        tmp.write_text(json.dumps(self.to_dict(), indent=2), encoding="utf-8")
        os.replace(tmp, destination)
        return destination
