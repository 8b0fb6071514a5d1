"""Store maintenance: integrity verification and size-bounded LRU GC.

``verify_store`` re-hashes every committed payload against its sidecar
checksum and decodes it (optionally quarantining failures);
``collect_garbage`` evicts least-recently-used artifacts until the
store fits a byte budget, skipping pinned (in-flight) keys and stray
temporary files — a partial write in progress is never mistaken for
garbage.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.errors import StoreError
from repro.obs import metrics as obs_metrics
from repro.obs import span
from repro.store.serializers import get_serializer
from repro.store.store import ArtifactStore

__all__ = ["VerifyIssue", "VerifyReport", "GCReport", "verify_store", "collect_garbage"]


@dataclass(frozen=True)
class VerifyIssue:
    """One artifact that failed verification."""

    key: str
    kind: str
    problem: str


@dataclass
class VerifyReport:
    """Outcome of a full-store integrity pass."""

    checked: int = 0
    issues: list = field(default_factory=list)
    quarantined: int = 0

    @property
    def ok(self) -> bool:
        return not self.issues

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.issues)} issue(s)"
        return f"verified {self.checked} artifact(s): {status}"


@dataclass
class GCReport:
    """Outcome of one garbage collection pass."""

    scanned: int = 0
    evicted: list = field(default_factory=list)
    skipped_pinned: int = 0
    bytes_before: int = 0
    bytes_after: int = 0

    def summary(self) -> str:
        return (
            f"evicted {len(self.evicted)}/{self.scanned} artifact(s), "
            f"{self.bytes_before:,} -> {self.bytes_after:,} bytes"
            + (f" ({self.skipped_pinned} pinned kept)" if self.skipped_pinned else "")
        )


def verify_store(store: ArtifactStore, *, quarantine: bool = False) -> VerifyReport:
    """Checksum-verify and decode every committed artifact in the store.

    A payload that hashes clean but does not decode (a torn write whose
    sidecar was regenerated) is an ``undecodable payload``.  Each
    retired kind directory and each payload in a retired format is one
    issue; :func:`collect_garbage` evicts them.
    """
    report = VerifyReport()
    for kind in store.retired_kinds():
        report.issues.append(VerifyIssue("*", kind, "retired artifact kind"))
    for kind, key, _path in store.retired_formats():
        report.issues.append(VerifyIssue(key, kind, "retired artifact format"))
    for info in store.infos():
        report.checked += 1
        problem = ""
        try:
            meta = json.loads(info.meta_path.read_text(encoding="utf-8"))
            if meta.get("key") != info.key or meta.get("kind") != info.kind:
                problem = "sidecar identity mismatch"
            else:
                data = info.path.read_bytes()
                if hashlib.sha256(data).hexdigest() != info.checksum:
                    problem = "checksum mismatch"
                elif not _decodes(info.kind, data):
                    problem = "undecodable payload"
        except (OSError, ValueError):
            problem = "unreadable artifact"
        if problem:
            report.issues.append(VerifyIssue(info.key, info.kind, problem))
            if quarantine:
                store.quarantine(info.key, info.kind, reason=problem)
                report.quarantined += 1
    return report


def _decodes(kind: str, data: bytes) -> bool:
    try:
        get_serializer(kind).loads(data)
    except Exception:  # any decode failure is the finding, as in ArtifactStore.get
        return False
    return True


def collect_garbage(store: ArtifactStore, max_bytes: int) -> GCReport:
    """Evict LRU artifacts until total payload size fits ``max_bytes``.

    Retired kind directories and payloads in a retired format go
    first, whatever the budget.  Then the
    most-recently-accessed artifacts are retained first; pinned keys are
    never evicted, even when keeping them leaves the store over budget.
    """
    if max_bytes < 0:
        raise StoreError(f"max_bytes must be non-negative, got {max_bytes}")
    with span("store.gc", max_bytes=max_bytes):
        report = GCReport()
        for kind in store.retired_kinds():
            store.remove_retired_kind(kind)
            report.evicted.append((kind, "*"))
        for kind, key, path in store.retired_formats():
            store.remove_retired_format(kind, key, path)
            report.evicted.append((kind, key))
        infos = store.infos()
        report.scanned = len(infos) + len(report.evicted)
        report.bytes_before = sum(info.size_bytes for info in infos)
        # Most recently used first: fill the budget, evict the LRU tail.
        by_recency = sorted(infos, key=lambda info: info.last_access_at, reverse=True)
        kept_bytes = 0
        for info in by_recency:
            if kept_bytes + info.size_bytes <= max_bytes or info.pinned:
                if info.pinned and kept_bytes + info.size_bytes > max_bytes:
                    report.skipped_pinned += 1
                kept_bytes += info.size_bytes
                continue
            try:
                removed = store.remove(info.key, info.kind)
            except StoreError:  # pinned between the check and the unlink
                report.skipped_pinned += 1
                kept_bytes += info.size_bytes
                continue
            if removed:
                report.evicted.append((info.kind, info.key))
            else:
                kept_bytes += info.size_bytes
        report.bytes_after = kept_bytes
    obs_metrics.registry.counter("store.gc_evicted").inc(len(report.evicted))
    obs_metrics.registry.counter("store.gc_freed_bytes").inc(
        max(0, report.bytes_before - report.bytes_after)
    )
    return report
