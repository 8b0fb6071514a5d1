"""Content-addressed, on-disk artifact store with integrity checking.

Layout (under the root directory, ``REPRO_STORE_DIR`` or
``.repro-store`` by default)::

    objects/<kind>/<key[:2]>/<key><ext>        payload (serializer format)
    objects/<kind>/<key[:2]>/<key>.meta.json   checksum + provenance sidecar
    objects/<kind>/<key[:2]>/<key>.pin         in-flight marker (GC skips)
    quarantine/                                corrupted artifacts, moved aside
    manifests/run-<id>.json                    per-run provenance manifests

Durability rules:

* **Atomic writes** — payload and sidecar are written to ``tmp-*``
  files in the destination directory and ``os.replace``d into place
  (payload first, sidecar last: a sidecar's presence marks the commit).
  Concurrent writers of the same key are safe — content addressing
  means they write identical bytes and the last rename wins.
* **Verified reads** — every read re-hashes the payload against the
  sidecar checksum.  A mismatch (or any deserialization failure) moves
  both files into ``quarantine/`` and reports a miss, so the pipeline
  recomputes instead of crashing on a corrupt cache.
* **Raw arrays, read once** — no artifact is compressed, so a read
  never inflates anything, and :meth:`ArtifactStore.get` reads each
  payload once: the buffer it hashes is the buffer it decodes.
* **Last access** — reads bump the payload mtime (``os.utime``), which
  is the LRU axis :mod:`repro.store.gc` evicts along.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Optional, Union

from repro.errors import StoreError
from repro.obs import metrics as obs_metrics
from repro.store.serializers import SERIALIZERS, get_serializer

__all__ = ["STORE_DIR_ENV", "default_store_dir", "ArtifactInfo", "ArtifactStore"]

#: Environment variable overriding the default store location.
STORE_DIR_ENV = "REPRO_STORE_DIR"

_META_SUFFIX = ".meta.json"
_PIN_SUFFIX = ".pin"
_TMP_PREFIX = "tmp-"


def default_store_dir() -> Path:
    """Store root: ``$REPRO_STORE_DIR`` if set, else ``./.repro-store``."""
    override = os.environ.get(STORE_DIR_ENV, "").strip()
    return Path(override) if override else Path(".repro-store")


def _wallclock() -> float:
    """``created_at`` metadata clock — LRU/GC bookkeeping, never content.

    Artifact bytes are fully determined by the content key; this reading
    lands only in the sidecar metadata, so it is not a determinism
    hazard.
    """
    return time.time()


def _tmp_token() -> str:
    """Collision-proof temp-file token for atomic writes.

    The uuid draw names the *scratch* file only — committed payload and
    sidecar paths are pure functions of (kind, key), so the entropy
    never reaches stored content.
    """
    return f"{_TMP_PREFIX}{os.getpid()}-{uuid.uuid4().hex}"


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass(frozen=True)
class ArtifactInfo:
    """One committed artifact: identity, location, and bookkeeping."""

    key: str
    kind: str
    path: Path
    meta_path: Path
    size_bytes: int
    created_at: float
    last_access_at: float
    checksum: str
    provenance: dict

    @property
    def pinned(self) -> bool:
        return self.path.with_suffix(self.path.suffix + _PIN_SUFFIX).exists()


class ArtifactStore:
    """Content-addressed artifact store rooted at a directory."""

    def __init__(self, root: Union[str, os.PathLike, None] = None) -> None:
        self.root = Path(root) if root is not None else default_store_dir()

    # -- layout ------------------------------------------------------------

    @property
    def objects_dir(self) -> Path:
        return self.root / "objects"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    @property
    def manifests_dir(self) -> Path:
        return self.root / "manifests"

    def _bucket(self, kind: str, key: str) -> Path:
        return self.objects_dir / kind / key[:2]

    def _payload_path(self, kind: str, key: str) -> Path:
        extension = get_serializer(kind).extension
        return self._bucket(kind, key) / f"{key}{extension}"

    def _meta_path(self, kind: str, key: str) -> Path:
        return self._bucket(kind, key) / f"{key}{_META_SUFFIX}"

    def _pin_path(self, kind: str, key: str) -> Path:
        payload = self._payload_path(kind, key)
        return payload.with_suffix(payload.suffix + _PIN_SUFFIX)

    # -- write path --------------------------------------------------------

    def put(
        self, key: str, kind: str, obj: Any, provenance: Optional[dict] = None
    ) -> ArtifactInfo:
        """Serialize and commit one artifact atomically; returns its info.

        A failed write (a full disk, a read-only store) leaves no scratch
        file behind and raises :class:`StoreError` naming the artifact
        and the errno.
        """
        serializer = get_serializer(kind)
        bucket = self._bucket(kind, key)
        token = _tmp_token()
        payload_tmp = bucket / f"{token}{serializer.extension}"
        meta_tmp = bucket / f"{token}{_META_SUFFIX}"
        try:
            bucket.mkdir(parents=True, exist_ok=True)
            serializer.save(obj, payload_tmp)
            checksum = _sha256_file(payload_tmp)
            created_at = _wallclock()
            meta = {
                "version": 1,
                "key": key,
                "kind": kind,
                "checksum": checksum,
                "size_bytes": payload_tmp.stat().st_size,
                "created_at": created_at,
                "provenance": provenance or {},
            }
            meta_tmp.write_text(json.dumps(meta, indent=2), encoding="utf-8")
            os.replace(payload_tmp, self._payload_path(kind, key))
            os.replace(meta_tmp, self._meta_path(kind, key))
        except OSError as exc:
            raise StoreError(
                f"cannot write {kind} artifact {key}: "
                f"[errno {exc.errno}] {exc.strerror or exc}"
            ) from exc
        finally:
            for leftover in (payload_tmp, meta_tmp):
                with contextlib.suppress(OSError):
                    leftover.unlink()
        obs_metrics.registry.counter("store.put_bytes").inc(int(meta["size_bytes"]))
        return ArtifactInfo(
            key=key,
            kind=kind,
            path=self._payload_path(kind, key),
            meta_path=self._meta_path(kind, key),
            size_bytes=int(meta["size_bytes"]),
            created_at=created_at,
            last_access_at=created_at,
            checksum=checksum,
            provenance=meta["provenance"],
        )

    # -- read path ---------------------------------------------------------

    def contains(self, key: str, kind: str) -> bool:
        """Whether a committed (payload + sidecar) artifact exists."""
        return (
            self._payload_path(kind, key).exists()
            and self._meta_path(kind, key).exists()
        )

    def get(self, key: str, kind: str) -> Any:
        """Load and verify one artifact; ``None`` on miss or quarantine.

        The payload is read once: the bytes hashed against the sidecar
        checksum are the bytes decoded.  Corruption — checksum mismatch,
        unreadable sidecar, or a deserialization failure — quarantines
        the artifact and reports a miss so callers recompute rather than
        crash.
        """
        serializer = get_serializer(kind)
        payload = self._payload_path(kind, key)
        try:
            meta = json.loads(self._meta_path(kind, key).read_text(encoding="utf-8"))
            expected = meta["checksum"]
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError):
            self.quarantine(key, kind, reason="unreadable sidecar")
            return None
        try:
            data = payload.read_bytes()
        except FileNotFoundError:
            return None
        if hashlib.sha256(data).hexdigest() != expected:
            self.quarantine(key, kind, reason="checksum mismatch")
            return None
        try:
            obj = serializer.loads(data)
        except Exception:  # corrupted payload that still hashed clean
            self.quarantine(key, kind, reason="deserialization failure")
            return None
        with contextlib.suppress(OSError):
            os.utime(payload)
        obs_metrics.registry.counter("store.get_bytes").inc(len(data))
        return obj

    def info(self, key: str, kind: str) -> Optional[ArtifactInfo]:
        """Bookkeeping for one artifact (``None`` when absent/broken)."""
        payload = self._payload_path(kind, key)
        meta_path = self._meta_path(kind, key)
        if not payload.exists() or not meta_path.exists():
            return None
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            stat = payload.stat()
        except (OSError, ValueError):
            return None
        return ArtifactInfo(
            key=key,
            kind=kind,
            path=payload,
            meta_path=meta_path,
            size_bytes=stat.st_size,
            created_at=float(meta.get("created_at", stat.st_mtime)),
            last_access_at=stat.st_mtime,
            checksum=str(meta.get("checksum", "")),
            provenance=meta.get("provenance", {}),
        )

    def infos(self, kind: Optional[str] = None) -> list:
        """All committed artifacts, optionally filtered to one kind.

        Directories of :meth:`retired_kinds` and payloads of
        :meth:`retired_formats` are skipped.
        """
        results = []
        for each_kind in [kind] if kind is not None else self._live_kinds():
            kind_dir = self.objects_dir / each_kind
            if not kind_dir.exists():
                continue
            for meta_path in sorted(kind_dir.rglob(f"*{_META_SUFFIX}")):
                name = meta_path.name
                if name.startswith(_TMP_PREFIX):
                    continue
                key = name[: -len(_META_SUFFIX)]
                info = self.info(key, each_kind)
                if info is not None:
                    results.append(info)
        return results

    def _live_kinds(self) -> list:
        """Kind directories under ``objects/`` that a serializer reads."""
        if not self.objects_dir.exists():
            return []
        return sorted(
            p.name
            for p in self.objects_dir.iterdir()
            if p.is_dir() and p.name in SERIALIZERS
        )

    def retired_kinds(self) -> list:
        """Kind directories under ``objects/`` that no serializer reads,
        left behind by an older version of the pipeline."""
        if not self.objects_dir.exists():
            return []
        return sorted(
            p.name
            for p in self.objects_dir.iterdir()
            if p.is_dir() and p.name not in SERIALIZERS
        )

    def remove_retired_kind(self, kind: str) -> None:
        """Delete the directory of one of :meth:`retired_kinds`."""
        if kind in SERIALIZERS:
            raise StoreError(f"artifact kind {kind!r} is not retired")
        shutil.rmtree(self.objects_dir / kind)

    def retired_formats(self) -> list:
        """Payloads of live kinds in an extension their serializer no
        longer writes, left behind by an older format, as ``(kind, key,
        path)``.  :meth:`infos` cannot see them; sidecars, pin markers
        and in-flight ``tmp-*`` files are not payloads."""
        found = []
        for kind in self._live_kinds():
            extension = SERIALIZERS[kind].extension
            for path in sorted((self.objects_dir / kind).rglob("*")):
                if path.is_file() and not (
                    path.name.startswith(_TMP_PREFIX)
                    or path.name.endswith((extension, _META_SUFFIX, _PIN_SUFFIX))
                ):
                    found.append((kind, path.name.split(".", 1)[0], path))
        return found

    def remove_retired_format(self, kind: str, key: str, path: Path) -> None:
        """Delete one of :meth:`retired_formats`, and its sidecar unless
        the key also has a current payload."""
        path.unlink(missing_ok=True)
        if not self._payload_path(kind, key).exists():
            self._meta_path(kind, key).unlink(missing_ok=True)

    def find(self, key_prefix: str) -> list:
        """Artifacts whose key starts with ``key_prefix`` (any kind)."""
        return [info for info in self.infos() if info.key.startswith(key_prefix)]

    # -- quarantine and pinning --------------------------------------------

    def quarantine(self, key: str, kind: str, *, reason: str = "") -> Path:
        """Move a (possibly corrupt) artifact out of the object tree."""
        destination = self.quarantine_dir / kind
        destination.mkdir(parents=True, exist_ok=True)
        moved = False
        for source in (self._payload_path(kind, key), self._meta_path(kind, key)):
            if source.exists():
                with contextlib.suppress(OSError):
                    os.replace(source, destination / source.name)
                    moved = True
        if moved:
            obs_metrics.registry.counter("store.quarantined").inc()
            if reason:
                note = destination / f"{key}.reason.txt"
                with contextlib.suppress(OSError):
                    note.write_text(reason + "\n", encoding="utf-8")
        return destination

    @contextlib.contextmanager
    def pin(self, key: str, kind: str) -> Iterator[None]:
        """Mark an artifact in-flight; GC never evicts a pinned key.

        A failed marker write (a full disk, a read-only store) leaves no
        marker behind and raises :class:`StoreError` naming the artifact
        and the errno, as :meth:`put` does.
        """
        pin_path = self._pin_path(kind, key)
        try:
            pin_path.parent.mkdir(parents=True, exist_ok=True)
            pin_path.write_text(str(os.getpid()), encoding="utf-8")
        except OSError as exc:
            with contextlib.suppress(OSError):
                pin_path.unlink()
            raise StoreError(
                f"cannot pin {kind} artifact {key}: "
                f"[errno {exc.errno}] {exc.strerror or exc}"
            ) from exc
        try:
            yield
        finally:
            with contextlib.suppress(OSError):
                pin_path.unlink()

    def is_pinned(self, key: str, kind: str) -> bool:
        return self._pin_path(kind, key).exists()

    # -- bookkeeping ---------------------------------------------------------

    def total_size_bytes(self) -> int:
        """Total committed payload bytes (sidecars excluded)."""
        return sum(info.size_bytes for info in self.infos())

    def remove(self, key: str, kind: str) -> bool:
        """Delete one artifact (payload + sidecar); True if removed."""
        if self.is_pinned(key, kind):
            raise StoreError(f"artifact {kind}/{key[:12]} is pinned (in flight)")
        removed = False
        for path in (self._payload_path(kind, key), self._meta_path(kind, key)):
            with contextlib.suppress(FileNotFoundError):
                path.unlink()
                removed = True
        return removed

    def __repr__(self) -> str:
        return f"ArtifactStore(root={str(self.root)!r})"
