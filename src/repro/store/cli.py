"""``python -m repro.store`` — inspect and maintain the artifact store.

Subcommands::

    ls      [--kind KIND]          list artifacts (kind, key, size, age)
    info    KEY_PREFIX             full metadata + provenance of one artifact
    verify  [--quarantine]         checksum-verify and decode every artifact
    gc      --max-mb N | --max-bytes N   LRU-evict down to a size bound

The store root is ``--store DIR`` if given, else ``$REPRO_STORE_DIR``,
else ``./.repro-store``.  Exit codes: 0 ok, 1 problems found (verify
failures, unknown key), 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Optional

from repro.errors import ReproError
from repro.store.gc import collect_garbage, verify_store
from repro.store.store import ArtifactStore, default_store_dir

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store",
        description="Inspect and maintain the content-addressed artifact store.",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="store root (default: $REPRO_STORE_DIR or ./.repro-store)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ls = sub.add_parser("ls", help="list artifacts")
    ls.add_argument("--kind", default=None, help="filter to one artifact kind")

    info = sub.add_parser("info", help="show one artifact's metadata")
    info.add_argument("key_prefix", help="content key (or unique prefix)")

    verify = sub.add_parser(
        "verify", help="checksum-verify and decode every artifact"
    )
    verify.add_argument(
        "--quarantine",
        action="store_true",
        help="move failing artifacts into quarantine/",
    )

    gc = sub.add_parser("gc", help="evict LRU artifacts down to a size bound")
    group = gc.add_mutually_exclusive_group(required=True)
    group.add_argument("--max-mb", type=float, default=None, help="size bound in MiB")
    group.add_argument("--max-bytes", type=int, default=None, help="size bound in bytes")

    return parser


def _age(seconds: float) -> str:
    if seconds < 120:
        return f"{seconds:.0f}s"
    if seconds < 7200:
        return f"{seconds / 60:.0f}m"
    if seconds < 172800:
        return f"{seconds / 3600:.1f}h"
    return f"{seconds / 86400:.1f}d"


def _cmd_ls(store: ArtifactStore, kind: Optional[str]) -> int:
    infos = store.infos(kind)
    if not infos:
        print(f"(empty store at {store.root})")
        return 0
    now = time.time()
    print(f"{'kind':<16} {'key':<16} {'size':>12} {'age':>6} {'accessed':>8}")
    total = 0
    for info in infos:
        total += info.size_bytes
        print(
            f"{info.kind:<16} {info.key[:12] + '…':<16} "
            f"{info.size_bytes:>12,} {_age(now - info.created_at):>6} "
            f"{_age(now - info.last_access_at):>8}"
        )
    print(f"{len(infos)} artifact(s), {total:,} bytes at {store.root}")
    return 0


def _cmd_info(store: ArtifactStore, key_prefix: str) -> int:
    matches = store.find(key_prefix)
    if not matches:
        print(f"no artifact with key prefix {key_prefix!r}")
        return 1
    if len(matches) > 1:
        print(f"{len(matches)} artifacts match {key_prefix!r}:")
        for info in matches:
            print(f"  {info.kind}/{info.key}")
        return 1
    info = matches[0]
    document = {
        "key": info.key,
        "kind": info.kind,
        "path": str(info.path),
        "size_bytes": info.size_bytes,
        "checksum": info.checksum,
        "created_at": info.created_at,
        "last_access_at": info.last_access_at,
        "pinned": info.pinned,
        "provenance": info.provenance,
    }
    print(json.dumps(document, indent=2))
    return 0


def _cmd_verify(store: ArtifactStore, quarantine: bool) -> int:
    report = verify_store(store, quarantine=quarantine)
    print(report.summary())
    for issue in report.issues:
        print(f"  [{issue.problem}] {issue.kind}/{issue.key}")
    if report.quarantined:
        print(f"{report.quarantined} artifact(s) moved to {store.quarantine_dir}")
    return 0 if report.ok else 1


def _cmd_gc(store: ArtifactStore, max_bytes: int) -> int:
    report = collect_garbage(store, max_bytes)
    print(report.summary())
    for kind, key in report.evicted:
        print(f"  evicted {kind}/{key[:12]}")
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    store = ArtifactStore(args.store if args.store else default_store_dir())
    try:
        if args.command == "ls":
            return _cmd_ls(store, args.kind)
        if args.command == "info":
            return _cmd_info(store, args.key_prefix)
        if args.command == "verify":
            return _cmd_verify(store, args.quarantine)
        if args.command == "gc":
            max_bytes = (
                args.max_bytes
                if args.max_bytes is not None
                else int(args.max_mb * 1024 * 1024)
            )
            return _cmd_gc(store, max_bytes)
    except ReproError as exc:
        print(f"error: {exc}")
        return 2
    return 2
