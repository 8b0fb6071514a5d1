"""Command-line interface: ``python -m repro.lint [paths]``.

The linter has no settings: every rule runs at its fixed scope, and the
only suppression is a per-line ``# repro-lint: disable=RLxxx`` comment.
Exit codes: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import IO, List, Optional, Sequence

from repro.errors import LintError
from repro.lint.engine import LintReport, lint_paths

__all__ = ["main"]

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def main(argv: Optional[Sequence[str]] = None, stream: "IO[str] | None" = None) -> int:
    out = stream if stream is not None else sys.stdout
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "AST-based invariant linter for the repro simulation stack "
            "(dtype discipline, seeded RNG threading, hot-path loop "
            "hygiene, exception discipline and mutable defaults)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: src, else cwd)",
    )
    args = parser.parse_args(argv)

    try:
        paths = _default_paths(args.paths)
        report = lint_paths(paths, find_root(paths[0]))
    except LintError as exc:
        print(f"repro.lint: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    for finding in report.findings:
        print(finding.render(), file=out)
    print(_summary(report), file=out)
    return EXIT_OK if report.ok else EXIT_FINDINGS


def find_root(start: Path) -> Path:
    """Directory owning the governing ``pyproject.toml`` (or ``start``)."""
    start = start.resolve()
    probe = start if start.is_dir() else start.parent
    for candidate in (probe, *probe.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return probe


def _default_paths(paths: List[Path]) -> List[Path]:
    if paths:
        return paths
    src = Path("src")
    return [src] if src.is_dir() else [Path(".")]


def _summary(report: LintReport) -> str:
    disabled = f"{report.disabled} disabled inline"
    if report.ok:
        return f"ok: {report.files_checked} file(s) clean ({disabled})"
    return (
        f"{len(report.findings)} finding(s) in {report.files_checked} "
        f"file(s); {disabled}"
    )
