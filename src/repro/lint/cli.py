"""Command-line interface: ``python -m repro.lint [paths]``.

Exit codes: 0 clean, 1 findings remain after suppression, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import IO, List, Optional, Sequence

from repro.errors import LintError
from repro.lint.baseline import Baseline
from repro.lint.config import find_root, load_config
from repro.lint.engine import LintReport, lint_paths
from repro.lint.rules import RULES

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
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
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="project root owning pyproject.toml and the baseline "
        "(default: auto-discovered from the first path upward)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="baseline file overriding the configured one",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="report every finding, ignoring the baseline file",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="accept all current findings into the baseline and exit 0",
    )
    parser.add_argument(
        "--check-baseline",
        action="store_true",
        help="verify no baseline entry references a deleted file, then exit "
        "(0 clean, 1 stale entries found)",
    )
    parser.add_argument(
        "--select",
        default="",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="suppress the summary line (findings are still printed)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None, stream: "IO[str] | None" = None) -> int:
    out = stream if stream is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for code in sorted(RULES):
            rule = RULES[code]
            print(
                f"{code}  {rule.name:<24} default={rule.default_severity}",
                file=out,
            )
        return EXIT_OK

    try:
        paths = _default_paths(args.paths)
        root = (args.root or find_root(paths[0])).resolve()
        config = load_config(root)
        baseline_path = (
            (root / args.baseline) if args.baseline else config.baseline_path
        )
        select = [c.strip() for c in args.select.split(",") if c.strip()]

        if args.check_baseline:
            stale = Baseline.load(baseline_path).stale_entries(root)
            for fingerprint in stale:
                print(f"stale baseline entry: {fingerprint}", file=out)
            if stale:
                print(
                    f"{len(stale)} stale baseline entr(ies); regenerate with "
                    f"--write-baseline",
                    file=out,
                )
                return EXIT_FINDINGS
            print("baseline: no stale entries", file=out)
            return EXIT_OK

        report = lint_paths(paths, config, baseline=None, select=select)
        raw = list(report.findings)

        if args.write_baseline:
            Baseline.from_findings(raw).save(baseline_path)
            print(f"wrote {len(raw)} finding(s) to {baseline_path}", file=out)
            return EXIT_OK

        baseline = None if args.no_baseline else Baseline.load(baseline_path)
        if baseline is not None:
            report.findings, report.baselined = baseline.filter(raw)
        else:
            report.findings = raw
    except LintError as exc:
        print(f"repro.lint: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    for finding in report.findings:
        print(finding.render(), file=out)
    if not args.quiet:
        print(_summary(report), file=out)
    return EXIT_OK if report.ok else EXIT_FINDINGS


def _default_paths(paths: List[Path]) -> List[Path]:
    if paths:
        return paths
    src = Path("src")
    return [src] if src.is_dir() else [Path(".")]


def _summary(report: LintReport) -> str:
    if report.ok:
        detail = []
        if report.baselined:
            detail.append(f"{len(report.baselined)} baselined")
        if report.disabled:
            detail.append(f"{report.disabled} disabled inline")
        extra = f" ({', '.join(detail)})" if detail else ""
        return f"ok: {report.files_checked} file(s) clean{extra}"
    return (
        f"{len(report.findings)} finding(s): {len(report.errors)} error(s), "
        f"{len(report.warnings)} warning(s) in {report.files_checked} file(s); "
        f"{len(report.baselined)} baselined, {report.disabled} disabled inline"
    )

