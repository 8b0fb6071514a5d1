"""Linting engine: file discovery, parsing, rule dispatch, suppression.

The engine is deliberately free of rule knowledge: it parses each module
once, builds a :class:`ModuleContext`, runs every rule in the registry,
then drops the findings a per-line ``# repro-lint: disable=RLxxx``
comment names.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Sequence, Set, Tuple

from repro.errors import LintError
from repro.lint.rules import RULES
from repro.lint.rules.base import Finding, ModuleContext, collect_import_aliases

__all__ = ["LintReport", "lint_paths", "lint_source"]

_DISABLE_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+)")


@dataclass
class LintReport:
    """Outcome of one lint run, after inline suppression."""

    findings: List[Finding] = field(default_factory=list)
    disabled: int = 0  # count suppressed by inline disable comments
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings


def lint_paths(paths: Sequence[Path], root: Path) -> LintReport:
    """Lint every ``.py`` file under ``paths`` (files or directories).

    Findings name files relative to ``root``, which is what the rule
    scopes (``src/repro/sim``, ...) are written against.
    """
    report = LintReport()
    for path in _discover(paths):
        try:
            source = path.read_text()
        except OSError as exc:
            raise LintError(f"cannot read {path}: {exc}") from exc
        findings, disabled = _lint_module(source, _relpath(path, root))
        report.findings.extend(findings)
        report.disabled += disabled
        report.files_checked += 1
    report.findings.sort(key=lambda f: (f.relpath, f.line, f.col, f.code))
    return report


def lint_source(source: str, relpath: str) -> List[Finding]:
    """Lint one in-memory module (test and tooling entry point)."""
    findings, _ = _lint_module(source, relpath)
    findings.sort(key=lambda f: (f.line, f.col, f.code))
    return findings


def _lint_module(source: str, relpath: str) -> Tuple[List[Finding], int]:
    try:
        tree = ast.parse(source, filename=relpath)
    except SyntaxError as exc:
        finding = Finding(
            code="RL000",
            relpath=relpath,
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            message=f"syntax error: {exc.msg}",
        )
        return [finding], 0
    module = ModuleContext(relpath=relpath, tree=tree)
    collect_import_aliases(module)
    lines = source.splitlines()
    findings: List[Finding] = []
    disabled = 0
    for rule in RULES.values():
        for finding in rule().check(module):
            if finding.code in _disabled_codes(lines, finding.line):
                disabled += 1
            else:
                findings.append(finding)
    return findings, disabled


def _disabled_codes(lines: List[str], lineno: int) -> Set[str]:
    """Rule codes disabled on one physical line."""
    line = lines[lineno - 1] if 1 <= lineno <= len(lines) else ""
    match = _DISABLE_RE.search(line)
    if not match:
        return set()
    return {token.strip() for token in match.group(1).split(",") if token.strip()}


def _discover(paths: Sequence[Path]) -> List[Path]:
    files: List[Path] = []
    seen: Set[Path] = set()
    for path in paths:
        if not path.exists():
            raise LintError(f"no such file or directory: {path}")
        candidates = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                files.append(candidate)
    return files


def _relpath(path: Path, root: Path) -> str:
    resolved = path.resolve()
    try:
        return resolved.relative_to(root.resolve()).as_posix()
    except ValueError:
        return resolved.as_posix()
