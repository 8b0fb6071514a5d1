"""The invariant linter's five rules, keyed by code.

Each rule self-describes via class attributes on its :class:`Rule`
subclass; severity overrides, disable comments, baselining and CLI
selection all read :data:`RULES`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Type

from repro.errors import LintError
from repro.lint.rules.base import (
    Finding,
    ModuleContext,
    Rule,
    Severity,
    collect_import_aliases,
)
from repro.lint.rules.defaults import NoMutableDefaultRule
from repro.lint.rules.dtype import ExplicitDtypeRule
from repro.lint.rules.exceptions import ExceptionDisciplineRule
from repro.lint.rules.loops import NoPythonEdgeLoopRule
from repro.lint.rules.rng import SeededRngRule

__all__ = [
    "Finding",
    "ModuleContext",
    "Rule",
    "Severity",
    "RULES",
    "resolve_rules",
    "collect_import_aliases",
]

RULES: Dict[str, Type[Rule]] = {
    rule.code: rule
    for rule in (
        ExplicitDtypeRule,
        SeededRngRule,
        NoPythonEdgeLoopRule,
        ExceptionDisciplineRule,
        NoMutableDefaultRule,
    )
}


def resolve_rules(select: Iterable[str] = ()) -> List[Rule]:
    """Instantiate the selected rules (all rules by default)."""
    codes = list(select) or sorted(RULES)
    unknown = [code for code in codes if code not in RULES]
    if unknown:
        raise LintError(
            f"unknown rule code(s) {', '.join(unknown)}; "
            f"known: {', '.join(sorted(RULES))}"
        )
    return [RULES[code]() for code in codes]
