"""The invariant linter's five rules, keyed by code.

Each rule and its scope live in its own module; the engine runs every
rule in :data:`RULES` on every file, and a rule outside its scope
returns no findings.
"""

from __future__ import annotations

from typing import Dict, Type

from repro.lint.rules.base import Rule
from repro.lint.rules.defaults import NoMutableDefaultRule
from repro.lint.rules.dtype import ExplicitDtypeRule
from repro.lint.rules.exceptions import ExceptionDisciplineRule
from repro.lint.rules.loops import NoPythonEdgeLoopRule
from repro.lint.rules.rng import SeededRngRule

__all__ = ["RULES"]

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
