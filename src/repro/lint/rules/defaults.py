"""RL005 no-mutable-default-args: the classic shared-default trap.

A ``def f(x, cache=[])`` default is evaluated once and shared across
every call — state leaks between simulations, which is exactly the class
of nondeterminism this linter exists to keep out of the measurement
harness.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.rules.base import Finding, ModuleContext, Rule

__all__ = ["NoMutableDefaultRule"]

_MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray"})


class NoMutableDefaultRule(Rule):
    code = "RL005"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                label = _mutable_label(default)
                if label:
                    yield self.finding(
                        module,
                        default,
                        f"mutable default argument {label} in "
                        f"{node.name}() is shared across calls; default "
                        f"to None and construct inside the function",
                    )


def _mutable_label(node: ast.expr) -> str:
    if isinstance(node, ast.List):
        return "[]"
    if isinstance(node, ast.Dict):
        return "{}"
    if isinstance(node, (ast.Set, ast.SetComp, ast.ListComp, ast.DictComp)):
        return "<comprehension>"
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _MUTABLE_CALLS
    ):
        return f"{node.func.id}()"
    return ""
