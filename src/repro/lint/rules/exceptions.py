"""RL004 exception-discipline: library errors derive from ReproError.

The package promises callers that every deliberate failure is catchable
as :class:`repro.errors.ReproError` (one ``except`` clause for library
faults, programming errors propagate).  Raising a builtin directly, or
swallowing everything with a bare ``except:``, silently breaks that
contract.  Protocol-mandated builtins (``TypeError`` from ``__hash__``)
use the per-line ``# repro-lint: disable=RL004`` escape hatch.
"""

from __future__ import annotations

import ast
import builtins
from typing import Iterator

from repro.lint.rules.base import Finding, ModuleContext, Rule

__all__ = ["ExceptionDisciplineRule"]

#: All builtin exception class names (computed once at import).
BUILTIN_EXCEPTIONS = frozenset(
    name
    for name, obj in vars(builtins).items()
    if isinstance(obj, type) and issubclass(obj, BaseException)
)

#: Builtins that may still be raised: protocol and control-flow exceptions.
ALLOWED_RAISES = frozenset(
    {"NotImplementedError", "SystemExit", "KeyboardInterrupt", "StopIteration"}
)


class ExceptionDisciplineRule(Rule):
    code = "RL004"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Raise):
                name = _raised_builtin(node)
                if name and name not in ALLOWED_RAISES:
                    yield self.finding(
                        module,
                        node,
                        f"raise {name} — deliberate library errors must "
                        f"derive from repro.errors.ReproError (or disable "
                        f"for protocol-mandated builtins)",
                    )
            elif isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.finding(
                    module,
                    node,
                    "bare 'except:' also swallows SystemExit and "
                    "KeyboardInterrupt; catch a specific exception type",
                )


def _raised_builtin(node: ast.Raise) -> str:
    exc = node.exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Name) and exc.id in BUILTIN_EXCEPTIONS:
        return exc.id
    return ""
