"""Shared vocabulary of the invariant linter: findings, modules, rules.

A rule is a small AST visitor packaged with an identity (``code``) and
a fix-it oriented message.  Rules are registered in
:mod:`repro.lint.rules` and run by :mod:`repro.lint.engine`; they never
read files themselves — the engine hands each one a fully parsed
:class:`ModuleContext`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, Set

__all__ = [
    "Finding",
    "ModuleContext",
    "Rule",
    "collect_import_aliases",
]


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    code: str
    relpath: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.relpath}:{self.line}:{self.col}: {self.code} {self.message}"


@dataclass
class ModuleContext:
    """Everything a rule may inspect about one parsed module."""

    relpath: str  # POSIX-style, relative to the lint root
    tree: ast.Module
    numpy_aliases: Set[str] = field(default_factory=set)
    numpy_random_aliases: Set[str] = field(default_factory=set)
    stdlib_random_aliases: Set[str] = field(default_factory=set)
    numpy_from_imports: Dict[str, str] = field(default_factory=dict)


class Rule:
    """Base class for the invariant checks.

    Subclasses set ``code`` and implement :meth:`check`, yielding
    findings built by :meth:`finding`.
    """

    code: str = "RL000"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, module: ModuleContext, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            code=self.code,
            relpath=module.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


def collect_import_aliases(module: ModuleContext) -> None:
    """Populate the numpy / ``random`` alias tables of ``module``.

    Tracks ``import numpy as np``, ``import numpy.random as nr``,
    ``from numpy import zeros``, ``from numpy import random`` and plain
    ``import random`` so rules can resolve attribute chains without
    guessing at naming conventions.
    """
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if alias.name == "numpy":
                    module.numpy_aliases.add(bound)
                elif alias.name == "numpy.random":
                    if alias.asname:
                        module.numpy_random_aliases.add(alias.asname)
                    else:  # ``import numpy.random`` binds ``numpy``
                        module.numpy_aliases.add("numpy")
                elif alias.name == "random":
                    module.stdlib_random_aliases.add(bound)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "numpy":
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if alias.name == "random":
                        module.numpy_random_aliases.add(bound)
                    else:
                        module.numpy_from_imports[bound] = alias.name
