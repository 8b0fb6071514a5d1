"""Project-wide call-graph construction for the effect analyzer.

Two layers:

:func:`summarize_module`
    Parses one module and extracts, per function, its *intrinsic*
    effects (direct ``time.time()``-style hazards, found by
    :mod:`repro.lint.effects.inference`), its declared-effect
    annotation, and every call site resolved as far as a single module
    can — to sibling/nested functions, imported project functions,
    classes (constructor and methods, including through parameter
    annotations, ``self`` attribute types and local constructor
    assignments).  The result is a :class:`ModuleSummary`, the unit the
    on-disk analysis cache stores.

:class:`ProjectIndex`
    Links the summaries: maps dotted module paths to summaries and
    resolves symbolic :class:`CallRef`\\ s to concrete function ids,
    walking class bases for method lookup.

Resolution is deliberately **optimistic**: a call the linker cannot
resolve statically (a callable parameter, a registry dispatch, a
method on an unannotated object) contributes *no* effects.  The
analyzer is a determinism tripwire with an explanation chain for every
alarm, not a soundness proof — DESIGN.md §12 spells out the contract.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.effects.inference import IntrinsicDetector
from repro.lint.effects.model import (
    CallRef,
    ClassSummary,
    FunctionSummary,
    ModuleSummary,
)

__all__ = ["module_dotted", "summarize_module", "ProjectIndex", "FunctionId"]

#: (relpath, qualname) — the global identity of one analyzed function.
FunctionId = Tuple[str, str]


def module_dotted(relpath: str) -> str:
    """Dotted module path of a project-relative ``.py`` file.

    A leading ``src/`` component is stripped so ``src/repro/sim/cache.py``
    resolves imports of ``repro.sim.cache``; ``__init__.py`` names the
    package itself.
    """
    parts = relpath.split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if not parts:
        return ""
    leaf = parts[-1]
    if leaf == "__init__.py":
        parts = parts[:-1]
    elif leaf.endswith(".py"):
        parts[-1] = leaf[: -len(".py")]
    return ".".join(parts)


class _ImportTable:
    """Module-wide import bindings (module-level and function-local)."""

    def __init__(self, tree: ast.Module, dotted: str, is_package: bool) -> None:
        #: local name -> dotted module path (``import x.y as z``)
        self.module_aliases: Dict[str, str] = {}
        #: local name -> (dotted module, attr) (``from x import y``)
        self.from_imports: Dict[str, Tuple[str, str]] = {}
        package = dotted if is_package else dotted.rsplit(".", 1)[0] if "." in dotted else ""
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if alias.asname:
                        self.module_aliases[bound] = alias.name
                    else:
                        self.module_aliases[bound] = alias.name.split(".")[0]
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    anchor = package.split(".") if package else []
                    up = node.level - 1
                    if up:
                        anchor = anchor[:-up] if up <= len(anchor) else []
                    base = ".".join(anchor + ([node.module] if node.module else []))
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    self.from_imports[bound] = (base, alias.name)


def _attr_chain(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` as ``["a", "b", "c"]``; None for non-name-rooted chains."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def _decorator_name(dec: ast.expr) -> Optional[str]:
    """Trailing name of a decorator expression (``x``, ``m.x``, ``x(...)``)."""
    if isinstance(dec, ast.Call):
        dec = dec.func
    if isinstance(dec, ast.Attribute):
        return dec.attr
    if isinstance(dec, ast.Name):
        return dec.id
    return None


def _declared_from_decorators(
    decorators: Sequence[ast.expr],
) -> Optional[Tuple[str, ...]]:
    """Effect names from an AST-level ``@declares_effects(...)``."""
    for dec in decorators:
        if isinstance(dec, ast.Call) and _decorator_name(dec) == "declares_effects":
            names = tuple(
                arg.value
                for arg in dec.args
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
            )
            return names
    return None


def _is_cached_stage(decorators: Sequence[ast.expr]) -> bool:
    return any(
        isinstance(dec, ast.Call) and _decorator_name(dec) == "cached_stage"
        for dec in decorators
    )


ClassRef = Tuple[Optional[str], str]  # (module-or-None, ClassName)


class _ModuleExtractor:
    """Single-module walk building the :class:`ModuleSummary`."""

    def __init__(self, tree: ast.Module, relpath: str, dotted: str) -> None:
        self.tree = tree
        self.relpath = relpath
        self.dotted = dotted
        is_package = relpath.endswith("__init__.py")
        self.imports = _ImportTable(tree, dotted, is_package)
        self.summary = ModuleSummary(relpath=relpath, dotted=dotted)
        #: every module-level binding (for global-mutate shadow checks)
        self.module_globals: Set[str] = set(self.imports.module_aliases)
        self.module_globals.update(self.imports.from_imports)
        self.top_functions: Set[str] = set()
        self.top_classes: Set[str] = set()
        self._collect_module_scope()

    # -- module scope ---------------------------------------------------

    def _collect_module_scope(self) -> None:
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.top_functions.add(node.name)
                self.module_globals.add(node.name)
            elif isinstance(node, ast.ClassDef):
                self.top_classes.add(node.name)
                self.module_globals.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    for name_node in ast.walk(target):
                        if isinstance(name_node, ast.Name):
                            self.module_globals.add(name_node.id)
                if (
                    len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.Call)
                ):
                    ref = self._class_ref_of_call(node.value)
                    if ref is not None:
                        self.summary.global_types[node.targets[0].id] = ref
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                self.module_globals.add(node.target.id)

    def _class_ref_of_name(self, name: str) -> Optional[ClassRef]:
        """Resolve a bare name to a (possibly imported) class reference."""
        if name in self.top_classes:
            return (None, name)
        if name in self.imports.from_imports:
            module, attr = self.imports.from_imports[name]
            return (module, attr)
        return None

    def _class_ref_of_call(self, call: ast.Call) -> Optional[ClassRef]:
        """``ClassName(...)`` / ``mod.ClassName(...)`` as a class ref."""
        chain = _attr_chain(call.func)
        if chain is None:
            return None
        if len(chain) == 1:
            return self._class_ref_of_name(chain[0])
        if len(chain) == 2 and chain[0] in self.imports.module_aliases:
            return (self.imports.module_aliases[chain[0]], chain[1])
        return None

    def _class_ref_of_annotation(self, ann: Optional[ast.expr]) -> Optional[ClassRef]:
        """Unwrap ``C``, ``Optional[C]``, ``C | None``, ``"C | None"``."""
        if ann is None:
            return None
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            try:
                ann = ast.parse(ann.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(ann, ast.Subscript):
            chain = _attr_chain(ann.value)
            wrapper = chain[-1] if chain else None
            if wrapper in ("Optional", "Union"):
                inner = ann.slice
                if isinstance(inner, ast.Tuple):
                    for elt in inner.elts:
                        ref = self._class_ref_of_annotation(elt)
                        if ref is not None:
                            return ref
                    return None
                return self._class_ref_of_annotation(inner)
            return None
        if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
            return self._class_ref_of_annotation(
                ann.left
            ) or self._class_ref_of_annotation(ann.right)
        if isinstance(ann, ast.Name):
            return self._class_ref_of_name(ann.id)
        if isinstance(ann, ast.Attribute):
            chain = _attr_chain(ann)
            if chain and len(chain) == 2 and chain[0] in self.imports.module_aliases:
                return (self.imports.module_aliases[chain[0]], chain[1])
        return None

    # -- extraction -----------------------------------------------------

    def run(self) -> ModuleSummary:
        self._walk_body(self.tree.body, prefix="", class_name=None, enclosing=[])
        return self.summary

    def _walk_body(
        self,
        body: Sequence[ast.stmt],
        prefix: str,
        class_name: Optional[str],
        enclosing: List[Dict[str, str]],
    ) -> None:
        """Recursive scope walk registering functions and classes.

        ``enclosing`` maps visible nested-function names to qualnames,
        innermost scope last, so sibling/outer nested calls resolve.
        """
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{node.name}"
                self._extract_function(node, qualname, class_name, enclosing)
                nested_scope = {
                    child.name: f"{qualname}.{child.name}"
                    for child in node.body
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                }
                self._walk_body(
                    node.body,
                    prefix=f"{qualname}.",
                    class_name=None,
                    enclosing=enclosing + [nested_scope],
                )
            elif isinstance(node, ast.ClassDef):
                qualname = f"{prefix}{node.name}"
                self._extract_class(node, qualname)
                self._walk_body(
                    node.body,
                    prefix=f"{qualname}.",
                    class_name=qualname,
                    enclosing=enclosing,
                )

    def _extract_class(self, node: ast.ClassDef, qualname: str) -> None:
        cls = ClassSummary(name=qualname)
        for base in node.bases:
            chain = _attr_chain(base)
            if chain is None:
                continue
            if len(chain) == 1:
                ref = self._class_ref_of_name(chain[0])
                if ref is not None:
                    cls.bases.append(ref)
            elif len(chain) == 2 and chain[0] in self.imports.module_aliases:
                cls.bases.append((self.imports.module_aliases[chain[0]], chain[1]))
        for child in node.body:
            if isinstance(child, ast.AnnAssign) and isinstance(child.target, ast.Name):
                ref = self._class_ref_of_annotation(child.annotation)
                if ref is not None:
                    cls.attr_types[child.target.id] = ref
            elif (
                isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                and child.name == "__init__"
            ):
                for stmt in ast.walk(child):
                    if (
                        isinstance(stmt, ast.Assign)
                        and len(stmt.targets) == 1
                        and isinstance(stmt.targets[0], ast.Attribute)
                        and isinstance(stmt.targets[0].value, ast.Name)
                        and stmt.targets[0].value.id == "self"
                        and isinstance(stmt.value, ast.Call)
                    ):
                        ref = self._class_ref_of_call(stmt.value)
                        if ref is not None:
                            cls.attr_types[stmt.targets[0].attr] = ref
                    elif (
                        isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Attribute)
                        and isinstance(stmt.target.value, ast.Name)
                        and stmt.target.value.id == "self"
                    ):
                        ref = self._class_ref_of_annotation(stmt.annotation)
                        if ref is not None:
                            cls.attr_types[stmt.target.attr] = ref
        self.summary.classes[qualname] = cls

    def _extract_function(
        self,
        node: "ast.FunctionDef | ast.AsyncFunctionDef",
        qualname: str,
        class_name: Optional[str],
        enclosing: List[Dict[str, str]],
    ) -> None:
        fn = FunctionSummary(
            qualname=qualname,
            lineno=node.lineno,
            declared=_declared_from_decorators(node.decorator_list),
            cached_stage=_is_cached_stage(node.decorator_list),
        )
        own_nodes = list(_own_nodes(node))
        local_types = self._local_types(node, own_nodes)
        locals_bound = _local_bindings(node, own_nodes)
        aliases = _global_aliases(own_nodes, self.module_globals, locals_bound)

        detector = IntrinsicDetector(
            imports=self.imports,
            local_shadow=locals_bound,
            module_globals=self.module_globals,
            global_aliases=aliases,
        )
        fn.intrinsics = detector.scan(own_nodes)

        nested_here = {
            child.name: f"{qualname}.{child.name}"
            for child in node.body
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        scopes = enclosing + [nested_here]
        for sub in own_nodes:
            if isinstance(sub, ast.Call):
                ref = self._resolve_call(sub, class_name, local_types, scopes, locals_bound)
                if ref is not None:
                    fn.calls.append(ref)
        self.summary.functions[qualname] = fn

    def _local_types(
        self,
        node: "ast.FunctionDef | ast.AsyncFunctionDef",
        own_nodes: Sequence[ast.AST],
    ) -> Dict[str, ClassRef]:
        """Parameter-annotation and constructor-assignment types."""
        types: Dict[str, ClassRef] = {}
        args = node.args
        all_args = (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        )
        for arg in all_args:
            ref = self._class_ref_of_annotation(arg.annotation)
            if ref is not None:
                types[arg.arg] = ref
        for sub in own_nodes:
            if (
                isinstance(sub, ast.Assign)
                and len(sub.targets) == 1
                and isinstance(sub.targets[0], ast.Name)
                and isinstance(sub.value, ast.Call)
            ):
                ref = self._class_ref_of_call(sub.value)
                if ref is not None:
                    types[sub.targets[0].id] = ref
            elif (
                isinstance(sub, ast.AnnAssign)
                and isinstance(sub.target, ast.Name)
            ):
                ref = self._class_ref_of_annotation(sub.annotation)
                if ref is not None:
                    types[sub.target.id] = ref
        return types

    def _resolve_call(
        self,
        call: ast.Call,
        class_name: Optional[str],
        local_types: Dict[str, ClassRef],
        scopes: List[Dict[str, str]],
        locals_bound: Set[str],
    ) -> Optional[CallRef]:
        chain = _attr_chain(call.func)
        if chain is None:
            return None
        line = call.lineno
        head = chain[0]
        # self.method() / self.attr.method()
        if head == "self" and class_name is not None:
            cls = self.summary.classes.get(class_name)
            if len(chain) == 2:
                return CallRef(None, f"{class_name}.{chain[1]}", line)
            if len(chain) == 3 and cls is not None:
                attr_type = cls.attr_types.get(chain[1])
                if attr_type is not None:
                    return CallRef(attr_type[0], f"{attr_type[1]}.{chain[2]}", line)
            return None
        # typed local / parameter: obj.method()
        if head in local_types and len(chain) == 2:
            mod, cls_name = local_types[head]
            return CallRef(mod, f"{cls_name}.{chain[1]}", line)
        if head in locals_bound:
            return None  # other locals shadow everything below
        # plain name: nested scopes, then module functions/classes, imports
        if len(chain) == 1:
            for scope in reversed(scopes):
                if head in scope:
                    return CallRef(None, scope[head], line)
            if head in self.top_functions or head in self.top_classes:
                return CallRef(None, head, line)
            if head in self.imports.from_imports:
                module, attr = self.imports.from_imports[head]
                return CallRef(module, attr, line)
            return None
        # module alias: mod.func(), mod.var.method()
        if head in self.imports.module_aliases:
            return CallRef(
                self.imports.module_aliases[head], ".".join(chain[1:]), line
            )
        # from-import: name.method() (class-or-module attribute)
        if head in self.imports.from_imports:
            module, attr = self.imports.from_imports[head]
            return CallRef(module, ".".join([attr] + chain[1:]), line)
        # module-level class or typed module-level var
        if head in self.top_classes and len(chain) == 2:
            return CallRef(None, f"{head}.{chain[1]}", line)
        if head in self.summary.global_types and len(chain) == 2:
            mod, cls_name = self.summary.global_types[head]
            return CallRef(mod, f"{cls_name}.{chain[1]}", line)
        return None


def _own_nodes(
    node: "ast.FunctionDef | ast.AsyncFunctionDef",
) -> Iterator[ast.AST]:
    """The nodes belonging to one function body, excluding nested defs.

    Nested functions/classes are separate analysis units (their effects
    flow only through resolved calls); lambda bodies and decorator
    expressions are likewise deferred work, not part of this body's
    execution, and are skipped (documented optimism, DESIGN.md §12).
    """
    stack: List[ast.AST] = list(node.body)
    while stack:
        current = stack.pop()
        yield current
        if isinstance(
            current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(current))


def _local_bindings(
    node: "ast.FunctionDef | ast.AsyncFunctionDef",
    own_nodes: Sequence[ast.AST],
) -> Set[str]:
    """Names bound locally (params + any Store), minus ``global`` names."""
    bound: Set[str] = set()
    args = node.args
    for arg in (
        list(args.posonlyargs)
        + list(args.args)
        + list(args.kwonlyargs)
        + ([args.vararg] if args.vararg else [])
        + ([args.kwarg] if args.kwarg else [])
    ):
        bound.add(arg.arg)
    declared_global: Set[str] = set()
    for sub in own_nodes:
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, (ast.Store, ast.Del)):
            bound.add(sub.id)
        elif isinstance(sub, ast.Global):
            declared_global.update(sub.names)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            for alias in sub.names:
                bound.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(sub.name)
    return bound - declared_global


def _global_aliases(
    own_nodes: Sequence[ast.AST],
    module_globals: Set[str],
    locals_bound: Set[str],
) -> Dict[str, str]:
    """Locals that alias a module-level name (``state = _STATE``).

    Single-assignment only: a name reassigned anywhere else in the
    function is dropped (it may point elsewhere by mutation time).
    """
    candidates: Dict[str, str] = {}
    reassigned: Set[str] = set()
    store_counts: Dict[str, int] = {}
    for sub in own_nodes:
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, (ast.Store, ast.Del)):
            store_counts[sub.id] = store_counts.get(sub.id, 0) + 1
    for sub in own_nodes:
        if (
            isinstance(sub, ast.Assign)
            and len(sub.targets) == 1
            and isinstance(sub.targets[0], ast.Name)
            and isinstance(sub.value, ast.Name)
            and sub.value.id in module_globals
            and sub.value.id not in locals_bound
        ):
            name = sub.targets[0].id
            if store_counts.get(name, 0) == 1:
                candidates[name] = sub.value.id
            else:
                reassigned.add(name)
    return {k: v for k, v in candidates.items() if k not in reassigned}


def summarize_module(source: str, relpath: str) -> ModuleSummary:
    """Parse and summarize one module (raises ``SyntaxError`` as-is)."""
    tree = ast.parse(source, filename=relpath)
    return _ModuleExtractor(tree, relpath, module_dotted(relpath)).run()


class ProjectIndex:
    """Linked view over every module summary in the analyzed tree."""

    def __init__(self, summaries: Sequence[ModuleSummary]) -> None:
        self.by_relpath: Dict[str, ModuleSummary] = {
            s.relpath: s for s in summaries
        }
        self.by_dotted: Dict[str, ModuleSummary] = {}
        for summary in summaries:
            if summary.dotted:
                self.by_dotted[summary.dotted] = summary

    def functions(self) -> Iterator[Tuple[FunctionId, FunctionSummary]]:
        for summary in self.by_relpath.values():
            for qualname, fn in summary.functions.items():
                yield (summary.relpath, qualname), fn

    def get(self, fid: FunctionId) -> Optional[FunctionSummary]:
        summary = self.by_relpath.get(fid[0])
        if summary is None:
            return None
        return summary.functions.get(fid[1])

    def resolve(self, caller: ModuleSummary, ref: CallRef) -> Optional[FunctionId]:
        """Concrete function id for a call reference, or None (dropped)."""
        target = caller if ref.module is None else self.by_dotted.get(ref.module)
        if target is None:
            return None
        return self._resolve_in(
            target, ref.qualname, cross_module=ref.module is not None, depth=0
        )

    def _resolve_in(
        self, target: ModuleSummary, qualname: str, cross_module: bool, depth: int
    ) -> Optional[FunctionId]:
        if depth > 4:
            return None
        if qualname in target.functions:
            return (target.relpath, qualname)
        parts = qualname.split(".")
        if parts[0] in target.classes:
            method = parts[1] if len(parts) > 1 else "__init__"
            return self._find_method(target, parts[0], method)
        if parts[0] in target.global_types and len(parts) == 2:
            mod, cls_name = target.global_types[parts[0]]
            home = target if mod is None else self.by_dotted.get(mod)
            if home is not None:
                return self._find_method(home, cls_name, parts[1])
        # submodule hop: ``from repro.sim import _kernels`` then
        # ``_kernels.kernel_mode(...)`` arrives as ("repro.sim",
        # "_kernels.kernel_mode") — descend into the real module.
        if target.dotted and len(parts) > 1:
            sub = self.by_dotted.get(f"{target.dotted}.{parts[0]}")
            if sub is not None:
                return self._resolve_in(
                    sub, ".".join(parts[1:]), cross_module=True, depth=depth + 1
                )
        # one package-indirection hop: ``from repro.store import cached_stage``
        # re-exports ``repro.store.memo.cached_stage`` — chase __init__ bodies
        # by scanning the package's sibling modules for the name.
        if cross_module and target.dotted and target.relpath.endswith("__init__.py"):
            prefix = target.dotted + "."
            for dotted in sorted(self.by_dotted):
                if not dotted.startswith(prefix):
                    continue
                summary = self.by_dotted[dotted]
                if qualname in summary.functions:
                    return (summary.relpath, qualname)
                if parts[0] in summary.classes:
                    method = parts[1] if len(parts) > 1 else "__init__"
                    found = self._find_method(summary, parts[0], method)
                    if found is not None:
                        return found
        return None

    def _find_method(
        self, module: ModuleSummary, class_name: str, method: str, depth: int = 0
    ) -> Optional[FunctionId]:
        """Method lookup walking base classes (bounded, cross-module)."""
        if depth > 8:
            return None
        cls = module.classes.get(class_name)
        if cls is None:
            return None
        qualname = f"{class_name}.{method}"
        if qualname in module.functions:
            return (module.relpath, qualname)
        for base_mod, base_name in cls.bases:
            home = module if base_mod is None else self.by_dotted.get(base_mod)
            if home is None:
                continue
            found = self._find_method(home, base_name, method, depth + 1)
            if found is not None:
                return found
        return None
