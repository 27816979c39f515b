"""Whole-program semantic model for the project-scoped lint rules.

The per-file rules (R1-R5) each walk one AST; the flow rules (R6-R8)
need to see *across* call sites: who calls whom, with which arguments,
against which signature.  This module builds that view:

- a :class:`ModuleInfo` per linted file — the module's import bindings,
  its function/method signatures, and a summary of every call site in
  each function body;
- a :class:`ProjectModel` over all files — dotted-name resolution of
  call sites through ``repro.*`` imports (including re-exports through
  package ``__init__`` modules), and the transitive *sampling closure*:
  the set of functions that can reach a randomness sink
  (``Distribution.sample``, ``numpy.random.default_rng``) through
  resolved calls or function references.

Everything here is a plain-data summary (dataclasses of str/int/bool),
deliberately JSON-round-trippable so the incremental cache
(:mod:`repro.lint.cache`) can persist per-file summaries and rebuild
the whole-program model without re-parsing an unchanged tree.
"""

from __future__ import annotations

import ast
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.lint.astutil import call_name, dotted_name
from repro.lint.cfg import CFG, build_cfg
from repro.lint.pragmas import clock_ok_annotations

__all__ = [
    "ArgSummary",
    "CallSite",
    "FunctionInfo",
    "KNOB_NAMES",
    "ModuleInfo",
    "ProjectModel",
    "SEED_PARAM_NAMES",
    "build_module_info",
    "module_name_for",
    "wants_cfg",
]

# Parameter / binding names that carry the reproducibility seed.
SEED_PARAM_NAMES = frozenset({"seed", "rng", "ss", "seed_sequence", "random_state"})

# Call tails that *consume* randomness: reaching one of these makes a
# function part of the sampling closure.
_SAMPLING_TAILS = frozenset({"sample", "sample_conditional"})


@dataclass(frozen=True)
class ArgSummary:
    """Shape of one argument expression at a call site.

    ``kind`` is ``"literal"`` (numeric constant, ``value`` set),
    ``"name"`` (a Name or Attribute chain, ``name`` is the terminal
    identifier, ``dotted`` the full chain), or ``"other"``.
    """

    kind: str
    value: float | None = None
    name: str | None = None
    dotted: str | None = None


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body.

    ``guard`` is the strongest ``try`` protection enclosing the site
    (``""`` < ``"narrow"`` < ``"oserror"`` < ``"broad"``, by handler
    type); ``in_handler`` marks sites inside an ``except`` body (they
    run while converting a failure, under the *outer* guard only).
    """

    callee: str  # dotted name as written, e.g. "np.random.default_rng"
    lineno: int
    col: int
    args: tuple[ArgSummary, ...] = ()
    keywords: tuple[tuple[str, ArgSummary], ...] = ()
    has_star_args: bool = False
    has_star_kwargs: bool = False
    guard: str = ""
    in_handler: bool = False

    def keyword_names(self) -> set[str]:
        """Names of every keyword argument passed at this site."""
        return {k for k, _ in self.keywords}


@dataclass(frozen=True)
class Param:
    """One parameter of a function signature."""

    name: str
    kind: str  # "pos" (positional-or-keyword / positional-only) or "kw"
    has_default: bool = False


@dataclass
class FunctionInfo:
    """Signature + body summary of one function or method."""

    name: str
    qualname: str  # module-relative, e.g. "ParallelRunner.run"
    lineno: int
    col: int
    params: list[Param] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)
    # (name, lineno, col) of assignments that rebind a seed-carrying
    # name to a constant-only expression — R6's "shadow" hazard.
    seed_shadows: list[tuple[str, int, int]] = field(default_factory=list)
    samples_directly: bool = False
    is_test: bool = False
    # (knob, lineno, col, hazard) for fast-path branches with a missing
    # or raising reference branch — R14's raw material
    knob_hazards: list[tuple[str, int, int, str]] = field(default_factory=list)
    # line numbers of raise statements outside any enclosing try
    raises: list[int] = field(default_factory=list)
    # control-flow graph; only built for files in the envelope-contract
    # scope (see :func:`wants_cfg`) to keep cache entries small
    cfg: CFG | None = None

    @property
    def is_public(self) -> bool:
        return not self.name.startswith("_")

    def param_names(self) -> list[str]:
        """All parameter names, in signature order."""
        return [p.name for p in self.params]

    def seed_params(self) -> set[str]:
        """Parameters that carry the reproducibility seed, if any."""
        return {p.name for p in self.params if p.name in SEED_PARAM_NAMES}

    def positional_params(self) -> list[Param]:
        """Positional slots as seen by a caller (leading self/cls dropped
        for methods)."""
        params = [p for p in self.params if p.kind == "pos"]
        if "." in self.qualname and params and params[0].name in ("self", "cls"):
            params = params[1:]
        return params


@dataclass
class ModuleInfo:
    """Summary of one linted file."""

    module: str  # dotted module name ("repro.cli", "tests.test_lint", ...)
    path: str  # posix path the file was linted at
    imports: dict[str, str] = field(default_factory=dict)  # alias -> target
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    exports: list[str] = field(default_factory=list)  # literal __all__
    strings: list[str] = field(default_factory=list)  # every str constant
    # top-level NAME = "string constant" bindings
    constants: dict[str, str] = field(default_factory=dict)
    # calls at module level (outside any function body) — the envelope
    # rule needs them because module-level prints bypass every handler
    toplevel_calls: list[CallSite] = field(default_factory=list)
    # class qualname -> {attr -> constructor dotted name} for one-level
    # ``self.x = Ctor(...)`` assignments (receiver-type resolution)
    attr_types: dict[str, dict[str, str]] = field(default_factory=dict)
    # 1-based line -> justification of a ``# reprolint: clock-ok=`` pragma
    clock_ok: dict[int, str] = field(default_factory=dict)

    # -- serialization (for the incremental cache) ---------------------

    def to_json(self) -> dict[str, Any]:
        """Plain-data form for the incremental cache."""
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "ModuleInfo":
        functions = {}
        for qual, fn in data.get("functions", {}).items():
            functions[qual] = FunctionInfo(
                name=fn["name"],
                qualname=fn["qualname"],
                lineno=fn["lineno"],
                col=fn["col"],
                params=[Param(**p) for p in fn.get("params", [])],
                calls=[_call_site_from_json(c) for c in fn.get("calls", [])],
                seed_shadows=[tuple(s) for s in fn.get("seed_shadows", [])],
                samples_directly=fn.get("samples_directly", False),
                is_test=fn.get("is_test", False),
                knob_hazards=[tuple(h) for h in fn.get("knob_hazards", [])],
                raises=list(fn.get("raises", [])),
                cfg=CFG.from_json(fn["cfg"]) if fn.get("cfg") else None,
            )
        return cls(
            module=data["module"],
            path=data["path"],
            imports=dict(data.get("imports", {})),
            functions=functions,
            exports=list(data.get("exports", [])),
            strings=list(data.get("strings", [])),
            constants=dict(data.get("constants", {})),
            toplevel_calls=[
                _call_site_from_json(c)
                for c in data.get("toplevel_calls", [])
            ],
            attr_types={
                cls: dict(attrs)
                for cls, attrs in data.get("attr_types", {}).items()
            },
            clock_ok={
                int(line): why
                for line, why in data.get("clock_ok", {}).items()
            },
        )


def _call_site_from_json(c: dict[str, Any]) -> CallSite:
    return CallSite(
        callee=c["callee"],
        lineno=c["lineno"],
        col=c["col"],
        args=tuple(ArgSummary(**a) for a in c.get("args", [])),
        keywords=tuple(
            (k, ArgSummary(**a)) for k, a in c.get("keywords", [])
        ),
        has_star_args=c.get("has_star_args", False),
        has_star_kwargs=c.get("has_star_kwargs", False),
        guard=c.get("guard", ""),
        in_handler=c.get("in_handler", False),
    )


# ----------------------------------------------------------------------
# building a ModuleInfo from an AST
# ----------------------------------------------------------------------


def wants_cfg(path: Path) -> bool:
    """Files whose functions get CFGs: the CLI front-end and the
    service tier — the envelope-contract scope of R11."""
    return path.name == "cli.py" or "service" in path.parts


def module_name_for(path: Path) -> str:
    """Dotted module name: walk up while directories are packages.

    ``src/repro/simulation/runner.py`` -> ``repro.simulation.runner``;
    a file whose directory has no ``__init__.py`` is its own top-level
    module (``conftest``).
    """
    path = path.resolve()
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        if parent.parent == parent:
            break
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


def _summarize_arg(node: ast.expr) -> ArgSummary:
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        if isinstance(node.value, bool):
            return ArgSummary(kind="other")
        return ArgSummary(kind="literal", value=float(node.value))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        inner = _summarize_arg(node.operand)
        if inner.kind == "literal" and inner.value is not None:
            sign = -1.0 if isinstance(node.op, ast.USub) else 1.0
            return ArgSummary(kind="literal", value=sign * inner.value)
        return ArgSummary(kind="other")
    dotted = dotted_name(node)
    if dotted is not None:
        return ArgSummary(kind="name", name=dotted.split(".")[-1], dotted=dotted)
    return ArgSummary(kind="other")


def _expr_is_constant_only(node: ast.expr) -> bool:
    """No Name/Attribute appears in data position — e.g. ``0``,
    ``default_rng()``, ``SeedSequence([1, 2])``.  The *callee* of a call
    is ignored (``np.random.default_rng`` is plumbing, not data)."""
    if isinstance(node, ast.Call):
        return all(_expr_is_constant_only(a) for a in node.args) and all(
            _expr_is_constant_only(kw.value) for kw in node.keywords
        )
    if isinstance(node, (ast.Name, ast.Attribute)):
        return False
    return all(
        _expr_is_constant_only(child)
        for child in ast.iter_child_nodes(node)
        if isinstance(child, ast.expr)
    )


def _summarize_call(
    node: ast.Call, guard: str = "", in_handler: bool = False
) -> CallSite | None:
    name = call_name(node)
    if name is None:
        return None
    return CallSite(
        callee=name,
        lineno=node.lineno,
        col=node.col_offset,
        guard=guard,
        in_handler=in_handler,
        args=tuple(
            _summarize_arg(a)
            for a in node.args
            if not isinstance(a, ast.Starred)
        ),
        keywords=tuple(
            (kw.arg, _summarize_arg(kw.value))
            for kw in node.keywords
            if kw.arg is not None
        ),
        has_star_args=any(isinstance(a, ast.Starred) for a in node.args),
        has_star_kwargs=any(kw.arg is None for kw in node.keywords),
    )


# Guard categories a try/except imposes on call sites in its body,
# ordered weakest to strongest.
_GUARD_ORDER = {"": 0, "narrow": 1, "oserror": 2, "broad": 3}

_BROAD_HANDLERS = frozenset({"Exception", "BaseException"})
_OSERROR_HANDLERS = frozenset(
    {
        "OSError",
        "IOError",
        "EnvironmentError",
        "ConnectionError",
        "ConnectionResetError",
        "BrokenPipeError",
        "TimeoutError",
    }
)


def _handler_category(handler: ast.ExceptHandler) -> str:
    """What an ``except <type>`` clause can absorb."""
    def one(node: ast.expr | None) -> str:
        if node is None:
            return "broad"  # bare except
        name = dotted_name(node)
        tail = name.split(".")[-1] if name else ""
        if tail in _BROAD_HANDLERS:
            return "broad"
        if tail in _OSERROR_HANDLERS:
            return "oserror"
        return "narrow"

    if handler.type is not None and isinstance(handler.type, ast.Tuple):
        cats = [one(e) for e in handler.type.elts]
        return max(cats, key=_GUARD_ORDER.__getitem__, default="narrow")
    return one(handler.type)


def _try_category(node: ast.Try) -> str:
    """The strongest absorption any handler of this ``try`` offers."""
    cats = [_handler_category(h) for h in node.handlers]
    return max(cats, key=_GUARD_ORDER.__getitem__, default="")


class _FunctionScanner(ast.NodeVisitor):
    """Collect call sites, sampling sinks and seed shadows of one body.

    A stack of guard categories tracks the ``try`` nesting around each
    call site; handler and ``else``/``finally`` bodies are visited with
    their own try's guard popped (an exception raised *there* sails past
    that try), and handler bodies additionally set ``in_handler``.
    """

    def __init__(self, info: FunctionInfo) -> None:
        self.info = info
        self._guards: list[str] = []
        self._handler_depth = 0

    def _guard(self) -> str:
        return max(self._guards, key=_GUARD_ORDER.__getitem__, default="")

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # nested defs get their own FunctionInfo

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Try(self, node: ast.Try) -> None:
        self._guards.append(_try_category(node))
        for stmt in node.body:
            self.visit(stmt)
        self._guards.pop()
        self._handler_depth += 1
        for handler in node.handlers:
            for stmt in handler.body:
                self.visit(stmt)
        self._handler_depth -= 1
        for stmt in [*node.orelse, *node.finalbody]:
            self.visit(stmt)

    def visit_Call(self, node: ast.Call) -> None:
        site = _summarize_call(
            node, guard=self._guard(), in_handler=self._handler_depth > 0
        )
        if site is not None:
            if site.callee.split(".")[-1] in _SAMPLING_TAILS:
                self.info.samples_directly = True
            self.info.calls.append(site)
        self.generic_visit(node)

    def visit_Raise(self, node: ast.Raise) -> None:
        if self._guard() == "" and self._handler_depth == 0:
            self.info.raises.append(node.lineno)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if (
                isinstance(target, ast.Name)
                and target.id in SEED_PARAM_NAMES
                and _expr_is_constant_only(node.value)
            ):
                self.info.seed_shadows.append(
                    (target.id, node.lineno, node.col_offset)
                )
        self.generic_visit(node)


# Fast-path knobs whose gating branches R14 audits: each selects a
# bit-identical accelerated implementation with a reference escape hatch.
KNOB_NAMES = frozenset({"use_disk_cache", "vectorized"})


def _knob_test(expr: ast.expr) -> tuple[str, bool] | None:
    """``(knob, positive)`` when ``expr`` tests a fast-path knob:
    a bare name, ``self.<knob>``, ``not <knob-test>``, or the first
    operand of an ``and`` chain (``if vectorized and n > 1:``)."""
    if isinstance(expr, ast.BoolOp) and isinstance(expr.op, ast.And) and expr.values:
        return _knob_test(expr.values[0])
    if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.Not):
        inner = _knob_test(expr.operand)
        return (inner[0], not inner[1]) if inner is not None else None
    if isinstance(expr, ast.Name) and expr.id in KNOB_NAMES:
        return expr.id, True
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
        and expr.attr in KNOB_NAMES
    ):
        return expr.attr, True
    return None


def _raising_branch(body: list[ast.stmt]) -> bool:
    """A branch that only raises (possibly after logging expressions)."""
    return bool(body) and isinstance(body[-1], ast.Raise) and all(
        isinstance(s, (ast.Raise, ast.Expr)) for s in body
    )


def _knob_hazards(body: list[ast.stmt]) -> list[tuple[str, int, int, str]]:
    """Fast-path gates with a missing or raising reference branch.

    ``no-slow-path``: ``if <knob>:`` in tail position whose body ends in
    Return/Raise with no ``else`` — turning the knob off falls off the
    function instead of reaching reference code.  ``raising-slow-path``:
    the knob-off branch (``else:`` of a positive test, or the body of
    ``if not <knob>:``) consists solely of a ``raise``.
    """
    out: list[tuple[str, int, int, str]] = []

    def scan(stmts: list[ast.stmt], tail: bool) -> None:
        for i, stmt in enumerate(stmts):
            last = i == len(stmts) - 1
            if isinstance(stmt, ast.If):
                kt = _knob_test(stmt.test)
                if kt is not None:
                    knob, positive = kt
                    where = (knob, stmt.lineno, stmt.col_offset)
                    if positive and _raising_branch(stmt.orelse):
                        out.append((*where, "raising-slow-path"))
                    elif (
                        positive
                        and not stmt.orelse
                        and tail
                        and last
                        and stmt.body
                        and isinstance(stmt.body[-1], (ast.Return, ast.Raise))
                    ):
                        out.append((*where, "no-slow-path"))
                    elif not positive and _raising_branch(stmt.body):
                        out.append((*where, "raising-slow-path"))
                scan(stmt.body, tail and last)
                scan(stmt.orelse, tail and last)
            elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                scan(stmt.body, False)
                scan(stmt.orelse, False)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                scan(stmt.body, tail and last)
            elif isinstance(stmt, ast.Try):
                scan(stmt.body, False)
                for handler in stmt.handlers:
                    scan(handler.body, False)
                scan(stmt.orelse, False)
                scan(stmt.finalbody, False)

    scan(body, True)
    return out


def _collect_attr_types(tree: ast.Module) -> dict[str, dict[str, str]]:
    """Per class qualname, one-level receiver types:
    ``self.<attr> = Ctor(...)`` assignments in its methods (the ctor
    dotted name must look like a class — capitalized last segment)."""
    out: dict[str, dict[str, str]] = {}

    def looks_like_class(name: str | None) -> bool:
        if not name:
            return False
        seg = name.split(".")[-1].lstrip("_")
        return bool(seg) and seg[0].isupper()

    def scan_body(body: list[ast.stmt], prefix: str) -> None:
        for stmt in body:
            if not isinstance(stmt, ast.ClassDef):
                continue
            qual = f"{prefix}{stmt.name}"
            attrs: dict[str, str] = {}
            for method in stmt.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for sub in ast.walk(method):
                    if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                        target, value = sub.targets[0], sub.value
                    elif isinstance(sub, ast.AnnAssign) and sub.value is not None:
                        target, value = sub.target, sub.value
                    else:
                        continue
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and isinstance(value, ast.Call)
                    ):
                        continue
                    ctor = dotted_name(value.func)
                    if looks_like_class(ctor):
                        attrs.setdefault(target.attr, ctor)
            if attrs:
                out[qual] = attrs
            scan_body(stmt.body, f"{qual}.")

    scan_body(tree.body, "")
    return out


def _function_info(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    qualprefix: str,
    with_cfg: bool = False,
) -> FunctionInfo:
    qualname = f"{qualprefix}{node.name}"
    args = node.args
    params: list[Param] = []
    positional = [*args.posonlyargs, *args.args]
    n_without_default = len(positional) - len(args.defaults)
    for i, a in enumerate(positional):
        params.append(Param(a.arg, "pos", has_default=i >= n_without_default))
    for a, d in zip(args.kwonlyargs, args.kw_defaults):
        params.append(Param(a.arg, "kw", has_default=d is not None))
    info = FunctionInfo(
        name=node.name,
        qualname=qualname,
        lineno=node.lineno,
        col=node.col_offset,
        params=params,
        is_test=node.name.startswith("test_"),
        cfg=build_cfg(node) if with_cfg else None,
    )
    scanner = _FunctionScanner(info)
    for stmt in node.body:
        scanner.visit(stmt)
    info.knob_hazards = _knob_hazards(node.body)
    return info


def _walk_definitions(
    body: list[ast.stmt], qualprefix: str, with_cfg: bool = False
) -> Iterator[FunctionInfo]:
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info = _function_info(stmt, qualprefix, with_cfg)
            yield info
            yield from _walk_definitions(
                stmt.body, qualprefix=f"{info.qualname}.", with_cfg=with_cfg
            )
        elif isinstance(stmt, ast.ClassDef):
            yield from _walk_definitions(
                stmt.body, qualprefix=f"{qualprefix}{stmt.name}.",
                with_cfg=with_cfg,
            )


def build_module_info(
    path: Path, tree: ast.Module, lines: list[str] | None = None
) -> ModuleInfo:
    """Summarize one parsed file for the whole-program pass.

    ``lines`` (when available) feeds the ``# reprolint: clock-ok=``
    pragma map — source is optional so summaries can also be rebuilt
    from cached JSON without the file text.
    """
    module = module_name_for(path)
    info = ModuleInfo(module=module, path=path.as_posix())
    if lines is not None:
        info.clock_ok = clock_ok_annotations(lines)
    info.attr_types = _collect_attr_types(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                info.imports[bound] = target
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative import: resolve against the package
                anchor = module.split(".")
                if not path.name == "__init__.py":
                    anchor = anchor[:-1]
                anchor = anchor[: len(anchor) - (node.level - 1)]
                base = ".".join(anchor + ([node.module] if node.module else []))
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                info.imports[bound] = f"{base}.{alias.name}" if base else alias.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            info.strings.append(node.value)
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
            if (
                "__all__" in names
                and isinstance(stmt.value, (ast.List, ast.Tuple))
            ):
                info.exports = [
                    e.value
                    for e in stmt.value.elts
                    if isinstance(e, ast.Constant) and isinstance(e.value, str)
                ]
            if (
                len(names) == 1
                and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, str)
            ):
                info.constants[names[0]] = stmt.value.value
    for fn in _walk_definitions(tree.body, qualprefix="", with_cfg=wants_cfg(path)):
        info.functions[fn.qualname] = fn
    info.toplevel_calls = _toplevel_calls(tree)
    return info


def _toplevel_calls(tree: ast.Module) -> list[CallSite]:
    """Calls that run at import time (outside every function body)."""
    out: list[CallSite] = []
    stack: list[ast.AST] = list(ast.iter_child_nodes(tree))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            site = _summarize_call(node)
            if site is not None:
                out.append(site)
        stack.extend(ast.iter_child_nodes(node))
    return sorted(out, key=lambda c: (c.lineno, c.col))


# ----------------------------------------------------------------------
# the whole-program model
# ----------------------------------------------------------------------


class ProjectModel:
    """Cross-module view: name resolution, call graph, sampling closure."""

    def __init__(self, modules: list[ModuleInfo]):
        self.modules: dict[str, ModuleInfo] = {m.module: m for m in modules}
        self._function_index: dict[str, tuple[ModuleInfo, FunctionInfo]] = {}
        for mod in self.modules.values():
            for fn in mod.functions.values():
                self._function_index[f"{mod.module}.{fn.qualname}"] = (mod, fn)
        self._sampling: set[str] | None = None
        self._call_graph: Any = None

    # -- lookups -------------------------------------------------------

    def functions(self) -> Iterator[tuple[ModuleInfo, FunctionInfo]]:
        """Every (module, function) pair in the model."""
        for mod in self.modules.values():
            for fn in mod.functions.values():
                yield mod, fn

    def function(self, fqid: str) -> tuple[ModuleInfo, FunctionInfo] | None:
        """Look up a function by fully-qualified id, if present."""
        return self._function_index.get(fqid)

    def find_module(self, suffix: str) -> ModuleInfo | None:
        """Module whose dotted name is ``suffix`` or ends with ``.suffix``."""
        for name, mod in sorted(self.modules.items()):
            if name == suffix or name.endswith(f".{suffix}"):
                return mod
        return None

    def modules_matching(self, segment: str) -> list[ModuleInfo]:
        """Modules whose dotted name contains ``segment`` as a component."""
        return [
            m
            for name, m in sorted(self.modules.items())
            if segment in name.split(".")
        ]

    # -- name resolution -----------------------------------------------

    def resolve(self, module: ModuleInfo, callee: str) -> str | None:
        """Fully-qualified id of a call target, or None if unresolvable.

        Follows import aliases of the calling module, then chases
        re-exports through package ``__init__`` bindings (bounded), so
        ``Exponential.from_mtbf`` called under
        ``from repro.distributions import Exponential`` lands on
        ``repro.distributions.exponential.Exponential.from_mtbf``.
        """
        head, _, rest = callee.partition(".")
        if head == "self" or head == "cls":
            # method call on the own class: resolve within this module
            # by scanning for a method qualname ending with ".<rest>"
            if rest and "." not in rest:
                for qual in module.functions:
                    if qual.endswith(f".{rest}"):
                        return f"{module.module}.{qual}"
            return None
        if callee in module.functions:
            return f"{module.module}.{callee}"
        if head in module.imports:
            target = module.imports[head] + (f".{rest}" if rest else "")
        elif head in self.modules and rest:
            target = callee
        else:
            return None
        return self._chase(target)

    def _chase(self, target: str, depth: int = 0) -> str | None:
        """Normalize ``target`` through re-export bindings to a function
        id present in the index, or return it unresolved-but-final."""
        if depth > 8:
            return target
        if target in self._function_index:
            return target
        # split into (module prefix, remainder) at the longest known module
        parts = target.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in self.modules:
                mod = self.modules[prefix]
                remainder = parts[cut:]
                bound = remainder[0]
                if bound in mod.imports:
                    rebased = ".".join([mod.imports[bound], *remainder[1:]])
                    return self._chase(rebased, depth + 1)
                return target
        return target

    def class_context(
        self, module: ModuleInfo, fn: FunctionInfo
    ) -> str | None:
        """Innermost enclosing *class* qualname of a method, or None.

        The longest qualname prefix that is not itself a function of
        the module — so a closure nested in a method still sees the
        method's class (it can capture ``self``)."""
        parts = fn.qualname.split(".")[:-1]
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix not in module.functions:
                return prefix
        return None

    def resolve_in(
        self, module: ModuleInfo, fn: FunctionInfo, callee: str
    ) -> str | None:
        """Resolution of a callee as seen from *inside* ``fn``.

        Extends :meth:`resolve` with the class-aware cases the call
        graph needs: ``self.m()``/``cls.m()`` against the enclosing
        class (unique-suffix fallback when the context is ambiguous),
        ``self.attr.m()`` through one-level receiver types recorded in
        :attr:`ModuleInfo.attr_types`, and bare names against sibling
        nested defs.
        """
        head, _, rest = callee.partition(".")
        if head in ("self", "cls"):
            cls_qual = self.class_context(module, fn)
            if rest and "." not in rest:
                if cls_qual is not None:
                    qual = f"{cls_qual}.{rest}"
                    if qual in module.functions:
                        return f"{module.module}.{qual}"
                matches = [
                    qual
                    for qual in module.functions
                    if qual.endswith(f".{rest}")
                ]
                if len(matches) == 1:
                    return f"{module.module}.{matches[0]}"
                return None
            if rest:
                attr, _, method = rest.partition(".")
                if not method or "." in method or cls_qual is None:
                    return None
                ctor = module.attr_types.get(cls_qual, {}).get(attr)
                if ctor is None:
                    return None
                owner = self._resolve_ctor(module, ctor)
                if owner is None:
                    return None
                target = f"{owner}.{method}"
                return target if target in self._function_index else None
            return None
        if "." not in callee:
            nested = f"{fn.qualname}.{callee}"
            if nested in module.functions:
                return f"{module.module}.{nested}"
        return self.resolve(module, callee)

    def _resolve_ctor(self, module: ModuleInfo, ctor: str) -> str | None:
        """Fully-qualified id of the class a constructor call names:
        same-module classes first (any method defined under the name),
        then import chasing — verified against the function index so a
        misresolved receiver never fabricates edges."""
        prefix = f"{ctor}."
        if any(qual.startswith(prefix) for qual in module.functions):
            return f"{module.module}.{ctor}"
        head, _, rest = ctor.partition(".")
        if head in module.imports:
            target = module.imports[head] + (f".{rest}" if rest else "")
            resolved = self._chase(target)
            if resolved is not None and any(
                key.startswith(f"{resolved}.") for key in self._function_index
            ):
                return resolved
        return None

    # -- the resolved call graph ---------------------------------------

    def call_graph(self):
        """The resolved project-wide call graph, built once and cached
        (see :mod:`repro.lint.callgraph`)."""
        if self._call_graph is None:
            from repro.lint.callgraph import build_call_graph

            self._call_graph = build_call_graph(self)
        return self._call_graph

    # -- sampling closure ----------------------------------------------

    def sampling_functions(self) -> set[str]:
        """Fully-qualified ids of functions that reach a randomness sink
        through resolved calls or function-reference arguments."""
        if self._sampling is not None:
            return self._sampling
        sampling: set[str] = {
            f"{mod.module}.{fn.qualname}"
            for mod, fn in self.functions()
            if fn.samples_directly
        }
        # reverse edges: callee/reference id -> set of caller ids
        callers: dict[str, set[str]] = {}
        for mod, fn in self.functions():
            caller_id = f"{mod.module}.{fn.qualname}"
            for call in fn.calls:
                resolved = self.resolve(mod, call.callee)
                if resolved is not None:
                    callers.setdefault(resolved, set()).add(caller_id)
                # function references passed as arguments create
                # potential edges too (executor.map(fn, ...), etc.)
                for arg in call.args:
                    if arg.kind == "name" and arg.dotted:
                        ref = self.resolve(mod, arg.dotted)
                        if ref is not None:
                            callers.setdefault(ref, set()).add(caller_id)
        frontier = list(sampling)
        while frontier:
            fn_id = frontier.pop()
            for caller in callers.get(fn_id, ()):
                if caller not in sampling:
                    sampling.add(caller)
                    frontier.append(caller)
        self._sampling = sampling
        return sampling
