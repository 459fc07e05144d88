"""Module-level call graph over the linted files (stdlib ``ast`` only).

repolint's whole-program rule, RPR010 (:mod:`.blocking`), reads the view
built here:

* :class:`ModuleIndex` — over every parsed file, derives canonical dotted
  names (``repro.parallel.workers.pool``,
  ``repro.serve.sessions.Session._worker``), and records three symbol
  kinds per module: defined functions/methods, classes (with their base
  expressions for method lookup), and import aliases.  Aliases make
  re-exports transparent: resolving ``repro.stream.load_checkpoint``
  chases through ``stream/__init__`` to
  ``repro.stream.checkpoint.load_checkpoint``.
* :class:`CallGraph` — per function, an ordered list of
  :class:`CallSite` records classifying every call in the body proper
  (nested ``def``/``class``/``lambda`` bodies belong to their own
  units): plain calls, awaited calls, worker-pool fan-out
  (``pool(...)``/``workers.map(fn, items)``), and executor hand-off
  (``run_in_executor(None, fn, ...)`` / ``asyncio.to_thread``), plus the
  *blocking primitive* the site performs directly (the RPR009 set:
  sleep, ``open``, ``Path`` file I/O, numpy file I/O, pool construction
  and fan-out).

Soundness caveats (DESIGN.md §2.5e): resolution is name-based — calls
through values the light local-type pass cannot bind (dynamic dispatch
tables, lambdas, ``getattr``) produce no edge, so RPR010
under-approximates reachability rather than guessing.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import PurePath
from typing import Iterator, Mapping, Sequence

__all__ = [
    "CallGraph",
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "ModuleIndex",
    "dotted_name",
    "module_name_for",
    "repro_subpackage",
]

#: The sanctioned pool constructor; calling it (or raw multiprocessing
#: pools) is both a blocking primitive and the fan-out anchor.
POOL_CONSTRUCTOR = "repro.parallel.workers.pool"

_MP_POOL_CONSTRUCTORS = frozenset(
    {
        "multiprocessing.Pool",
        "multiprocessing.ThreadPool",
        "multiprocessing.pool.Pool",
        "multiprocessing.pool.ThreadPool",
        "multiprocessing.dummy.Pool",
    }
)

#: Fan-out methods on pool objects (RPR009 and RPR010).
POOL_MAP_METHODS = frozenset({"map", "starmap", "imap", "imap_unordered", "apply", "apply_async"})

#: numpy functions that hit the filesystem (RPR009 and RPR010).
NP_FILE_IO = frozenset(
    {"load", "save", "savez", "savez_compressed", "loadtxt", "savetxt", "genfromtxt", "fromfile"}
)

#: ``Path``-style blocking file-I/O methods, receiver-agnostic (RPR009 and RPR010).
PATH_IO_METHODS = frozenset({"read_text", "write_text", "read_bytes", "write_bytes"})


@dataclasses.dataclass(frozen=True)
class FunctionInfo:
    """One function or method discovered by the index."""

    key: str  #: canonical dotted name, e.g. ``repro.serve.sessions.Session.submit``
    module: str
    path: str
    qualname: str  #: name within the module, e.g. ``Session.submit``
    node: ast.FunctionDef | ast.AsyncFunctionDef
    is_async: bool
    class_key: str | None  #: canonical class key for methods, else None


@dataclasses.dataclass
class ClassInfo:
    """One class with base expressions resolved to canonical keys."""

    key: str
    module: str
    node: ast.ClassDef
    bases: tuple[str, ...] = ()
    methods: dict[str, str] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass(frozen=True)
class CallSite:
    """One classified call expression inside a function body."""

    node: ast.Call
    callee: str | None  #: FunctionInfo key when the target is in the index
    role: str  #: "plain" | "fanout" | "executor"
    is_await: bool
    #: Function keys invoked indirectly (map targets, executor callbacks).
    indirect: tuple[str, ...] = ()
    #: Blocking primitive performed directly by this site, e.g. "`time.sleep()`".
    primitive: str | None = None

    @property
    def lineno(self) -> int:
        return self.node.lineno

    @property
    def col(self) -> int:
        return self.node.col_offset + 1


def dotted_name(node: ast.expr) -> tuple[str, ...] | None:
    """Flatten an ``a.b.c`` attribute chain to ``("a", "b", "c")``."""
    names: list[str] = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        names.append(node.id)
        return tuple(reversed(names))
    return None


def repro_subpackage(path: str) -> str | None:
    """The subpackage of ``repro`` a file lives in.

    Returns e.g. ``"core"`` for ``src/repro/core/instance.py``, ``""`` for
    top-level modules like ``src/repro/cli.py``, and ``None`` for files
    outside the library (tests, benchmarks, fixture snippets).
    """
    parts = PurePath(path).parts
    if "repro" not in parts:
        return None
    anchor = len(parts) - 1 - parts[::-1].index("repro")
    below = parts[anchor + 1 :]
    if len(below) <= 1:
        return ""
    return below[0]


def module_name_for(path: str) -> str:
    """Canonical dotted module name for a file path.

    Files inside a ``repro`` package tree get their real dotted name
    (``src/repro/core/instance.py`` → ``repro.core.instance``); files
    outside it (tests, benchmarks, synthetic fixtures) get a path-derived
    name that only needs to be unique within one analysis run.
    """
    parts = PurePath(path).parts
    if "repro" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
        below = parts[anchor:]
    else:
        below = parts if len(parts) <= 3 else parts[-3:]
    stem = [p[:-3] if p.endswith(".py") else p for p in below]
    if stem and stem[-1] == "__init__":
        stem = stem[:-1]
    return ".".join(s for s in stem if s) or "unknown"


class ModuleIndex:
    """Symbol tables for every analyzed file: functions, classes, aliases."""

    def __init__(self, trees: Mapping[str, ast.Module]) -> None:
        """Index parsed modules, given as ``{path: tree}``."""
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.aliases: dict[str, str] = {}  #: canonical name -> target name
        for path, tree in trees.items():
            module = module_name_for(path)
            is_package = PurePath(path).name == "__init__.py"
            self._collect_imports(module, tree.body, is_package)
            self._collect_defs(path, module, tree.body, prefix="", class_key=None)
        for info in self.classes.values():
            resolved: list[str] = []
            for base in info.node.bases:
                dotted = dotted_name(base)
                if dotted is None:
                    continue
                target = self.resolve(info.module, dotted)
                if target is not None and target in self.classes:
                    resolved.append(target)
            info.bases = tuple(resolved)

    def _collect_imports(
        self, module: str, body: Sequence[ast.stmt], is_package: bool
    ) -> None:
        for node in body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.aliases[f"{module}.{bound}"] = target
            elif isinstance(node, ast.ImportFrom):
                base = self._import_base(module, is_package, node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    self.aliases[f"{module}.{bound}"] = f"{base}.{alias.name}"
            elif isinstance(node, (ast.If, ast.Try)):
                # `if TYPE_CHECKING:` blocks and guarded imports.
                self._collect_imports(module, node.body, is_package)

    @staticmethod
    def _import_base(module: str, is_package: bool, node: ast.ImportFrom) -> str | None:
        if node.level == 0:
            return node.module
        # Relative import: climb `level` packages.  An __init__ module is
        # already named after its package by module_name_for, so level 1
        # means the module's own name, not its parent.
        parts = module.split(".")
        up = len(parts) - node.level + (1 if is_package else 0)
        if up < 0:
            return node.module
        base_parts = parts[:up] if up > 0 else []
        if node.module:
            base_parts.append(node.module)
        return ".".join(base_parts) if base_parts else None

    def _collect_defs(
        self,
        path: str,
        module: str,
        body: Sequence[ast.stmt],
        prefix: str,
        class_key: str | None,
    ) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{node.name}"
                key = f"{module}.{qualname}"
                self.functions[key] = FunctionInfo(
                    key=key,
                    module=module,
                    path=path,
                    qualname=qualname,
                    node=node,
                    is_async=isinstance(node, ast.AsyncFunctionDef),
                    class_key=class_key,
                )
                if class_key is not None:
                    self.classes[class_key].methods.setdefault(node.name, key)
                self._collect_defs(
                    path, module, node.body, prefix=f"{qualname}.", class_key=None
                )
            elif isinstance(node, ast.ClassDef):
                qualname = f"{prefix}{node.name}"
                key = f"{module}.{qualname}"
                self.classes[key] = ClassInfo(key=key, module=module, node=node)
                self._collect_defs(path, module, node.body, prefix=f"{qualname}.", class_key=key)
            elif isinstance(node, (ast.If, ast.Try)):
                self._collect_defs(path, module, node.body, prefix, class_key)

    # -- resolution ----------------------------------------------------

    def chase(self, name: str) -> str:
        """Follow the alias chain from ``name`` to its terminal target."""
        seen = {name}
        while name in self.aliases:
            name = self.aliases[name]
            if name in seen:
                break
            seen.add(name)
        return name

    def resolve(self, module: str, dotted: tuple[str, ...]) -> str | None:
        """Canonical dotted target of ``dotted`` as written in ``module``.

        Returns e.g. ``"numpy.load"``, ``"time.sleep"``, or an index key;
        ``None`` when the head name is not bound at module level (a local,
        a builtin, or truly unknown).
        """
        head = f"{module}.{dotted[0]}"
        if not (head in self.aliases or head in self.functions or head in self.classes):
            return None
        current = self.chase(head)
        for part in dotted[1:]:
            current = self.chase(f"{current}.{part}")
        return current

    def resolve_method(self, class_key: str, method: str) -> str | None:
        """Look ``method`` up on ``class_key`` and its (resolved) bases."""
        queue = [class_key]
        seen: set[str] = set()
        while queue:
            key = queue.pop(0)
            if key in seen or key not in self.classes:
                continue
            seen.add(key)
            info = self.classes[key]
            if method in info.methods:
                return info.methods[method]
            queue.extend(info.bases)
        return None


def body_nodes(root: ast.FunctionDef | ast.AsyncFunctionDef) -> Iterator[ast.AST]:
    """Walk a function's own body, excluding nested def/class/lambda bodies."""
    stack: list[ast.AST] = list(root.body)
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
                continue
            stack.append(child)


class _LocalTypes:
    """Light flow-insensitive local binding pass for one function body.

    Binds local names to what a single assignment from a recognizable
    constructor makes them: a class instance, a worker pool, or a
    ``functools.partial`` wrapper.  Used to resolve method receivers and
    higher-order callbacks.
    """

    def __init__(
        self, index: ModuleIndex, module: str, unit: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        self.index = index
        self.module = module
        self.instance_of: dict[str, str] = {}  #: local name -> class key
        self.pools: set[str] = set()  #: local names bound to pool objects
        self.partials: dict[str, str] = {}  #: local name -> wrapped function key
        self.assigned: set[str] = set()  #: every locally-bound name (shadowing)
        self._scan(unit)

    def _scan(self, unit: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        args = unit.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            self.assigned.add(arg.arg)
        if args.vararg is not None:
            self.assigned.add(args.vararg.arg)
        if args.kwarg is not None:
            self.assigned.add(args.kwarg.arg)
        for node in body_nodes(unit):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                self.assigned.add(node.id)
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if isinstance(item.optional_vars, ast.Name) and isinstance(
                        item.context_expr, ast.Call
                    ):
                        self._bind(item.optional_vars.id, item.context_expr)
                continue
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name) or not isinstance(node.value, ast.Call):
                continue
            self._bind(target.id, node.value)

    def _bind(self, name: str, value: ast.Call) -> None:
        dotted = dotted_name(value.func)
        if dotted is None:
            return
        resolved = self.index.resolve(self.module, dotted)
        if resolved is None:
            if dotted[-1] == "partial":
                wrapped = self._callback_key(value)
                if wrapped is not None:
                    self.partials[name] = wrapped
            return
        if resolved in self.index.classes:
            self.instance_of[name] = resolved
        elif resolved == POOL_CONSTRUCTOR or resolved in _MP_POOL_CONSTRUCTORS:
            self.pools.add(name)
        elif resolved == "functools.partial":
            wrapped = self._callback_key(value)
            if wrapped is not None:
                self.partials[name] = wrapped

    def _callback_key(self, partial_call: ast.Call) -> str | None:
        if not partial_call.args:
            return None
        dotted = dotted_name(partial_call.args[0])
        if dotted is None:
            return None
        return self.index.resolve(self.module, dotted)


class CallGraph:
    """Classified call sites for every function in an index."""

    def __init__(self, index: ModuleIndex) -> None:
        self.index = index
        self.sites: dict[str, list[CallSite]] = {
            info.key: self._analyze_unit(info) for info in index.functions.values()
        }

    # -- per-unit analysis ---------------------------------------------

    def _analyze_unit(self, func: FunctionInfo) -> list[CallSite]:
        local = _LocalTypes(self.index, func.module, func.node)
        awaited: set[int] = set()
        for node in body_nodes(func.node):
            if isinstance(node, ast.Await) and isinstance(node.value, ast.Call):
                awaited.add(id(node.value))
        sites = [
            self._classify_call(func.module, node, func.class_key, local, id(node) in awaited)
            for node in body_nodes(func.node)
            if isinstance(node, ast.Call)
        ]
        sites.sort(key=lambda s: (s.lineno, s.col))
        return sites

    def _classify_call(
        self,
        module: str,
        node: ast.Call,
        class_key: str | None,
        local: _LocalTypes,
        is_await: bool,
    ) -> CallSite:
        func = node.func
        dotted = dotted_name(func)
        canonical = self._canonical_target(module, dotted, class_key, local)
        callee = canonical if canonical in self.index.functions else None
        if callee is None and canonical in self.index.classes:
            callee = self.index.resolve_method(canonical, "__init__")

        role = "plain"
        callback: ast.expr | None = None
        if self._is_pool_fanout(module, func, local):
            role = "fanout"
            callback = node.args[0] if node.args else None
        elif isinstance(func, ast.Attribute) and func.attr == "run_in_executor":
            role = "executor"
            callback = node.args[1] if len(node.args) >= 2 else None
        elif canonical == "asyncio.to_thread":
            role = "executor"
            callback = node.args[0] if node.args else None
        target = (
            None if callback is None else self._callback_target(module, callback, class_key, local)
        )
        return CallSite(
            node=node,
            callee=callee,
            role=role,
            is_await=is_await,
            indirect=() if target is None else (target,),
            primitive=self._primitive_for(module, node, dotted, canonical, local),
        )

    def _canonical_target(
        self,
        module: str,
        dotted: tuple[str, ...] | None,
        class_key: str | None,
        local: _LocalTypes,
    ) -> str | None:
        if dotted is None:
            return None
        head = dotted[0]
        if head in ("self", "cls") and class_key is not None and len(dotted) == 2:
            return self.index.resolve_method(class_key, dotted[1])
        if head in local.instance_of and len(dotted) == 2:
            return self.index.resolve_method(local.instance_of[head], dotted[1])
        if head in local.partials and len(dotted) == 1:
            return local.partials[head]
        if head in local.assigned:
            return None  # a local shadows any module-level binding
        return self.index.resolve(module, dotted)

    def _callback_target(
        self,
        module: str,
        expr: ast.expr,
        class_key: str | None,
        local: _LocalTypes,
    ) -> str | None:
        """Resolve a function reference passed as a value (not called)."""
        if isinstance(expr, ast.Call):
            dotted = dotted_name(expr.func)
            if dotted is not None and dotted[-1] == "partial" and expr.args:
                return self._callback_target(module, expr.args[0], class_key, local)
            return None
        return self._canonical_target(module, dotted_name(expr), class_key, local)

    def _is_pool_fanout(self, module: str, func: ast.expr, local: _LocalTypes) -> bool:
        if not (isinstance(func, ast.Attribute) and func.attr in POOL_MAP_METHODS):
            return False
        receiver = func.value
        if isinstance(receiver, ast.Name) and receiver.id in local.pools:
            return True
        if isinstance(receiver, ast.Call):
            inner = dotted_name(receiver.func)
            if inner is not None:
                resolved = self.index.resolve(module, inner)
                if resolved == POOL_CONSTRUCTOR or resolved in _MP_POOL_CONSTRUCTORS:
                    return True
                if resolved is None and inner[-1] == "pool" and len(inner) <= 2:
                    return True  # repolint's syntactic fallback
        return False

    def _primitive_for(
        self,
        module: str,
        node: ast.Call,
        dotted: tuple[str, ...] | None,
        canonical: str | None,
        local: _LocalTypes,
    ) -> str | None:
        if canonical == "time.sleep":
            return "`time.sleep()`"
        if canonical is not None and canonical.startswith("numpy.") and (
            canonical.rsplit(".", 1)[-1] in NP_FILE_IO
        ):
            return f"file I/O `np.{canonical.rsplit('.', 1)[-1]}()`"
        if canonical == POOL_CONSTRUCTOR or canonical in _MP_POOL_CONSTRUCTORS:
            return "worker-pool construction"
        if dotted == ("open",) and "open" not in local.assigned and canonical is None:
            return "`open()`"
        if isinstance(node.func, ast.Attribute) and node.func.attr in PATH_IO_METHODS:
            return f"file I/O `.{node.func.attr}()`"
        if self._is_pool_fanout(module, node.func, local):
            return f"worker-pool `.{node.func.attr}()` fan-out"  # type: ignore[union-attr]
        return None
