"""Module-level call graph over the ``repro`` package (stdlib ``ast`` only).

The flow analyzer's three passes (blocking propagation, RNG provenance,
reduction-grid discipline) all consume the same whole-program view
built here:

* :class:`ModuleIndex` — parses every file under the analyzed roots,
  derives canonical dotted names (``repro.parallel.workers.pool``,
  ``repro.serve.sessions.Session._worker``), and records three symbol
  kinds per module: defined functions/methods, classes (with their base
  expressions for the light hierarchy pass), and import/assignment
  aliases.  Aliases make re-exports transparent: resolving
  ``repro.stream.load_checkpoint`` chases through ``stream/__init__``
  to ``repro.stream.checkpoint.load_checkpoint``.
* :class:`CallGraph` — per function, an ordered list of
  :class:`CallSite` records classifying every call in the body proper
  (nested ``def``/``class``/``lambda`` bodies belong to their own
  units): plain calls, awaited calls, worker-pool fan-out
  (``pool(...)``/``workers.map(fn, payload)``), and executor hand-off
  (``run_in_executor(None, fn, ...)`` / ``asyncio.to_thread``), plus the
  *blocking primitives* the site performs directly (the RPR009 set:
  sleep, ``open``, ``Path`` file I/O, numpy file I/O, pool construction
  and fan-out).

Soundness caveats (documented in DESIGN.md §2.5j): resolution is
name-based — calls through values the light local-type pass cannot bind
(dynamic dispatch tables, lambdas, ``getattr``) produce no edge, so the
passes under-approximate reachability rather than guessing.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path, PurePath
from typing import Iterator, Sequence

__all__ = [
    "CallGraph",
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "ModuleIndex",
    "PrimitiveOp",
    "iter_python_files",
    "module_name_for",
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

#: Fan-out methods on pool objects (mirrors repolint's RPR009 set).
POOL_MAP_METHODS = frozenset({"map", "starmap", "imap", "imap_unordered", "apply", "apply_async"})

#: numpy functions that hit the filesystem.
_NP_FILE_IO = frozenset(
    {"load", "save", "savez", "savez_compressed", "loadtxt", "savetxt", "genfromtxt", "fromfile"}
)

#: ``Path``-style blocking file-I/O methods (receiver-agnostic).
_PATH_IO_METHODS = frozenset({"read_text", "write_text", "read_bytes", "write_bytes"})


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

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def params(self) -> tuple[str, ...]:
        """Positional parameter names (posonly + regular), ``self``/``cls`` included."""
        args = self.node.args
        return tuple(a.arg for a in args.posonlyargs + args.args)

    @property
    def all_params(self) -> tuple[str, ...]:
        args = self.node.args
        return self.params + tuple(a.arg for a in args.kwonlyargs)


@dataclasses.dataclass
class ClassInfo:
    """One class with base expressions resolved to canonical keys."""

    key: str
    module: str
    node: ast.ClassDef
    bases: tuple[str, ...] = ()
    methods: dict[str, str] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass(frozen=True)
class PrimitiveOp:
    """A directly-blocking operation performed at one call site."""

    desc: str  #: human-readable, e.g. "``time.sleep()``"
    lineno: int
    col: int


@dataclasses.dataclass(frozen=True)
class CallSite:
    """One classified call expression inside a function body."""

    node: ast.Call
    canonical: str | None  #: resolved dotted target ("numpy.load", indexed key, ...)
    callee: str | None  #: FunctionInfo key when the target is in the index
    role: str  #: "plain" | "fanout" | "executor" | "pool_ctor"
    is_await: bool
    #: Function keys invoked indirectly (map targets, executor callbacks,
    #: pool initializers) — edges of kind ``role``.
    indirect: tuple[str, ...] = ()
    #: Expressions shipped to workers/executors (map payloads, initargs,
    #: executor callback arguments) — the RNG pass's raw material.
    shipped: tuple[ast.expr, ...] = ()
    #: Blocking primitive performed directly by this site, if any.
    primitive: PrimitiveOp | None = None

    @property
    def lineno(self) -> int:
        return self.node.lineno

    @property
    def col(self) -> int:
        return self.node.col_offset + 1


def iter_python_files(paths: Sequence[str | Path]) -> Iterator[Path]:
    """Every ``.py`` file under ``paths`` (directories walked, sorted)."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(
                candidate
                for candidate in path.rglob("*.py")
                if "__pycache__" not in candidate.parts
            )
        elif path.suffix == ".py":
            yield path


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


def repro_subpackage(module: str) -> str | None:
    """``"serve"`` for ``repro.serve.app``, ``""`` for ``repro.cli``, else None."""
    parts = module.split(".")
    if "repro" not in parts:
        return None
    below = parts[parts.index("repro") + 1 :]
    return below[0] if len(below) > 1 else ""


class ModuleIndex:
    """Symbol tables for every analyzed file: functions, classes, aliases."""

    def __init__(self) -> None:
        self.files: list[tuple[str, str, ast.Module]] = []  #: (path, module, tree)
        self.sources: dict[str, str] = {}  #: path -> source text
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.aliases: dict[str, str] = {}  #: canonical name -> target name
        self.constants: dict[str, ast.expr] = {}  #: module-level assignments
        self.errors: list[tuple[str, int, str]] = []  #: (path, line, message)

    # -- construction --------------------------------------------------

    @classmethod
    def build(cls, paths: Sequence[str | Path]) -> "ModuleIndex":
        index = cls()
        for file_path in iter_python_files(paths):
            index.add_file(str(file_path), file_path.read_text(encoding="utf-8"))
        index.finalize()
        return index

    @classmethod
    def from_sources(cls, sources: dict[str, str]) -> "ModuleIndex":
        """Build from in-memory ``{path: source}`` (unit tests, fixtures)."""
        index = cls()
        for path, source in sources.items():
            index.add_file(path, source)
        index.finalize()
        return index

    def add_file(self, path: str, source: str) -> None:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as error:
            self.errors.append((path, error.lineno or 1, f"syntax error: {error.msg}"))
            return
        module = module_name_for(path)
        self.files.append((path, module, tree))
        self.sources[path] = source
        self._collect_module(path, module, tree)

    def finalize(self) -> None:
        """Resolve class bases and register method tables (post-parse)."""
        for info in self.classes.values():
            resolved: list[str] = []
            for base in info.node.bases:
                dotted = _dotted_name(base)
                if dotted is None:
                    continue
                target = self.resolve(info.module, dotted)
                if target is not None and target in self.classes:
                    resolved.append(target)
            info.bases = tuple(resolved)

    def _collect_module(self, path: str, module: str, tree: ast.Module) -> None:
        is_package = PurePath(path).name == "__init__.py"
        self._collect_imports(module, tree.body, is_package)
        self._collect_defs(path, module, tree.body, prefix="", class_key=None)

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
                info = FunctionInfo(
                    key=key,
                    module=module,
                    path=path,
                    qualname=qualname,
                    node=node,
                    is_async=isinstance(node, ast.AsyncFunctionDef),
                    class_key=class_key,
                )
                self.functions[key] = info
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
            elif isinstance(node, ast.Assign) and prefix == "":
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.constants[f"{module}.{target.id}"] = node.value
            elif isinstance(node, ast.AnnAssign) and prefix == "" and node.value is not None:
                if isinstance(node.target, ast.Name):
                    self.constants[f"{module}.{node.target.id}"] = node.value
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

    def is_known(self, name: str) -> bool:
        return (
            name in self.aliases
            or name in self.functions
            or name in self.classes
            or name in self.constants
        )

    def resolve(self, module: str, dotted: tuple[str, ...]) -> str | None:
        """Canonical dotted target of ``dotted`` as written in ``module``.

        Returns e.g. ``"numpy.load"``, ``"time.sleep"``, or an index key;
        ``None`` when the head name is not bound at module level (a local,
        a builtin, or truly unknown).
        """
        head = f"{module}.{dotted[0]}"
        if not self.is_known(head):
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

    def constructor_of(self, class_key: str) -> str | None:
        return self.resolve_method(class_key, "__init__")


def _dotted_name(node: ast.expr) -> tuple[str, ...] | None:
    """Flatten ``a.b.c`` to ``("a", "b", "c")``; None for non-name chains."""
    names: list[str] = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        names.append(node.id)
        return tuple(reversed(names))
    return None


def body_nodes(root: ast.FunctionDef | ast.AsyncFunctionDef | ast.Module) -> Iterator[ast.AST]:
    """Walk a code unit's own body, excluding nested def/class/lambda bodies."""
    stack: list[ast.AST] = (
        list(root.body) if isinstance(root, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module))
        else [root]
    )
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

    def __init__(self, index: ModuleIndex, module: str, unit: ast.AST) -> None:
        self.index = index
        self.module = module
        self.instance_of: dict[str, str] = {}  #: local name -> class key
        self.pools: set[str] = set()  #: local names bound to pool objects
        self.partials: dict[str, str] = {}  #: local name -> wrapped function key
        self.assigned: set[str] = set()  #: every locally-bound name (shadowing)
        self._scan(unit)

    def _scan(self, unit: ast.AST) -> None:
        if isinstance(unit, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = unit.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                self.assigned.add(arg.arg)
            if args.vararg is not None:
                self.assigned.add(args.vararg.arg)
            if args.kwarg is not None:
                self.assigned.add(args.kwarg.arg)
        for node in body_nodes(unit):  # type: ignore[arg-type]
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
        dotted = _dotted_name(value.func)
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
        dotted = _dotted_name(partial_call.args[0])
        if dotted is None:
            return None
        return self.index.resolve(self.module, dotted)


class CallGraph:
    """Classified call sites for every function (and module body) in an index."""

    def __init__(self, index: ModuleIndex) -> None:
        self.index = index
        self.sites: dict[str, list[CallSite]] = {}
        for info in index.functions.values():
            self.sites[info.key] = self._analyze_unit(
                info.module, info.node, class_key=info.class_key, func=info
            )

    # -- per-unit analysis ---------------------------------------------

    def _analyze_unit(
        self,
        module: str,
        unit: ast.FunctionDef | ast.AsyncFunctionDef,
        class_key: str | None,
        func: FunctionInfo,
    ) -> list[CallSite]:
        local = _LocalTypes(self.index, module, unit)
        awaited: set[int] = set()
        for node in body_nodes(unit):
            if isinstance(node, ast.Await) and isinstance(node.value, ast.Call):
                awaited.add(id(node.value))
        sites: list[CallSite] = []
        for node in body_nodes(unit):
            if isinstance(node, ast.Call):
                sites.append(
                    self._classify_call(module, node, class_key, local, id(node) in awaited)
                )
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
        dotted = _dotted_name(func)
        canonical = self._canonical_target(module, dotted, class_key, local)
        callee = canonical if canonical in self.index.functions else None
        if callee is None and canonical in self.index.classes:
            callee = self.index.constructor_of(canonical)

        role = "plain"
        indirect: list[str] = []
        shipped: list[ast.expr] = []
        primitive = self._primitive_for(module, node, dotted, canonical, local)

        if self._is_pool_fanout(module, func, local):
            role = "fanout"
            if node.args:
                target = self._callback_target(module, node.args[0], class_key, local)
                if target is not None:
                    indirect.append(target)
                shipped.extend(node.args[1:])
                shipped.extend(kw.value for kw in node.keywords if kw.arg is not None)
        elif canonical == POOL_CONSTRUCTOR or canonical in _MP_POOL_CONSTRUCTORS:
            role = "pool_ctor"
            for kw in node.keywords:
                if kw.arg == "initializer":
                    target = self._callback_target(module, kw.value, class_key, local)
                    if target is not None:
                        indirect.append(target)
                elif kw.arg == "initargs":
                    shipped.append(kw.value)
        elif isinstance(func, ast.Attribute) and func.attr == "run_in_executor":
            role = "executor"
            if len(node.args) >= 2:
                target = self._callback_target(module, node.args[1], class_key, local)
                if target is not None:
                    indirect.append(target)
                shipped.extend(node.args[2:])
                if isinstance(node.args[1], ast.Call):
                    # Inline partial(fn, a, b): the bound args ship too.
                    shipped.extend(node.args[1].args[1:])
        elif canonical == "asyncio.to_thread":
            role = "executor"
            if node.args:
                target = self._callback_target(module, node.args[0], class_key, local)
                if target is not None:
                    indirect.append(target)
                shipped.extend(node.args[1:])

        return CallSite(
            node=node,
            canonical=canonical,
            callee=callee,
            role=role,
            is_await=is_await,
            indirect=tuple(indirect),
            shipped=tuple(shipped),
            primitive=primitive,
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
            dotted = _dotted_name(expr.func)
            if dotted is not None and dotted[-1] == "partial" and expr.args:
                return self._callback_target(module, expr.args[0], class_key, local)
            return None
        dotted = _dotted_name(expr)
        if dotted is None:
            return None
        return self._canonical_target(module, dotted, class_key, local)

    def _is_pool_fanout(self, module: str, func: ast.expr, local: _LocalTypes) -> bool:
        if not (isinstance(func, ast.Attribute) and func.attr in POOL_MAP_METHODS):
            return False
        receiver = func.value
        if isinstance(receiver, ast.Name) and receiver.id in local.pools:
            return True
        if isinstance(receiver, ast.Call):
            inner = _dotted_name(receiver.func)
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
    ) -> PrimitiveOp | None:
        desc: str | None = None
        if canonical == "time.sleep":
            desc = "`time.sleep()`"
        elif canonical is not None and canonical.startswith("numpy.") and (
            canonical.rsplit(".", 1)[-1] in _NP_FILE_IO
        ):
            desc = f"file I/O `np.{canonical.rsplit('.', 1)[-1]}()`"
        elif canonical == POOL_CONSTRUCTOR or canonical in _MP_POOL_CONSTRUCTORS:
            desc = "worker-pool construction"
        elif (
            dotted is not None
            and len(dotted) == 1
            and dotted[0] == "open"
            and "open" not in local.assigned
            and canonical is None
        ):
            desc = "`open()`"
        elif isinstance(node.func, ast.Attribute) and node.func.attr in _PATH_IO_METHODS:
            desc = f"file I/O `.{node.func.attr}()`"
        elif self._is_pool_fanout(module, node.func, local):
            desc = f"worker-pool `.{node.func.attr}()` fan-out"  # type: ignore[union-attr]
        if desc is None:
            return None
        return PrimitiveOp(desc=desc, lineno=node.lineno, col=node.col_offset + 1)
