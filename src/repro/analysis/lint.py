"""repolint — AST lint rules enforcing this repository's correctness invariants.

The reproduction's guarantees rest on conventions that plain Python never
checks: stochastic code must thread an explicit ``numpy.random.Generator``
(seed-determinism), hot paths must stay vectorized (the paper's §4
algorithms are only competitive through the blocked kernels), kernel
allocations must pin their dtype (float32/float64 splits are part of the
memory model), and :class:`~repro.core.partition.Clustering` labels are
immutable.  ``repolint`` turns those conventions into machine-checked
rules over the stdlib :mod:`ast` — no third-party dependencies.

Rules
-----

=======  ==============================================================
RPR001   No global-state RNG: module-level ``np.random.<fn>()`` and
         stdlib ``random.<fn>()`` calls are banned everywhere —
         randomness must flow through a threaded
         ``numpy.random.Generator`` (``np.random.default_rng`` and the
         Generator/BitGenerator constructors are allowed).
RPR002   No O(n²) Python-level pair loops in ``core/``, ``algorithms/``
         and ``stream/``: two nested ``for _ in range(...)`` loops that
         index a pairwise matrix with both loop variables must be
         replaced by the blocked vectorized kernels.
RPR003   Array allocations (``np.zeros/empty/full/ones``) in kernel
         packages (``core``, ``stream``, ``algorithms``, ``cluster``,
         ``consensus``, ``baselines``, ``parallel``) must pass an
         explicit ``dtype``.
RPR004   No mutable default arguments, and no in-place mutation of
         ``Clustering.labels`` (assigning into ``<expr>.labels[...]``
         or calling a mutating ndarray method on it) — take a
         ``.copy()`` first.
RPR005   Public library functions taking randomness must follow the
         signature convention ``rng: np.random.Generator | int | None``
         (parameters named ``seed`` / ``random_state`` are rejected).
RPR006   No direct ``multiprocessing`` pool construction outside
         ``repro/parallel/`` — importing or calling ``Pool`` /
         ``ThreadPool`` (including ``get_context(...).Pool``) elsewhere
         bypasses the fork start method that
         :func:`repro.parallel.workers.pool` relies on to hand workers
         their inputs without pickling.
RPR007   No raw ``time.perf_counter()`` (or ``perf_counter_ns``) in
         library code outside ``repro/obs/`` — ad-hoc timing drifts out
         of the observability surface; wrap the code in a
         :func:`repro.obs.span` and read ``Span.seconds`` instead.
RPR008   No direct ``.X`` / ``._X`` pair-matrix access in library code
         outside ``repro/core/`` — it materializes (or assumes) the
         dense ``(n, n)`` matrix and breaks the lazy backend; go through
         the :class:`~repro.core.backend.PairDistanceBackend` API
         (``instance.backend.row_block/gather/matvec/...``) instead.
RPR009   No blocking calls directly inside ``async def`` bodies under
         ``repro/serve/``: ``time.sleep``, ``open`` and
         ``Path.read_text``-style file I/O, numpy array file I/O
         (``np.load``/``np.save``/...), and worker-pool construction or
         ``pool().map``-style fan-out all stall the event loop — await
         ``loop.run_in_executor(...)`` (or ``asyncio.sleep``) instead.
RPR012   No named shared memory in library code: importing
         ``multiprocessing.shared_memory`` (or ``SharedMemory`` /
         ``SharedMemoryManager`` from anywhere) creates segments that
         outlive a crashed process in ``/dev/shm`` — forked pool workers
         inherit their inputs through ``initargs`` and return their
         results over the pool's result channel instead.
RPR014   No hand-rolled method-dispatch tables in library code outside
         ``repro/registry/``: a module/class-level dict literal mapping
         ≥2 method-name strings to callables under a ``*METHOD*`` /
         ``*DISPATCH*`` / ``*SOLVER*`` name, or an if/elif chain
         comparing a ``method``-like variable against ≥3 string
         literals, re-creates exactly the divergent tables the registry
         refactor removed — register a :class:`repro.registry.MethodSpec`
         and resolve through :func:`repro.registry.get_method` instead.
=======  ==============================================================

Suppressions
------------

Append ``# repolint: disable=RPR001`` (comma-separate several codes) to
the flagged line, or put ``# repolint: disable-file=RPR002`` on a line of
its own to silence a rule for the whole file.  Directives are extracted
from real comment tokens (:mod:`repro.analysis.suppress`) — one inside a
string literal does nothing — a directive on any line of a multi-line
statement covers the whole statement, and naming an unknown rule code is
an ``RPR000`` error, not a silent no-op.

Usage
-----

::

    python -m repro.analysis.lint src tests            # text report
    python -m repro.analysis.lint --json src tests     # machine-readable
    python -m repro.analysis.lint --list-rules

Exit status is 0 when clean, 1 when findings remain, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import json
import sys
from pathlib import Path, PurePath
from typing import Iterable, Iterator, Mapping, Sequence

from .suppress import Suppressions, extract_suppressions

__all__ = ["RULES", "Finding", "lint_source", "lint_sources", "lint_paths", "main"]

#: Rule id -> one-line description (shown by ``--list-rules``).
RULES: dict[str, str] = {
    "RPR001": "global-state RNG call; thread a numpy.random.Generator instead",
    "RPR002": "O(n^2) Python-level pair loop over a pairwise matrix; use the blocked kernels",
    "RPR003": "array allocation without an explicit dtype in a kernel module",
    "RPR004": "mutable default argument / in-place mutation of Clustering.labels",
    "RPR005": "randomness parameter must follow `rng: np.random.Generator | int | None`",
    "RPR006": (
        "direct multiprocessing pool use outside repro.parallel; use repro.parallel.workers.pool"
    ),
    "RPR007": "raw time.perf_counter() outside repro.obs; wrap the code in a repro.obs span",
    "RPR008": "direct .X/._X pair-matrix access outside repro.core; use the backend API",
    "RPR009": "blocking call inside an async def in repro.serve; use run_in_executor/asyncio.sleep",
    "RPR012": "named shared memory in library code; use pool initargs and return results",
    "RPR014": "hand-rolled method dispatch outside repro.registry; register a MethodSpec instead",
}

#: Subpackages of ``repro`` whose files RPR002 applies to.
PAIR_LOOP_PACKAGES = frozenset({"core", "algorithms", "stream"})

#: Subpackages of ``repro`` counted as kernel modules for RPR003.
KERNEL_PACKAGES = frozenset(
    {"core", "stream", "algorithms", "cluster", "consensus", "baselines", "parallel"}
)

#: The one subpackage allowed to construct multiprocessing pools (RPR006).
POOL_PACKAGE = "parallel"

#: The one subpackage allowed to call ``time.perf_counter`` (RPR007).
TIMING_PACKAGE = "obs"

#: The one subpackage allowed to touch ``.X`` / ``._X`` directly (RPR008).
MATRIX_PACKAGE = "core"

#: The event-loop subpackage whose ``async def`` bodies RPR009 applies to.
ASYNC_PACKAGE = "serve"

#: The one subpackage allowed to hold method-dispatch tables (RPR014).
REGISTRY_PACKAGE = "registry"

#: Fan-out methods on pool objects (RPR009).
POOL_MAP_METHODS = frozenset({"map", "starmap", "imap", "imap_unordered", "apply", "apply_async"})

#: numpy functions that hit the filesystem (RPR009).
NP_FILE_IO = frozenset(
    {"load", "save", "savez", "savez_compressed", "loadtxt", "savetxt", "genfromtxt", "fromfile"}
)

#: ``Path``-style blocking file-I/O methods, receiver-agnostic (RPR009).
PATH_IO_METHODS = frozenset({"read_text", "write_text", "read_bytes", "write_bytes"})

#: Substrings (lowercased) that mark a dict name as a dispatch table (RPR014).
_DISPATCH_NAME_HINTS = ("method", "dispatch", "solver")

#: Variable-name substrings RPR014 treats as a method selector in if/elif chains.
_METHOD_VAR_HINTS = ("method", "algorithm", "inner")

#: Branches in an if/elif chain comparing a method name against string
#: literals before RPR014 calls it a dispatch table.
_DISPATCH_CHAIN_THRESHOLD = 3

#: Attribute names RPR008 treats as raw pair-matrix access.
_MATRIX_ATTRS = frozenset({"X", "_X"})

#: ``time`` attributes that RPR007 treats as ad-hoc profiling clocks.
_PERF_CLOCKS = frozenset({"perf_counter", "perf_counter_ns"})

#: ``multiprocessing`` attributes that construct worker pools.
_POOL_CONSTRUCTORS = frozenset({"Pool", "ThreadPool"})

#: The named shared-memory module and the classes that create segments (RPR012).
_SHARED_MEMORY_MODULE = "multiprocessing.shared_memory"
_SHARED_MEMORY_NAMES = frozenset({"shared_memory", "SharedMemory", "SharedMemoryManager"})

#: numpy.random attributes that do NOT touch global RNG state.
ALLOWED_NP_RANDOM = frozenset(
    {
        "default_rng",
        "Generator",
        "BitGenerator",
        "SeedSequence",
        "PCG64",
        "PCG64DXSM",
        "MT19937",
        "Philox",
        "SFC64",
    }
)

#: stdlib ``random`` attributes that are instance constructors, not global state.
ALLOWED_STDLIB_RANDOM = frozenset({"Random", "SystemRandom"})

#: ndarray methods that mutate in place (RPR004 on ``<expr>.labels``).
_NDARRAY_MUTATORS = frozenset(
    {"sort", "fill", "put", "partition", "resize", "setfield", "setflags", "itemset"}
)

_ALLOC_DTYPE_POSITION = {"zeros": 1, "empty": 1, "ones": 1, "full": 2}


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


@dataclasses.dataclass(frozen=True)
class Finding:
    """One lint finding: a rule violated at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def as_dict(self) -> dict[str, object]:
        return dataclasses.asdict(self)


class _Checker(ast.NodeVisitor):
    """Single-pass visitor implementing all repolint rules for one file."""

    def __init__(self, path: str, subpackage: str | None) -> None:
        self._path = path
        self._in_library = subpackage is not None
        self._check_pair_loops = subpackage in PAIR_LOOP_PACKAGES
        self._check_alloc_dtype = subpackage in KERNEL_PACKAGES
        self._check_pools = subpackage != POOL_PACKAGE
        self._check_perf_clock = self._in_library and subpackage != TIMING_PACKAGE
        self._check_matrix_access = self._in_library and subpackage != MATRIX_PACKAGE
        self.findings: list[Finding] = []
        # Names the file binds to numpy, numpy.random, and stdlib random.
        self._numpy_aliases: set[str] = set()
        self._numpy_random_aliases: set[str] = set()
        self._stdlib_random_aliases: set[str] = set()
        # Names bound to multiprocessing, its pool submodules, and
        # get_context (RPR006).
        self._mp_aliases: set[str] = set()
        self._mp_pool_aliases: set[str] = set()
        self._mp_get_context_aliases: set[str] = set()
        # Names bound to the stdlib ``time`` module (RPR007, RPR009).
        self._time_aliases: set[str] = set()
        # Names bound to ``time.sleep`` via `from time import sleep` (RPR009).
        self._sleep_aliases: set[str] = set()
        # Whether each enclosing function def is async (RPR009 scope).
        self._check_async_blocking = subpackage == ASYNC_PACKAGE
        self._function_stack: list[bool] = []
        # For loops already reported (avoid duplicate RPR002 per nest).
        self._reported_pair_loops: set[int] = set()
        # RPR014 scope: library code outside the registry package itself.
        self._check_method_tables = self._in_library and subpackage != REGISTRY_PACKAGE
        # elif continuations already consumed by a reported chain (RPR014).
        self._elif_children: set[int] = set()

    # -- helpers -------------------------------------------------------

    def _report(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(
            Finding(
                path=self._path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                rule=rule,
                message=message,
            )
        )

    # -- imports (alias tracking + RPR001 on `from` imports) -----------

    def _report_shared_memory(self, node: ast.Import | ast.ImportFrom, imported: str) -> None:
        if self._in_library:
            self._report(
                node,
                "RPR012",
                f"`{imported}` creates named shared-memory segments; fork-started "
                "workers inherit their inputs through `pool(..., initargs=)` and "
                "return their results over the pool's result channel",
            )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == _SHARED_MEMORY_MODULE:
                self._report_shared_memory(node, alias.name)
            if alias.name == "numpy" or alias.name.startswith("numpy."):
                if alias.name == "numpy.random" and alias.asname:
                    self._numpy_random_aliases.add(alias.asname)
                else:
                    self._numpy_aliases.add(bound)
            elif alias.name == "random":
                self._stdlib_random_aliases.add(bound)
            elif alias.name == "time":
                self._time_aliases.add(bound)
            elif alias.name == "multiprocessing":
                self._mp_aliases.add(bound)
            elif alias.name.startswith("multiprocessing."):
                if alias.asname and alias.name in ("multiprocessing.pool", "multiprocessing.dummy"):
                    self._mp_pool_aliases.add(alias.asname)
                else:
                    self._mp_aliases.add(bound)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            if node.module == _SHARED_MEMORY_MODULE or alias.name in _SHARED_MEMORY_NAMES:
                self._report_shared_memory(node, f"from {node.module} import {alias.name}")
        if node.module == "numpy":
            for alias in node.names:
                if alias.name == "random":
                    self._numpy_random_aliases.add(alias.asname or "random")
        elif node.module == "numpy.random":
            for alias in node.names:
                if alias.name not in ALLOWED_NP_RANDOM:
                    self._report(
                        node,
                        "RPR001",
                        f"`from numpy.random import {alias.name}` pulls a global-state "
                        "RNG function; thread a Generator instead",
                    )
        elif node.module == "random":
            for alias in node.names:
                if alias.name not in ALLOWED_STDLIB_RANDOM:
                    self._report(
                        node,
                        "RPR001",
                        f"`from random import {alias.name}` uses the global stdlib RNG; "
                        "thread a numpy Generator instead",
                    )
        elif node.module == "multiprocessing" and self._check_pools:
            for alias in node.names:
                if alias.name in _POOL_CONSTRUCTORS:
                    self._report(
                        node,
                        "RPR006",
                        f"`from multiprocessing import {alias.name}` outside repro.parallel; "
                        "use `repro.parallel.workers.pool` instead",
                    )
                elif alias.name == "pool":
                    self._mp_pool_aliases.add(alias.asname or "pool")
                elif alias.name == "get_context":
                    self._mp_get_context_aliases.add(alias.asname or "get_context")
        elif node.module == "time":
            for alias in node.names:
                if alias.name == "sleep":
                    self._sleep_aliases.add(alias.asname or "sleep")
                elif alias.name in _PERF_CLOCKS and self._check_perf_clock:
                    self._report(
                        node,
                        "RPR007",
                        f"`from time import {alias.name}` outside repro.obs; wrap the "
                        "timed code in a `repro.obs.span` and read `Span.seconds`",
                    )
        elif node.module in ("multiprocessing.pool", "multiprocessing.dummy") and self._check_pools:
            for alias in node.names:
                if alias.name in _POOL_CONSTRUCTORS:
                    self._report(
                        node,
                        "RPR006",
                        f"`from {node.module} import {alias.name}` outside repro.parallel; "
                        "use `repro.parallel.workers.pool` instead",
                    )
        self.generic_visit(node)

    # -- calls (RPR001 global RNG, RPR003 dtype, RPR004 mutators) ------

    def visit_Call(self, node: ast.Call) -> None:
        dotted = dotted_name(node.func)
        if dotted is not None:
            self._check_rng_call(node, dotted)
            self._check_allocation(node, dotted)
            self._check_pool_call(node, dotted)
            self._check_perf_clock_call(node, dotted)
        self._check_context_pool_call(node)
        self._check_labels_mutator_call(node)
        self._check_async_blocking_call(node, dotted)
        self.generic_visit(node)

    # -- RPR009: blocking calls inside async def bodies ----------------

    def _check_async_blocking_call(self, node: ast.Call, dotted: tuple[str, ...] | None) -> None:
        if not (
            self._check_async_blocking
            and self._function_stack
            and self._function_stack[-1]
        ):
            return
        message = self._blocking_call_message(node, dotted)
        if message is not None:
            self._report(
                node,
                "RPR009",
                f"{message} blocks the event loop inside an `async def`; "
                "await `loop.run_in_executor(...)` (or `asyncio.sleep`) instead",
            )

    def _blocking_call_message(
        self, node: ast.Call, dotted: tuple[str, ...] | None
    ) -> str | None:
        func = node.func
        if dotted is not None:
            if len(dotted) == 2 and dotted[0] in self._time_aliases and dotted[1] == "sleep":
                return f"`{'.'.join(dotted)}()`"
            if len(dotted) == 1 and dotted[0] in self._sleep_aliases:
                return f"`{dotted[0]}()` (time.sleep)"
            if len(dotted) == 1 and dotted[0] == "open":
                return "`open()`"
            if len(dotted) == 2 and dotted[0] in self._numpy_aliases and dotted[1] in NP_FILE_IO:
                return f"file I/O `{'.'.join(dotted)}()`"
            if dotted[-1] == "pool" and len(dotted) <= 2:
                return f"worker-pool construction `{'.'.join(dotted)}()`"
        if isinstance(func, ast.Attribute):
            if func.attr in PATH_IO_METHODS:
                return f"file I/O `.{func.attr}()`"
            if func.attr in POOL_MAP_METHODS and isinstance(func.value, ast.Call):
                inner = dotted_name(func.value.func)
                if inner is not None and inner[-1] == "pool" and len(inner) <= 2:
                    return f"`pool(...).{func.attr}()` fan-out"
        return None

    # -- RPR008: raw pair-matrix access --------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if self._check_matrix_access and node.attr in _MATRIX_ATTRS:
            self._report(
                node,
                "RPR008",
                f"direct `.{node.attr}` pair-matrix access outside repro.core; "
                "go through the `instance.backend` API "
                "(`row_block`/`gather`/`matvec`/`materialize`)",
            )
        self.generic_visit(node)

    # -- RPR006: multiprocessing pool construction ---------------------

    def _check_pool_call(self, node: ast.Call, dotted: tuple[str, ...]) -> None:
        if not self._check_pools or dotted[-1] not in _POOL_CONSTRUCTORS:
            return
        flagged = (
            (len(dotted) == 2 and dotted[0] in self._mp_aliases)
            or (len(dotted) == 2 and dotted[0] in self._mp_pool_aliases)
            or (
                len(dotted) == 3
                and dotted[0] in self._mp_aliases
                and dotted[1] in ("pool", "dummy")
            )
        )
        if flagged:
            self._report(
                node,
                "RPR006",
                f"`{'.'.join(dotted)}()` outside repro.parallel; "
                "use `repro.parallel.workers.pool` instead",
            )

    # -- RPR007: ad-hoc profiling clocks -------------------------------

    def _check_perf_clock_call(self, node: ast.Call, dotted: tuple[str, ...]) -> None:
        if not self._check_perf_clock:
            return
        if len(dotted) == 2 and dotted[0] in self._time_aliases and dotted[1] in _PERF_CLOCKS:
            self._report(
                node,
                "RPR007",
                f"`{'.'.join(dotted)}()` outside repro.obs; wrap the timed code in a "
                "`repro.obs.span` and read `Span.seconds`",
            )

    def _check_context_pool_call(self, node: ast.Call) -> None:
        """The ``get_context(...).Pool(...)`` form of RPR006."""
        func = node.func
        if not (
            self._check_pools
            and isinstance(func, ast.Attribute)
            and func.attr in _POOL_CONSTRUCTORS
            and isinstance(func.value, ast.Call)
        ):
            return
        inner = func.value.func
        inner_dotted = dotted_name(inner)
        if inner_dotted is None or inner_dotted[-1] != "get_context":
            return
        if (len(inner_dotted) == 1 and inner_dotted[0] in self._mp_get_context_aliases) or (
            len(inner_dotted) == 2 and inner_dotted[0] in self._mp_aliases
        ):
            self._report(
                node,
                "RPR006",
                f"`get_context(...).{func.attr}()` outside repro.parallel; "
                "use `repro.parallel.workers.pool` instead",
            )

    def _check_rng_call(self, node: ast.Call, dotted: tuple[str, ...]) -> None:
        if (
            len(dotted) >= 3
            and dotted[0] in self._numpy_aliases
            and dotted[1] == "random"
            and dotted[2] not in ALLOWED_NP_RANDOM
        ):
            self._report(
                node,
                "RPR001",
                f"`{'.'.join(dotted)}()` mutates numpy's global RNG state; "
                "thread a `np.random.Generator`",
            )
        elif (
            len(dotted) >= 2
            and dotted[0] in self._numpy_random_aliases
            and dotted[1] not in ALLOWED_NP_RANDOM
        ):
            self._report(
                node,
                "RPR001",
                f"`{'.'.join(dotted)}()` mutates numpy's global RNG state; "
                "thread a `np.random.Generator`",
            )
        elif (
            len(dotted) == 2
            and dotted[0] in self._stdlib_random_aliases
            and dotted[1] not in ALLOWED_STDLIB_RANDOM
        ):
            self._report(
                node,
                "RPR001",
                f"`{'.'.join(dotted)}()` uses the stdlib global RNG; "
                "thread a `np.random.Generator`",
            )

    def _check_allocation(self, node: ast.Call, dotted: tuple[str, ...]) -> None:
        if not self._check_alloc_dtype:
            return
        if len(dotted) != 2 or dotted[0] not in self._numpy_aliases:
            return
        position = _ALLOC_DTYPE_POSITION.get(dotted[1])
        if position is None:
            return
        has_dtype = any(kw.arg == "dtype" for kw in node.keywords) or len(node.args) > position
        if not has_dtype:
            self._report(
                node,
                "RPR003",
                f"`{'.'.join(dotted)}` in a kernel module must pass an explicit dtype",
            )

    # -- RPR004: Clustering.labels mutation ----------------------------

    @staticmethod
    def _is_labels_attribute(node: ast.expr) -> bool:
        return isinstance(node, ast.Attribute) and node.attr == "labels"

    def _check_labels_mutator_call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _NDARRAY_MUTATORS
            and self._is_labels_attribute(func.value)
        ):
            self._report(
                node,
                "RPR004",
                f"in-place `.{func.attr}()` on `.labels`; Clustering labels are "
                "immutable — work on a `.copy()`",
            )

    def _check_labels_store(self, target: ast.expr) -> None:
        if isinstance(target, ast.Subscript) and self._is_labels_attribute(target.value):
            self._report(
                target,
                "RPR004",
                "assignment into `.labels[...]`; Clustering labels are immutable — "
                "work on a `.copy()`",
            )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_labels_store(element)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_labels_store(target)
        self._check_dispatch_dict(node.targets, node.value, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_dispatch_dict([node.target], node.value, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_labels_store(node.target)
        self.generic_visit(node)

    # -- RPR014: hand-rolled method dispatch ---------------------------

    def _check_dispatch_dict(
        self, targets: Sequence[ast.expr], value: ast.expr, node: ast.AST
    ) -> None:
        """Flag module/class-level ``*METHOD*`` dicts of name -> callable."""
        if not self._check_method_tables or self._function_stack:
            return
        if not isinstance(value, ast.Dict):
            return
        named = [
            target.id
            for target in targets
            if isinstance(target, ast.Name)
            and any(hint in target.id.lower() for hint in _DISPATCH_NAME_HINTS)
        ]
        if not named:
            return
        string_keys = sum(
            isinstance(key, ast.Constant) and isinstance(key.value, str)
            for key in value.keys
        )
        callable_values = sum(
            isinstance(item, (ast.Name, ast.Attribute, ast.Lambda))
            for item in value.values
        )
        if string_keys >= 2 and callable_values >= 2:
            self._report(
                node,
                "RPR014",
                f"`{named[0]}` is a hand-rolled method-dispatch table; register the "
                "methods with `repro.registry.register_method` and resolve them "
                "through `repro.registry.get_method` instead",
            )

    @staticmethod
    def _method_selector(test: ast.expr) -> str | None:
        """The dumped selector expr when ``test`` is ``<method-ish> == "str"``.

        Also matches ``<method-ish> in ("a", "b")``.  The selector counts
        as method-ish when its terminal identifier contains ``method`` /
        ``algorithm`` / ``inner``.
        """
        if not (isinstance(test, ast.Compare) and len(test.ops) == 1):
            return None
        if not isinstance(test.ops[0], (ast.Eq, ast.In)):
            return None
        comparator = test.comparators[0]
        if isinstance(test.ops[0], ast.Eq):
            if not (isinstance(comparator, ast.Constant) and isinstance(comparator.value, str)):
                return None
        else:
            if not (
                isinstance(comparator, (ast.Tuple, ast.List, ast.Set))
                and comparator.elts
                and all(
                    isinstance(item, ast.Constant) and isinstance(item.value, str)
                    for item in comparator.elts
                )
            ):
                return None
        left = test.left
        terminal: str | None = None
        if isinstance(left, ast.Name):
            terminal = left.id
        elif isinstance(left, ast.Attribute):
            terminal = left.attr
        elif isinstance(left, ast.Subscript):
            index = left.slice
            if isinstance(index, ast.Constant) and isinstance(index.value, str):
                terminal = index.value
        if terminal is None or not any(
            hint in terminal.lower() for hint in _METHOD_VAR_HINTS
        ):
            return None
        return ast.dump(left)

    def visit_If(self, node: ast.If) -> None:
        if self._check_method_tables and id(node) not in self._elif_children:
            selectors: list[str | None] = []
            current: ast.If | None = node
            while current is not None:
                selectors.append(self._method_selector(current.test))
                if len(current.orelse) == 1 and isinstance(current.orelse[0], ast.If):
                    current = current.orelse[0]
                    self._elif_children.add(id(current))
                else:
                    current = None
            for selector in set(filter(None, selectors)):
                if selectors.count(selector) >= _DISPATCH_CHAIN_THRESHOLD:
                    self._report(
                        node,
                        "RPR014",
                        "if/elif chain dispatching on a method name; register the "
                        "methods with `repro.registry.register_method` and resolve "
                        "them through `repro.registry.get_method` instead",
                    )
                    break
        self.generic_visit(node)

    # -- RPR002: nested pair loops -------------------------------------

    @staticmethod
    def _simple_range_var(node: ast.For) -> str | None:
        """The loop variable when ``node`` is ``for <name> in range(...)``.

        Three-argument ranges (an explicit step) are treated as blocked
        iteration and skipped — that is exactly the sanctioned pattern of
        the row-blocked kernels.
        """
        if not isinstance(node.target, ast.Name):
            return None
        call = node.iter
        if not (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id == "range"
            and len(call.args) <= 2
        ):
            return None
        return node.target.id

    @staticmethod
    def _indexes_pair(node: ast.AST, first: str, second: str) -> bool:
        """Whether any subscript under ``node`` indexes with both loop vars."""

        def uses(expr: ast.expr, name: str) -> bool:
            return any(
                isinstance(sub, ast.Name) and sub.id == name for sub in ast.walk(expr)
            )

        for sub in ast.walk(node):
            if not isinstance(sub, ast.Subscript):
                continue
            index = sub.slice
            if isinstance(index, ast.Tuple) and len(index.elts) >= 2:
                if uses(index, first) and uses(index, second):
                    return True
            # Chained form: matrix[i][j]
            if isinstance(sub.value, ast.Subscript):
                if (uses(sub.slice, first) and uses(sub.value.slice, second)) or (
                    uses(sub.slice, second) and uses(sub.value.slice, first)
                ):
                    return True
        return False

    def visit_For(self, node: ast.For) -> None:
        if self._check_pair_loops and id(node) not in self._reported_pair_loops:
            outer_var = self._simple_range_var(node)
            if outer_var is not None:
                for inner in ast.walk(node):
                    if inner is node or not isinstance(inner, ast.For):
                        continue
                    inner_var = self._simple_range_var(inner)
                    if inner_var is None or inner_var == outer_var:
                        continue
                    if self._indexes_pair(inner, outer_var, inner_var):
                        self._reported_pair_loops.add(id(inner))
                        self._report(
                            node,
                            "RPR002",
                            f"nested Python loops over `range` index a pairwise matrix "
                            f"with `{outer_var}`/`{inner_var}`; use the blocked "
                            "vectorized kernels",
                        )
                        break
        self.generic_visit(node)

    # -- RPR004 (defaults) + RPR005 (rng signature) --------------------

    def _check_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        arguments = node.args
        for default in list(arguments.defaults) + [d for d in arguments.kw_defaults if d]:
            if self._is_mutable_default(default):
                self._report(
                    default,
                    "RPR004",
                    f"mutable default argument in `{node.name}`; default to None "
                    "and allocate inside the function",
                )
        if self._in_library and not node.name.startswith("_"):
            for arg in arguments.posonlyargs + arguments.args + arguments.kwonlyargs:
                if arg.arg in ("seed", "random_state"):
                    self._report(
                        arg,
                        "RPR005",
                        f"parameter `{arg.arg}` of public `{node.name}` breaks the "
                        "randomness convention; name it `rng: np.random.Generator "
                        "| int | None`",
                    )
                elif arg.arg == "rng":
                    annotation = (
                        ast.unparse(arg.annotation) if arg.annotation is not None else ""
                    )
                    if not (
                        "Generator" in annotation
                        and "int" in annotation
                        and "None" in annotation
                    ):
                        self._report(
                            arg,
                            "RPR005",
                            f"`rng` parameter of public `{node.name}` must be "
                            "annotated `np.random.Generator | int | None`",
                        )

    @staticmethod
    def _is_mutable_default(node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("list", "dict", "set", "bytearray")
        return False

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_function(node)
        self._function_stack.append(False)
        try:
            self.generic_visit(node)
        finally:
            self._function_stack.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_function(node)
        self._function_stack.append(True)
        try:
            self.generic_visit(node)
        finally:
            self._function_stack.pop()


def lint_sources(sources: Mapping[str, str]) -> list[Finding]:
    """Lint ``{path: source}`` file by file; returns the unsuppressed findings."""
    findings: list[Finding] = []
    suppressions: dict[str, Suppressions] = {}
    for path, source in sources.items():
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as error:
            findings.append(
                Finding(
                    path=path,
                    line=error.lineno or 1,
                    col=(error.offset or 0) + 1,
                    rule="RPR000",
                    message=f"syntax error: {error.msg}",
                )
            )
            continue
        checker = _Checker(path, repro_subpackage(path))
        checker.visit(tree)
        findings.extend(checker.findings)
        suppressions[path] = extract_suppressions(source, tree)
    kept = [
        finding
        for finding in findings
        if finding.path not in suppressions
        or finding.rule not in suppressions[finding.path].active(finding.line)
    ]
    kept.extend(
        Finding(
            path=path,
            line=line,
            col=1,
            rule="RPR000",
            message=f"unknown rule code {code!r} in repolint suppression",
        )
        for path, parsed in suppressions.items()
        for line, code in parsed.errors
    )
    return sorted(kept, key=lambda f: (f.path, f.line, f.col, f.rule))


def lint_source(source: str, path: str = "<string>") -> list[Finding]:
    """Lint one Python source string; returns the unsuppressed findings."""
    return lint_sources({path: source})


def _iter_python_files(paths: Sequence[str | Path]) -> Iterator[Path]:
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


def lint_paths(paths: Sequence[str | Path]) -> tuple[list[Finding], int]:
    """Lint files and directories; returns ``(findings, files_checked)``."""
    sources = {
        str(file_path): file_path.read_text(encoding="utf-8")
        for file_path in _iter_python_files(paths)
    }
    return lint_sources(sources), len(sources)


def main(argv: Iterable[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="Repository-specific invariant linter (rules RPR001-RPR009, RPR012, RPR014).",
    )
    parser.add_argument("paths", nargs="*", help="files or directories to lint")
    parser.add_argument("--json", action="store_true", help="emit a JSON report on stdout")
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )
    args = parser.parse_args(list(argv) if argv is not None else None)

    if args.list_rules:
        for rule, description in sorted(RULES.items()):
            print(f"{rule}  {description}")
        return 0
    if not args.paths:
        parser.print_usage(sys.stderr)
        print("error: no paths given", file=sys.stderr)
        return 2

    findings, checked = lint_paths(args.paths)
    if args.json:
        print(
            json.dumps(
                {
                    "files_checked": checked,
                    "findings": [finding.as_dict() for finding in findings],
                },
                indent=2,
            )
        )
    else:
        for finding in findings:
            print(finding.format())
        summary = f"{len(findings)} finding(s) in {checked} file(s)"
        print(summary if findings else f"clean: {summary}")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
