"""RPR010 — transitive blocking propagation into ``repro/serve/`` handlers.

A function is *blocking* when it directly performs one of the RPR009
primitives (sleep, ``open``, ``Path``/numpy file I/O, pool construction
or fan-out) or when it can reach one through a propagating call edge:

* a plain (or fan-out) call into a **sync** function propagates — the
  callee runs on the caller's thread;
* ``await`` into a blocking **async** function propagates — the
  coroutine blocks the event loop from inside;
* executor hand-off (``run_in_executor`` / ``asyncio.to_thread``) never
  propagates — that is the sanctioned escape hatch, the callback runs
  on a worker thread.

RPR010 flags every ``async def`` under ``repro/serve/`` with a
propagating edge into a blocking function.  Direct primitives inside the
handler itself stay RPR009's territory (the syntactic fast path), so
RPR010 findings always describe a chain of depth ≥ 1 and each message
carries the witness path for the fix.  repolint runs this pass after its
per-file rules (:func:`repro.analysis.lint.lint_sources`).
"""

from __future__ import annotations

import dataclasses

from .callgraph import CallGraph, CallSite, FunctionInfo, repro_subpackage

__all__ = ["BlockingWitness", "check_blocking", "compute_blocking"]


@dataclasses.dataclass(frozen=True)
class BlockingWitness:
    """Why a function is blocking: a primitive plus the path reaching it."""

    desc: str  #: primitive description, e.g. "``time.sleep()``"
    chain: tuple[str, ...]  #: function keys from the function itself to the holder


def _propagates(site: CallSite, callee: FunctionInfo) -> bool:
    if site.role == "executor":
        return False
    if callee.is_async:
        return site.is_await
    return True


def compute_blocking(graph: CallGraph) -> dict[str, BlockingWitness]:
    """Fixpoint: the blocking witness for every blocking function key."""
    blocking: dict[str, BlockingWitness] = {}
    functions = graph.index.functions
    # Seed with direct primitives.
    for key, sites in graph.sites.items():
        for site in sites:
            if site.primitive is not None:
                blocking[key] = BlockingWitness(desc=site.primitive, chain=(key,))
                break
    # Reverse edges: callee key -> [(caller key, site)].
    callers: dict[str, list[tuple[str, CallSite]]] = {}
    for key, sites in graph.sites.items():
        for site in sites:
            for target in _edge_targets(site):
                callers.setdefault(target, []).append((key, site))
    worklist = list(blocking)
    while worklist:
        callee_key = worklist.pop()
        witness = blocking[callee_key]
        callee = functions.get(callee_key)
        if callee is None:
            continue
        for caller_key, site in callers.get(callee_key, ()):
            if caller_key in blocking:
                continue
            if not _propagates(site, callee):
                continue
            blocking[caller_key] = BlockingWitness(
                desc=witness.desc, chain=(caller_key, *witness.chain)
            )
            worklist.append(caller_key)
    return blocking


def _edge_targets(site: CallSite) -> tuple[str, ...]:
    targets: list[str] = []
    if site.callee is not None:
        targets.append(site.callee)
    if site.role == "fanout":
        targets.extend(site.indirect)
    return tuple(targets)


def _short(key: str) -> str:
    return key.removeprefix("repro.")


def check_blocking(graph: CallGraph) -> list[tuple[str, int, int, str]]:
    """RPR010 ``(path, line, col, message)``: serve async handlers reaching blocking code."""
    blocking = compute_blocking(graph)
    findings: list[tuple[str, int, int, str]] = []
    for info in graph.index.functions.values():
        if not info.is_async or repro_subpackage(info.path) != "serve":
            continue
        for site in graph.sites[info.key]:
            if site.primitive is not None:
                continue  # direct primitive: RPR009's syntactic fast path
            for target in _edge_targets(site):
                callee = graph.index.functions.get(target)
                witness = blocking.get(target)
                if callee is None or witness is None or not _propagates(site, callee):
                    continue
                chain = " -> ".join(_short(k) for k in witness.chain)
                findings.append(
                    (
                        info.path,
                        site.lineno,
                        site.col,
                        f"async `{info.qualname}` reaches blocking {witness.desc} "
                        f"via {chain}; hand the chain to run_in_executor instead",
                    )
                )
                break  # one finding per call site
    return findings
