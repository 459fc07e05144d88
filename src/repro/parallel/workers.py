"""The fork policy: worker counts, the one fan-out, pooled assignment.

:func:`resolve_jobs` centralizes the convention used by every ``n_jobs``
parameter in the library: an explicit integer wins, then the
``REPRO_JOBS`` environment variable, then the serial default of 1; zero
or a negative value means "all cores".  On a platform without the
``fork`` start method every count resolves to 1 and the serial path
runs (with bit-identical results).

:func:`fan_out` is the one place that picks serial against pooled: it
runs ``task(state, i)`` for every index, in-process when one worker
resolves and in a pool forked by :func:`pool` otherwise.  The task and
its read-only state are inherited at fork without pickling or copying,
so only the indices and the results cross the pool's pipes; each
worker's spans ride back with its result and are grafted into the
caller's trace.  The portfolio, the shard engine and
:func:`parallel_assign` all fan out through it.

:func:`parallel_assign` is the SAMPLING assignment phase (§4.1): rows
are grouped once by their label codes, and the cheapest-cluster scoring
of the distinct rows against fixed
:class:`~repro.core.objective.ClusterCountTables` is independent per
block, so blocks are scored concurrently and reassembled in order.
"""

from __future__ import annotations

import multiprocessing
import numbers
import os
from collections.abc import Callable
from multiprocessing.pool import Pool
from typing import Any, TypeVar

import numpy as np

from ..core.objective import ClusterCountTables
from ..obs.profile import export_spans, merge_spans, worker_tracing
from ..obs.trace import span

__all__ = ["JOBS_ENV_VAR", "fan_out", "parallel_assign", "pool", "resolve_jobs"]

#: Environment variable consulted when ``n_jobs`` is ``None``.
JOBS_ENV_VAR = "REPRO_JOBS"

#: Rows scored per batch in SAMPLING's assignment phase, serial or pooled:
#: distinct rows of the label matrix on the count-table path.
ASSIGN_BLOCK = 8192

_S = TypeVar("_S")
_R = TypeVar("_R")

#: The current pool's task and state, installed by :func:`_init_worker`
#: (set in workers only).
_WORKER: dict[str, Any] = {}


def resolve_jobs(n_jobs: int | None = None) -> int:
    """Resolve an ``n_jobs`` parameter to a concrete worker count.

    Precedence: an explicit ``n_jobs`` integer always wins; ``None``
    consults the ``REPRO_JOBS`` environment variable (unset or empty
    means 1, i.e. the serial path); ``0`` or a negative value — whether
    passed explicitly or via the environment — selects every available
    core.  Anything other than ``None`` or an integer (Python or numpy;
    ``bool`` excluded) raises a ValueError.  The result is always at
    least 1, and exactly 1 where ``fork`` is not a start method.
    """
    if n_jobs is None:
        raw = os.environ.get(JOBS_ENV_VAR, "").strip()
        if not raw:
            return 1
        try:
            n_jobs = int(raw)
        except ValueError:
            raise ValueError(f"{JOBS_ENV_VAR} must be an integer, got {raw!r}") from None
    elif isinstance(n_jobs, bool) or not isinstance(n_jobs, numbers.Integral):
        raise ValueError(f"n_jobs must be an integer or None, got {n_jobs!r}")
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    if n_jobs <= 0:
        return max(1, os.cpu_count() or 1)
    return int(n_jobs)


def pool(jobs: int, initializer: Any = None, initargs: tuple[Any, ...] = ()) -> Pool:
    """A ``fork``-started worker pool.

    Every process pool in the repository is created here (lint rule
    RPR006 forbids direct ``multiprocessing.Pool`` use elsewhere).  Fork
    is what lets ``initargs`` reach the workers without pickling; callers
    only get here with :func:`resolve_jobs` above 1, which already
    implies the platform offers it.
    """
    context = multiprocessing.get_context("fork")
    return context.Pool(jobs, initializer=initializer, initargs=initargs)


def _init_worker(task: Callable[[Any, int], Any], state: Any) -> None:
    _WORKER.update(task=task, state=state)


def _run_task(index: int) -> tuple[Any, list[dict[str, Any]]]:
    # Spans recorded in a forked worker would vanish with the process, so
    # each task profiles into a local trace and ships it back with its
    # result for the caller to graft.
    with worker_tracing() as trace:
        result = _WORKER["task"](_WORKER["state"], index)
    return result, export_spans(trace)


def fan_out(
    task: Callable[[_S, int], _R],
    count: int,
    state: _S,
    n_jobs: int | None = None,
) -> tuple[list[_R], int]:
    """Run ``task(state, i)`` for ``i in range(count)``; results in index order.

    ``n_jobs`` follows :func:`resolve_jobs` and is capped at ``count``.
    With one worker the tasks run in-process, in order; otherwise a
    forked pool runs them, ``task`` and ``state`` inherited at fork, and
    every worker's spans are grafted into the caller's trace under the
    innermost open span.  An exception raised by a task reaches the
    caller with its type, after the pool is shut down.  Returns
    ``(results, jobs)`` with ``jobs`` the worker count used.
    """
    jobs = min(resolve_jobs(n_jobs), count)
    if jobs <= 1:
        return [task(state, index) for index in range(count)], 1
    workers = pool(jobs, initializer=_init_worker, initargs=(task, state))
    try:
        outcomes = workers.map(_run_task, range(count))
    finally:
        workers.close()
        workers.join()
    results = []
    for result, spans in outcomes:
        merge_spans(spans)
        results.append(result)
    return results, jobs


def _assign_block(state: tuple[ClusterCountTables, list[np.ndarray]], index: int) -> np.ndarray:
    tables, blocks = state
    return tables._place(blocks[index])


def parallel_assign(
    tables: ClusterCountTables,
    rows: np.ndarray,
    n_jobs: int | None = None,
) -> np.ndarray:
    """Cheapest-cluster assignment of ``rows``, fanned out over a pool.

    ``rows`` are grouped once by their tuple of label codes
    (:meth:`~repro.core.objective.ClusterCountTables.distinct`); the
    distinct rows are cut into :data:`ASSIGN_BLOCK`-row blocks, each
    scored independently against the fixed ``tables`` (inherited by
    every worker at fork), and the placements are spread back over
    ``rows``.  A row's placement depends only on its codes, so the result
    is bit-identical to ``tables.assign(rows)`` regardless of worker
    count.  With one worker (or one block) the blocks are scored
    in-process.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        return np.empty(0, dtype=np.int64)
    first, inverse = tables.distinct(rows)
    distinct = rows[first]
    blocks = [
        distinct[start : start + ASSIGN_BLOCK] for start in range(0, distinct.size, ASSIGN_BLOCK)
    ]
    with span(
        "parallel.assign", rows=int(rows.size), distinct=int(distinct.size), blocks=len(blocks)
    ) as assign_span:
        assigned, jobs = fan_out(_assign_block, len(blocks), (tables, blocks), n_jobs)
        assign_span.set(jobs=jobs)
        return np.concatenate(assigned)[inverse]
