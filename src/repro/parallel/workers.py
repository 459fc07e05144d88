"""The fork policy: worker counts, the one pool constructor, pooled assignment.

:func:`resolve_jobs` centralizes the convention used by every ``n_jobs``
parameter in the library: an explicit integer wins, then the
``REPRO_JOBS`` environment variable, then the serial default of 1; zero
or a negative value means "all cores".  On a platform without the
``fork`` start method every count resolves to 1 and the serial path
runs (with bit-identical results).

Every pool in the library is forked by :func:`pool`, and its read-only
inputs ride the pool's ``initargs`` into :data:`WORKER`: a forked worker
inherits them without pickling or copying.  Only the small task payloads
(row-index blocks, member and shard indices) and the results cross the
pool's pipes.

:func:`parallel_assign` is the SAMPLING assignment phase (§4.1): the
per-block cheapest-cluster scoring against fixed
:class:`~repro.core.objective.ClusterCountTables` is independent per
block, so blocks are scored concurrently and reassembled in order.
"""

from __future__ import annotations

import multiprocessing
import numbers
import os
from multiprocessing.pool import Pool
from typing import Any

import numpy as np

from ..core.objective import ClusterCountTables
from ..obs.trace import span

__all__ = ["JOBS_ENV_VAR", "parallel_assign", "pool", "resolve_jobs"]

#: Environment variable consulted when ``n_jobs`` is ``None``.
JOBS_ENV_VAR = "REPRO_JOBS"

#: Rows scored per batch in SAMPLING's assignment phase, serial or pooled.
ASSIGN_BLOCK = 8192

#: The current pool's read-only inputs, installed by :func:`init_worker`
#: (set in workers only).
WORKER: dict[str, Any] = {}


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


def init_worker(state: dict[str, Any]) -> None:
    """Pool initializer: install the inherited inputs into :data:`WORKER`."""
    WORKER.update(state)


def _assign_block(rows: np.ndarray) -> np.ndarray:
    tables: ClusterCountTables = WORKER["tables"]
    return tables.assign(rows)


def parallel_assign(
    tables: ClusterCountTables,
    rows: np.ndarray,
    n_jobs: int | None = None,
) -> np.ndarray:
    """Cheapest-cluster assignment of ``rows``, fanned out over a pool.

    ``rows`` is cut into :data:`ASSIGN_BLOCK`-row blocks, each scored
    independently against the fixed ``tables`` (inherited by every
    worker at fork), so the concatenated result is bit-identical to
    ``tables.assign(rows)`` regardless of worker count.  With one worker
    (or one block) the blocks are scored in-process, preserving the
    serial path's bounded per-batch temporaries.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        return np.empty(0, dtype=np.int64)
    blocks = [rows[start : start + ASSIGN_BLOCK] for start in range(0, rows.size, ASSIGN_BLOCK)]
    jobs = min(resolve_jobs(n_jobs), len(blocks))
    with span("parallel.assign", rows=int(rows.size), jobs=jobs, blocks=len(blocks)):
        if jobs <= 1:
            return np.concatenate([tables.assign(block) for block in blocks])
        workers = pool(jobs, initializer=init_worker, initargs=({"tables": tables},))
        try:
            assigned = workers.map(_assign_block, blocks)
        finally:
            workers.close()
            workers.join()
        return np.concatenate(assigned)
