"""Process-parallel construction of the disagreement matrix ``X``.

The ``O(m n²)`` build of the pairwise separation fractions (§3 of the
paper) is embarrassingly parallel across row blocks: every block of
:func:`~repro.core.kernels.distance_block` depends only on the label
matrix, and every matrix element is the same sum whichever block it
lands in: the one-hot product's exact one or the compare loop's
column-order one.  When
:func:`~repro.core.instance.disagreement_fractions` runs with more than one
worker and more than one grid block, it hands its block list to the
pooled fill here: the output ``X`` is one anonymous shared mapping
created before the pool forks, the blocks are fanned out over the
workers, and each worker writes its normalized block straight into it.
The result is bit-identical to the serial path for any worker count.

:func:`parallel_assign` gives the SAMPLING assignment phase (§4.1) the
same treatment: the per-block cheapest-cluster scoring against fixed
:class:`~repro.core.objective.ClusterCountTables` is independent per
block, so blocks are scored concurrently and reassembled in order.

Every pool in the library is forked by :func:`pool`, and its read-only
inputs ride the pool's ``initargs`` into :data:`WORKER`: a forked worker
inherits them without pickling or copying.  Only the tiny task payloads
(row ranges, member indices) and the results cross the pool's pipes.
"""

from __future__ import annotations

import mmap
import multiprocessing
from multiprocessing.pool import Pool
from typing import Any

import numpy as np

from ..core.kernels import distance_block
from ..core.objective import ClusterCountTables
from ..obs.metrics import observe
from ..obs.trace import span
from .shm import resolve_jobs

__all__ = ["parallel_assign", "pool"]

#: Rows scored per batch in SAMPLING's assignment phase, serial or pooled.
ASSIGN_BLOCK = 8192

#: The current pool's read-only inputs, installed by :func:`init_worker`
#: (set in workers only).
WORKER: dict[str, Any] = {}


def pool(jobs: int, initializer: Any = None, initargs: tuple[Any, ...] = ()) -> Pool:
    """A ``fork``-started worker pool.

    Every process pool in the repository is created here (lint rule
    RPR006 forbids direct ``multiprocessing.Pool`` use elsewhere).  Fork
    is what lets ``initargs`` reach the workers without pickling; callers
    only get here with :func:`~repro.parallel.shm.resolve_jobs` above 1,
    which already implies the platform offers it.
    """
    context = multiprocessing.get_context("fork")
    return context.Pool(jobs, initializer=initializer, initargs=initargs)


def init_worker(state: dict[str, Any]) -> None:
    """Pool initializer: install the inherited inputs into :data:`WORKER`."""
    WORKER.update(state)


# ----------------------------------------------------------------------
# Instance construction
# ----------------------------------------------------------------------


def _build_block(bounds: tuple[int, int]) -> tuple[int, float]:
    """Fill one row block of the shared ``X``; returns ``(start, seconds)``.

    The wall time rides back on the result channel so the parent can
    aggregate per-worker block timings into the
    ``parallel.build.block_seconds`` histogram (a forked worker's own
    metrics registry dies with the process).
    """
    start, stop = bounds
    matrix, out = WORKER["matrix"], WORKER["out"]
    with span("build.block", start=start, stop=stop) as block_span:
        out[start:stop] = distance_block(
            matrix, slice(start, stop), p=WORKER["p"], dtype=out.dtype, missing=WORKER["missing"]
        )
    return start, block_span.seconds


def _pooled_fill(
    matrix: np.ndarray,
    blocks: list[tuple[int, int]],
    p: float,
    dtype: np.dtype,
    missing: str,
    jobs: int,
) -> np.ndarray:
    """Fill ``X`` block by block from ``jobs`` forked workers.

    The pooled half of :func:`~repro.core.instance.disagreement_fractions`,
    which has already validated its arguments and laid out ``blocks``.
    ``X`` is a view of an anonymous ``MAP_SHARED`` mapping: the workers
    inherit it at fork and write their rows into it, and the parent
    returns it as is.
    """
    n = matrix.shape[0]
    with span("parallel.build", n=n, jobs=jobs, blocks=len(blocks)) as build_span:
        X = np.frombuffer(mmap.mmap(-1, n * n * dtype.itemsize), dtype=dtype).reshape(n, n)
        state = {"matrix": matrix, "out": X, "p": p, "missing": missing}
        workers = pool(jobs, initializer=init_worker, initargs=(state,))
        try:
            timings = workers.map(_build_block, blocks)
        finally:
            workers.close()
            workers.join()
        block_seconds = [seconds for _, seconds in timings]
        for seconds in block_seconds:
            observe("parallel.build.block_seconds", seconds)
        build_span.set(busy_seconds=sum(block_seconds))
    return X


# ----------------------------------------------------------------------
# SAMPLING assignment phase
# ----------------------------------------------------------------------


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
