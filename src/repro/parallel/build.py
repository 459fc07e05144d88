"""Process-parallel construction of the disagreement matrix ``X``.

The ``O(m n²)`` build of the pairwise separation fractions (§3 of the
paper) is embarrassingly parallel across row blocks: every block of
:func:`~repro.core.kernels.distance_block` depends only on the label
matrix, and every matrix element is accumulated in the same column order
regardless of how the rows are tiled.  When
:func:`~repro.core.instance.disagreement_fractions` runs with more than one
worker and more than one grid block, it hands its block list to the
pooled fill here — the label matrix and the output ``X`` live in shared
memory (:class:`~repro.parallel.shm.SharedNDArray`; nothing quadratic is
ever pickled), the blocks are fanned out over a worker pool, and each
worker writes its normalized block straight into the shared ``X``
buffer.  The result is bit-identical to the serial path for any worker
count.

:func:`parallel_assign` gives the SAMPLING assignment phase (§4.1) the
same treatment: the per-block cheapest-cluster scoring against fixed
:class:`~repro.core.objective.ClusterCountTables` is independent per
block, so blocks are scored concurrently and reassembled in order.

Worker pools use the ``fork`` start method where the platform offers it
(zero-cost inheritance of the read-only Python state) and fall back to
the platform default elsewhere; all worker payloads are tiny index
ranges.
"""

from __future__ import annotations

import multiprocessing
from collections.abc import Iterator
from contextlib import contextmanager
from multiprocessing.pool import Pool
from typing import Any

import numpy as np

from ..core.backend import LazyLabelBackend
from ..core.instance import CorrelationInstance
from ..core.kernels import distance_block
from ..core.objective import ClusterCountTables
from ..obs.metrics import observe
from ..obs.trace import span
from .shm import SharedNDArray, resolve_jobs

__all__ = ["attach_instance", "parallel_assign", "pool", "share_instance"]

#: Per-worker state installed by the pool initializers (set in workers only).
_WORKER: dict[str, Any] = {}


def pool(jobs: int, initializer: Any = None, initargs: tuple[Any, ...] = ()) -> Pool:
    """A worker pool with the library-wide start-method policy.

    Every process pool in the repository is created here (lint rule
    RPR006 forbids direct ``multiprocessing.Pool`` use elsewhere), so the
    start-method choice — ``fork`` where available, the platform default
    otherwise — lives in exactly one place.
    """
    if "fork" in multiprocessing.get_all_start_methods():
        context = multiprocessing.get_context("fork")
    else:  # pragma: no cover - non-POSIX platforms
        context = multiprocessing.get_context()
    return context.Pool(jobs, initializer=initializer, initargs=initargs)


# ----------------------------------------------------------------------
# Zero-copy instance fan-out
# ----------------------------------------------------------------------


@contextmanager
def share_instance(instance: CorrelationInstance) -> Iterator[dict[str, Any]]:
    """Share ``instance``'s bulk data for zero-copy worker reconstruction.

    Yields a small picklable payload that forked workers hand to
    :func:`attach_instance`.  Dense-backed instances place the ``(n, n)``
    matrix in a shared segment (the historical portfolio behaviour);
    lazy-backed instances share only the ``(n, m)`` *label matrix* plus
    the kernel parameters, so every worker attaches in O(n * m) memory
    and computes its own row blocks on demand.  The shared segment lives
    until the ``with`` block exits — keep the pool inside it.
    """
    backend = instance.backend
    common: dict[str, Any] = {"m": instance.m, "weights": instance.weights}
    if isinstance(backend, LazyLabelBackend):
        labels = backend.label_matrix
        with SharedNDArray.create(labels.shape, labels.dtype) as shared:
            shared.array[...] = labels
            yield {
                "kind": "lazy",
                "descriptor": shared.descriptor,
                "p": backend.p,
                "missing": backend.missing,
                "dtype": backend.dtype.str,
                **common,
            }
    else:
        X = backend.dense()
        with SharedNDArray.create(X.shape, X.dtype) as shared:
            shared.array[...] = X
            yield {"kind": "dense", "descriptor": shared.descriptor, **common}


def attach_instance(payload: dict[str, Any]) -> tuple[CorrelationInstance, SharedNDArray]:
    """Rebuild a :func:`share_instance` payload inside a worker.

    Returns ``(instance, shared)``; the caller must keep ``shared`` alive
    (and close it eventually) for as long as the instance is used — the
    instance's arrays are zero-copy views into the shared segment.
    """
    shared = SharedNDArray.attach(payload["descriptor"])
    try:
        if payload["kind"] == "lazy":
            lazy = LazyLabelBackend(
                shared.array,
                p=payload["p"],
                dtype=np.dtype(payload["dtype"]),
                missing=payload["missing"],
                validate=False,
            )
            instance = CorrelationInstance(
                m=payload["m"], weights=payload["weights"], backend=lazy
            )
        else:
            instance = CorrelationInstance(
                shared.array, m=payload["m"], validate=False, weights=payload["weights"]
            )
    except BaseException:
        # A malformed payload must not strand the attached mapping: the
        # worker would hold the segment open for its whole lifetime.
        shared.close()
        raise
    return instance, shared


# ----------------------------------------------------------------------
# Instance construction
# ----------------------------------------------------------------------


def _init_build_worker(
    matrix_descriptor: tuple[str, tuple[int, ...], str],
    out_descriptor: tuple[str, tuple[int, ...], str],
    p: float,
    missing: str,
) -> None:
    _WORKER["matrix"] = SharedNDArray.attach(matrix_descriptor)
    _WORKER["out"] = SharedNDArray.attach(out_descriptor)
    _WORKER["p"] = p
    _WORKER["missing"] = missing


def _build_block(bounds: tuple[int, int]) -> tuple[int, float]:
    """Fill one row block of the shared ``X``; returns ``(start, seconds)``.

    The wall time rides back on the result channel so the parent can
    aggregate per-worker block timings into the
    ``parallel.build.block_seconds`` histogram (a forked worker's own
    metrics registry dies with the process).
    """
    start, stop = bounds
    matrix = _WORKER["matrix"].array
    out = _WORKER["out"].array
    with span("build.block", start=start, stop=stop) as block_span:
        out[start:stop] = distance_block(
            matrix, slice(start, stop), p=_WORKER["p"], dtype=out.dtype, missing=_WORKER["missing"]
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
    """Fill ``X`` block by block from ``jobs`` shared-memory workers.

    The pooled half of :func:`~repro.core.instance.disagreement_fractions`,
    which has already validated its arguments and laid out ``blocks``.
    """
    n = matrix.shape[0]
    with span("parallel.build", n=n, jobs=jobs, blocks=len(blocks)) as build_span:
        with SharedNDArray.create(
            matrix.shape, matrix.dtype
        ) as shared_matrix, SharedNDArray.create((n, n), dtype) as shared_out:
            shared_matrix.array[...] = matrix
            workers = pool(
                jobs,
                initializer=_init_build_worker,
                initargs=(shared_matrix.descriptor, shared_out.descriptor, p, missing),
            )
            try:
                timings = workers.map(_build_block, blocks)
            finally:
                workers.close()
                workers.join()
            X = shared_out.array.copy()
        block_seconds = [seconds for _, seconds in timings]
        for seconds in block_seconds:
            observe("parallel.build.block_seconds", seconds)
        build_span.set(busy_seconds=sum(block_seconds))
    return X


# ----------------------------------------------------------------------
# SAMPLING assignment phase
# ----------------------------------------------------------------------


def _init_assign_worker(tables: ClusterCountTables) -> None:
    _WORKER["tables"] = tables


def _assign_block(rows: np.ndarray) -> np.ndarray:
    tables: ClusterCountTables = _WORKER["tables"]
    return tables.assign(rows)


def parallel_assign(
    tables: ClusterCountTables,
    rows: np.ndarray,
    n_jobs: int | None = None,
    block_size: int = 8192,
) -> np.ndarray:
    """Cheapest-cluster assignment of ``rows``, fanned out over a pool.

    Each block of ``rows`` is scored independently against the fixed
    ``tables`` (shipped to every worker once, at pool start-up), so the
    concatenated result is bit-identical to ``tables.assign(rows)``
    regardless of worker count.  With one worker (or one block) the
    blocks are scored in-process, preserving the serial path's bounded
    per-batch temporaries.
    """
    if block_size < 1:
        raise ValueError(f"block_size must be positive, got {block_size}")
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        return np.empty(0, dtype=np.int64)
    blocks = [rows[start : start + block_size] for start in range(0, rows.size, block_size)]
    jobs = min(resolve_jobs(n_jobs), len(blocks))
    with span("parallel.assign", rows=int(rows.size), jobs=jobs, blocks=len(blocks)):
        if jobs <= 1:
            return np.concatenate([tables.assign(block) for block in blocks])
        workers = pool(jobs, initializer=_init_assign_worker, initargs=(tables,))
        try:
            assigned = workers.map(_assign_block, blocks)
        finally:
            workers.close()
            workers.join()
        return np.concatenate(assigned)
