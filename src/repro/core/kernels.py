"""The label→distance kernel: ``X[u, v]`` straight from the label columns.

§2 of the paper: ``X[u, v]`` is the fraction of the ``m`` input
clusterings that separate ``u`` and ``v``.  A missing label (``-1``)
follows the ``"coin-flip"`` model (the pair counts as co-clustered with
probability ``p``, contributing ``1 - p`` over a denominator of ``m``) or
the ``"average"`` model (only clusterings concrete on both objects count;
a pair with none gets 0.5).

This is the one module that compares label columns pairwise.  Every
entry is accumulated over the label columns in column order, whatever
the row and column sets, so any tiling of ``X`` — row blocks, gathers,
worker fan-outs, one streamed column at a time — is bitwise identical.
"""

from __future__ import annotations

import numpy as np

from .labels import MISSING

__all__ = [
    "BLOCK_ROWS",
    "check_missing_model",
    "default_dtype",
    "distance_block",
    "label_histogram",
    "normalize",
    "separation_sums",
]

#: Row-block height of the full-matrix builds (bounds the kernel temporaries).
BLOCK_ROWS = 2048

_ALL = slice(None)


def check_missing_model(p: float, missing: str = "coin-flip") -> None:
    """Raise ``ValueError`` unless ``missing`` is a §2 model and ``p`` a probability."""
    if missing not in ("coin-flip", "average"):
        raise ValueError(f"missing must be 'coin-flip' or 'average', got {missing!r}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be a probability, got {p}")


def default_dtype(n: int) -> np.dtype:
    """Distance dtype for ``n`` objects: float64 up to 4096, float32 beyond."""
    return np.dtype(np.float64 if n <= 4096 else np.float32)


def separation_sums(
    matrix: np.ndarray,
    rows: slice | np.ndarray = _ALL,
    cols: slice | np.ndarray = _ALL,
    p: float = 0.5,
    dtype: np.dtype | type = np.float64,
    missing: str = "coin-flip",
    out: tuple[np.ndarray, np.ndarray | None] | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Un-normalized ``(separation, comparable)`` of ``matrix[rows]`` against ``matrix[cols]``.

    ``rows`` and ``cols`` are each a slice or an index array.  Per label
    column a pair adds 1 to ``separation`` when its labels are concrete
    and differ, and ``1 - p`` when one is missing under ``"coin-flip"``;
    under ``"average"`` it adds 1 to ``comparable`` when both are concrete
    (``comparable`` is ``None`` otherwise).  ``out`` accumulates into the
    given arrays instead of fresh zeros.  The diagonal is not special.
    """
    np_dtype = np.dtype(dtype)
    row_labels = np.ascontiguousarray(matrix[rows].T)
    col_labels = np.ascontiguousarray(matrix[cols].T)
    shape = (row_labels.shape[1], col_labels.shape[1])
    if out is None:
        separation = np.zeros(shape, dtype=np_dtype)
        comparable = np.zeros(shape, dtype=np_dtype) if missing == "average" else None
    else:
        separation, comparable = out
    fill = np_dtype.type(1.0 - p)
    # Each column adds its 0/1 "concretely different" mask; coin-flip
    # missing pairs (0 in the mask) then get 1 - p.  s + 0 == s exactly, so
    # every entry still takes each column's term in one rounding step.
    different = np.empty(shape, dtype=bool)
    both_present = np.empty(shape if comparable is not None else (0, 0), dtype=bool)
    for row_part, col_part in zip(row_labels, col_labels):
        np.not_equal(row_part[:, None], col_part[None, :], out=different)
        row_missing = row_part == MISSING
        col_missing = col_part == MISSING
        any_missing = bool(row_missing.any() or col_missing.any())
        if any_missing:
            different[row_missing] = False
            different[:, col_missing] = False
        separation += different
        if comparable is not None:
            if any_missing:
                np.logical_and(~row_missing[:, None], ~col_missing[None, :], out=both_present)
                comparable += both_present
            else:
                comparable += np_dtype.type(1.0)
        elif any_missing:
            separation[row_missing] += fill
            separation[np.ix_(~row_missing, col_missing)] += fill
    return separation, comparable


def normalize(
    separation: np.ndarray, denominator: float | np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Distances: separation sums over the column count (or decayed weight)
    or, under ``"average"``, the per-pair ``comparable`` counts (0.5 where 0)."""
    if isinstance(denominator, np.ndarray):
        with np.errstate(invalid="ignore", divide="ignore"):
            result = np.divide(separation, denominator, out=out)
        result[denominator == 0] = result.dtype.type(0.5)
        return result
    return np.divide(separation, separation.dtype.type(denominator), out=out)


def distance_block(
    matrix: np.ndarray,
    rows: slice | np.ndarray = _ALL,
    cols: slice | np.ndarray = _ALL,
    p: float = 0.5,
    dtype: np.dtype | type = np.float64,
    missing: str = "coin-flip",
) -> np.ndarray:
    """``X[rows, cols]`` of the label matrix, with ``X[u, u] = 0``."""
    separation, comparable = separation_sums(matrix, rows, cols, p, dtype, missing)
    denominator = matrix.shape[1] if comparable is None else comparable
    block = normalize(separation, denominator, out=separation)
    row_ids = _object_ids(rows, matrix.shape[0])
    if isinstance(cols, slice) and cols == _ALL:
        block[np.arange(row_ids.size), row_ids] = block.dtype.type(0.0)
    else:
        col_ids = _object_ids(cols, matrix.shape[0])
        block[row_ids[:, None] == col_ids[None, :]] = block.dtype.type(0.0)
    return block


def _object_ids(index: slice | np.ndarray, n: int) -> np.ndarray:
    return np.arange(*index.indices(n)) if isinstance(index, slice) else index


def label_histogram(
    groups: np.ndarray,
    values: np.ndarray,
    k: int,
    arity: int,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Float64 ``(k, arity)`` table: summed ``weights`` (default 1) of the
    objects in group ``g`` with concrete label ``v``, in object order."""
    present = values != MISSING
    flat = groups[present] * arity + values[present]
    counts = np.bincount(
        flat, weights=None if weights is None else weights[present], minlength=k * arity
    )
    return counts.astype(np.float64, copy=False).reshape(k, arity)
