"""Label matrices: the compact encoding of many clusterings of one object set.

A *label matrix* is an ``(n, m)`` integer array whose column ``j`` holds the
cluster labels assigned to the ``n`` objects by the ``j``-th input
clustering.  The sentinel ``-1`` marks a *missing* entry: the ``j``-th
clustering expresses no opinion about that object (this is exactly the
situation of a missing categorical attribute value in Section 2 of the
paper).

All aggregation algorithms in this library either consume a
:class:`~repro.core.instance.CorrelationInstance` built from a label matrix,
or (for the large-scale SAMPLING path) consume the label matrix directly.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .kernels import MISSING, label_histogram
from .partition import Clustering

__all__ = [
    "MISSING",
    "as_label_matrix",
    "validate_label_matrix",
    "check_label_entries",
    "check_weights",
    "columns_as_clusterings",
    "contingency_table",
    "compact_columns",
]


def as_label_matrix(clusterings: Sequence[Clustering | Sequence[int] | np.ndarray]) -> np.ndarray:
    """Stack clusterings into an ``(n, m)`` label matrix.

    Accepts :class:`Clustering` objects, label sequences, or 1-D arrays
    (which may already contain ``-1`` missing markers).  All inputs must
    have the same length.  The matrix is int32, or int64 when a label
    does not fit in int32 (a cast would merge distinct labels).
    """
    if len(clusterings) == 0:
        raise ValueError("need at least one clustering")
    columns = []
    for item in clusterings:
        if isinstance(item, Clustering):
            columns.append(item.labels.astype(np.int64))
        else:
            arr = np.asarray(item)
            if arr.ndim != 1:
                raise ValueError("each clustering must be one-dimensional")
            if not np.issubdtype(arr.dtype, np.integer):
                raise TypeError(f"labels must be integers, got dtype {arr.dtype}")
            columns.append(arr.astype(np.int64))
    n = columns[0].size
    if any(col.size != n for col in columns):
        raise ValueError("all clusterings must cover the same number of objects")
    matrix = np.column_stack(columns)
    validate_label_matrix(matrix)
    if matrix.max() <= np.iinfo(np.int32).max:
        matrix = matrix.astype(np.int32)
    return matrix


def check_label_entries(matrix: np.ndarray, name: str = "label matrix") -> None:
    """Shape, dtype and range checks of :func:`validate_label_matrix`.

    Entirely missing columns pass; ``name`` leads the error messages.
    """
    if matrix.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {matrix.shape}")
    if matrix.shape[0] == 0 or matrix.shape[1] == 0:
        raise ValueError(f"{name} must have at least one row and one column")
    if not np.issubdtype(matrix.dtype, np.integer):
        raise TypeError(f"{name} must be integer, got dtype {matrix.dtype}")
    if matrix.min() < MISSING:
        raise ValueError(f"{name} labels must be >= -1 (-1 denotes a missing entry)")


def check_weights(weights: np.ndarray, n: int, name: str = "weights") -> np.ndarray:
    """``weights`` as a float64 vector of ``n`` finite multiplicities.

    Raises ``ValueError`` naming ``name`` on a wrong shape or a NaN or
    infinite entry; each caller applies its own lower bound.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n,):
        raise ValueError(f"{name} must give one multiplicity per row, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError(f"{name} must be finite")
    return w


def validate_label_matrix(matrix: np.ndarray) -> None:
    """Raise ``ValueError`` unless ``matrix`` is a well-formed label matrix."""
    check_label_entries(matrix)
    # No entry is below MISSING, so a column is entirely missing exactly
    # when its largest entry is MISSING: one max() per column, far cheaper
    # than a boolean reduction along axis 0 of a row-major matrix.
    reject_missing_columns([j for j in range(matrix.shape[1]) if matrix[:, j].max() == MISSING])


def reject_missing_columns(bad: list[int]) -> None:
    """Raise :func:`validate_label_matrix`'s error if ``bad`` lists any
    entirely missing column."""
    if bad:
        raise ValueError(f"columns {bad} are entirely missing and carry no information")


def columns_as_clusterings(matrix: np.ndarray) -> list[Clustering]:
    """Convert a label matrix without missing entries back to clusterings."""
    validate_label_matrix(matrix)
    if np.any(matrix == MISSING):
        raise ValueError(
            "label matrix contains missing entries; clusterings must be total "
            "partitions (handle missing values through CorrelationInstance)"
        )
    return [Clustering(matrix[:, j]) for j in range(matrix.shape[1])]


def contingency_table(labels_a: np.ndarray, labels_b: np.ndarray) -> np.ndarray:
    """Joint count table of two label vectors, ignoring missing entries.

    Returns a ``(ka, kb)`` int64 array whose ``(i, j)`` entry counts the
    objects labelled ``i`` by ``labels_a`` and ``j`` by ``labels_b`` (the
    labels index the table).  Pairs where either side is missing (``-1``)
    are excluded.
    """
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("label vectors must be 1-D and of equal length")
    present = (a != MISSING) & (b != MISSING)
    if not present.any():
        return np.zeros((0, 0), dtype=np.int64)
    a = a[present].astype(np.int64)
    b = b[present].astype(np.int64)
    return label_histogram(a, b, int(a.max()) + 1, int(b.max()) + 1).astype(np.int64)


def compact_columns(matrix: np.ndarray) -> np.ndarray:
    """Renumber each column's labels to a dense ``0..k_j-1`` range.

    Missing entries are preserved.  Compacting keeps downstream count
    tables small when the raw labels are sparse (e.g. hash codes).
    """
    validate_label_matrix(matrix)
    out = np.empty_like(matrix, dtype=np.int32)
    for j in range(matrix.shape[1]):
        column = matrix[:, j]
        present = column != MISSING
        _, inverse = np.unique(column[present], return_inverse=True)
        out[~present, j] = MISSING
        out[present, j] = inverse.astype(np.int32)
    return out
