"""Pairwise-distance kernels for the vanilla clustering substrate.

Blocked, vectorized implementations of the three distances used across the
library: squared Euclidean (k-means, Ward), Euclidean (hierarchical
linkages on point data), and Hamming/Jaccard on categorical rows (the
ROCK baseline), whose per-attribute matches come from the label kernel
of :mod:`repro.core.kernels`.  Everything returns dense float64/float32
arrays; blocking keeps peak temporary memory bounded for large inputs.
"""

from __future__ import annotations

import numpy as np

from ..core.kernels import separation_sums
from ..core.labels import MISSING

__all__ = [
    "squared_euclidean",
    "euclidean_matrix",
    "jaccard_similarity_matrix",
    "jaccard_cross_similarity",
    "hamming_fraction_matrix",
]

_BLOCK = 2048


def squared_euclidean(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between ``(n, d)`` points and ``(k, d)`` centers.

    Uses the expansion ``|x - c|^2 = |x|^2 - 2 x.c + |c|^2`` with a final
    clip at zero to absorb rounding.
    """
    points = np.asarray(points, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    if points.ndim != 2 or centers.ndim != 2 or points.shape[1] != centers.shape[1]:
        raise ValueError("points and centers must be 2-D with matching dimensionality")
    p_norms = (points * points).sum(axis=1)[:, None]
    c_norms = (centers * centers).sum(axis=1)[None, :]
    distances = p_norms - 2.0 * points @ centers.T + c_norms
    np.maximum(distances, 0.0, out=distances)
    return distances


def euclidean_matrix(points: np.ndarray) -> np.ndarray:
    """Full symmetric Euclidean distance matrix of ``(n, d)`` points."""
    distances = squared_euclidean(points, points)
    np.fill_diagonal(distances, 0.0)
    return np.sqrt(distances)


def _categorical(rows: np.ndarray, missing: int) -> np.ndarray:
    """``rows`` as a 2-D label matrix with missing entries marked ``-1``."""
    rows = np.asarray(rows)
    if rows.ndim != 2:
        raise ValueError("rows must be a 2-D categorical matrix")
    return rows if missing == MISSING else np.where(rows == missing, MISSING, rows)


def hamming_fraction_matrix(rows: np.ndarray, missing: int = -1) -> np.ndarray:
    """Fraction of attributes on which two categorical rows differ.

    Attributes where either row is missing are skipped; a pair with no
    commonly-present attribute gets distance 1 (nothing supports putting
    them together).
    """
    rows = _categorical(rows, missing)
    n = rows.shape[0]
    out = np.empty((n, n), dtype=np.float64)
    for start in range(0, n, _BLOCK):
        block = slice(start, min(start + _BLOCK, n))
        # Per pair: attributes concretely differing, attributes concrete on both.
        differ, both = separation_sums(rows, block, dtype=np.float64, missing="average")
        with np.errstate(invalid="ignore", divide="ignore"):
            frac = differ / both
        frac[both == 0] = 1.0
        out[block] = frac
    np.fill_diagonal(out, 0.0)
    return out


def jaccard_similarity_matrix(rows: np.ndarray, missing: int = -1) -> np.ndarray:
    """Jaccard similarity between categorical rows, ROCK-style.

    Each row is viewed as the set of its (attribute, value) items; missing
    entries contribute no item.  ``J(u, v) = |items(u) ∩ items(v)| /
    |items(u) ∪ items(v)|``.  With all attributes present this reduces to
    ``matches / (2 m - matches)``.
    """
    rows = _categorical(rows, missing)
    out = _jaccard(rows, rows.shape[0], slice(None))
    np.fill_diagonal(out, 1.0)
    return out


def jaccard_cross_similarity(
    left: np.ndarray, right: np.ndarray, missing: int = -1
) -> np.ndarray:
    """Jaccard similarities between two row sets: an ``(n_left, n_right)`` array."""
    left = np.asarray(left)
    right = np.asarray(right)
    if left.ndim != 2 or right.ndim != 2 or left.shape[1] != right.shape[1]:
        raise ValueError("left and right must be 2-D with the same number of attributes")
    rows = _categorical(np.concatenate([left, right]), missing)
    return _jaccard(rows, left.shape[0], slice(left.shape[0], None))


def _jaccard(rows: np.ndarray, n_left: int, right: slice) -> np.ndarray:
    """Jaccard similarities of ``rows[:n_left]`` against ``rows[right]``."""
    sizes = (rows != MISSING).sum(axis=1)
    right_sizes = sizes[right]
    out = np.empty((n_left, right_sizes.size), dtype=np.float64)
    for start in range(0, n_left, _BLOCK):
        block = slice(start, min(start + _BLOCK, n_left))
        differ, both = separation_sums(rows, block, right, dtype=np.float64, missing="average")
        common = both - differ
        union = sizes[block][:, None] + right_sizes[None, :] - common
        with np.errstate(invalid="ignore", divide="ignore"):
            sim = common / union
        sim[union == 0] = 0.0
        out[block] = sim
    return out
