"""Disagreement distance between clusterings (the paper's ``d_V``).

Two clusterings *disagree* on an (unordered) pair of objects ``(u, v)`` when
one places them in the same cluster and the other separates them.  The
distance ``d_V(C1, C2)`` counts the disagreeing pairs; it is the classical
Mirkin metric on partitions and satisfies the triangle inequality
(Observation 1 in the paper).

Rather than enumerating all ``n(n-1)/2`` pairs, the distance is computed
from the contingency table of the two clusterings in
``O(n + k1 * k2)``:

    d_V(C1, C2) = S1 + S2 - 2 * S12

where ``S1``/``S2`` count co-clustered pairs in each clustering and ``S12``
counts pairs co-clustered in both.

Missing values (Section 2 of the paper) are handled by the coin-flip model:
a clustering with a missing entry for ``u`` or ``v`` declares the pair
co-clustered with probability ``p`` (independently per pair), and we measure
the *expected* number of disagreements.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .kernels import check_missing_model
from .labels import MISSING, as_label_matrix, contingency_table
from .partition import Clustering

__all__ = [
    "pairs_within",
    "clustering_distance",
    "expected_column_distance",
    "total_disagreement",
    "weighted_total_disagreement",
    "normalized_distance",
    "distance_matrix",
]


def pairs_within(sizes: np.ndarray) -> int:
    """Number of unordered object pairs that fall inside the same cluster."""
    s = np.asarray(sizes, dtype=np.int64)
    return int((s * (s - 1) // 2).sum())


def _co_clustered_pairs(labels: np.ndarray) -> int:
    """Co-clustered pair count of a label vector (missing entries excluded)."""
    present = labels[labels != MISSING]
    if present.size == 0:
        return 0
    return pairs_within(np.bincount(present))


def clustering_distance(first: Clustering, second: Clustering) -> int:
    """The Mirkin disagreement distance ``d_V`` between two clusterings."""
    if first.n != second.n:
        raise ValueError(f"clusterings cover {first.n} and {second.n} objects")
    table = contingency_table(first.labels, second.labels)
    same_first = pairs_within(table.sum(axis=1))
    same_second = pairs_within(table.sum(axis=0))
    same_both = pairs_within(table.ravel())
    return same_first + same_second - 2 * same_both


def expected_column_distance(
    column: np.ndarray, clustering: Clustering, p: float = 0.5
) -> float:
    """Expected disagreements between one (possibly partial) input column and a clustering.

    ``column`` is one column of a label matrix and may contain ``-1``
    (missing) entries.  Under the coin-flip model a missing-involved pair is
    reported co-clustered with probability ``p``.  With no missing entries
    this equals :func:`clustering_distance` exactly.
    """
    check_missing_model(p)
    column = np.asarray(column)
    if column.shape != (clustering.n,):
        raise ValueError("column length must match the clustering size")
    n = clustering.n
    total_pairs = n * (n - 1) // 2

    present = column != MISSING
    concrete = int(present.sum())
    concrete_pairs = concrete * (concrete - 1) // 2
    missing_pairs = total_pairs - concrete_pairs

    # Disagreements on fully-concrete pairs: the exact Mirkin count on the
    # restriction to the objects the column labels.
    table = contingency_table(column, clustering.labels)
    same_col = pairs_within(table.sum(axis=1))
    same_clu_concrete = pairs_within(table.sum(axis=0))
    same_both = pairs_within(table.ravel())
    concrete_disagreements = same_col + same_clu_concrete - 2 * same_both

    # Expected disagreements on missing-involved pairs: (1-p) per pair the
    # clustering joins, p per pair it splits.
    same_clu_total = pairs_within(clustering.sizes())
    same_clu_missing = same_clu_total - same_clu_concrete
    diff_clu_missing = missing_pairs - same_clu_missing
    expected_missing = (1.0 - p) * same_clu_missing + p * diff_clu_missing

    return float(concrete_disagreements) + expected_missing


def total_disagreement(
    inputs: np.ndarray | Sequence[Clustering],
    clustering: Clustering,
    p: float = 0.5,
) -> float:
    """The aggregation objective ``D(C) = sum_i d_V(C_i, C)``.

    ``inputs`` is either a label matrix (columns may contain missing
    entries) or a sequence of :class:`Clustering` objects.  The result is an
    exact integer-valued float when no entries are missing, and an expected
    value under the coin-flip model otherwise.
    """
    matrix = inputs if isinstance(inputs, np.ndarray) else as_label_matrix(inputs)
    if matrix.shape[0] != clustering.n:
        raise ValueError("label matrix rows must match the clustering size")
    return float(
        sum(expected_column_distance(matrix[:, j], clustering, p=p) for j in range(matrix.shape[1]))
    )


def _weighted_pairs_within(groups: np.ndarray, weights: np.ndarray) -> float:
    """Weighted unordered-pair mass inside each group: ``sum_g (S_g² - Q_g) / 2``.

    With unit weights this is :func:`pairs_within`; in general each pair
    ``(u, v)`` with ``u != v`` in the same group contributes ``w_u * w_v``
    (self-pairs contribute nothing — on atom matrices those are the
    intra-atom pairs, which the objective defines as zero).
    """
    sums = np.bincount(groups, weights=weights)
    squares = np.bincount(groups, weights=weights * weights)
    return float((sums * sums - squares).sum() / 2.0)


def weighted_total_disagreement(
    matrix: np.ndarray,
    clustering: Clustering,
    weights: np.ndarray | None = None,
    p: float = 0.5,
) -> float:
    """``D(C)`` of a label matrix whose rows carry multiplicities.

    The weighted aggregation objective: every unordered row pair
    ``(u, v)`` counts ``w_u * w_v`` times, so on a duplicate-collapsed
    (atom) matrix this equals :func:`total_disagreement` of the expanded
    clustering over the expanded matrix.  ``weights=None`` means unit
    multiplicities, where the value coincides with
    :func:`total_disagreement` exactly.  Missing entries follow the
    coin-flip model at probability ``p``.  Runs in ``O(n * m)`` — one
    contingency pass per column, never enumerating pairs.
    """
    check_missing_model(p)
    matrix = np.asarray(matrix)
    n, m = matrix.shape
    if n != clustering.n:
        raise ValueError("label matrix rows must match the clustering size")
    if weights is None:
        w = np.ones(n, dtype=np.float64)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (n,):
            raise ValueError("weights must give one multiplicity per row")
    total_w = float(w.sum())
    total_sq = float((w * w).sum())
    total_pairs = (total_w * total_w - total_sq) / 2.0
    member = clustering.labels
    same_clu_total = _weighted_pairs_within(member, w)

    total = 0.0
    for j in range(m):
        column = matrix[:, j]
        present = column != MISSING
        wc = w[present]
        present_w = float(wc.sum())
        present_sq = float((wc * wc).sum())
        concrete_pairs = (present_w * present_w - present_sq) / 2.0
        missing_pairs = total_pairs - concrete_pairs

        _, codes = np.unique(column[present], return_inverse=True)
        concrete_member = member[present]
        joint = codes * (int(member.max()) + 1) + concrete_member
        same_col = _weighted_pairs_within(codes, wc)
        same_clu_concrete = _weighted_pairs_within(concrete_member, wc)
        same_both = _weighted_pairs_within(joint, wc)
        concrete_disagreements = same_col + same_clu_concrete - 2.0 * same_both

        same_clu_missing = same_clu_total - same_clu_concrete
        diff_clu_missing = missing_pairs - same_clu_missing
        total += concrete_disagreements + (1.0 - p) * same_clu_missing + p * diff_clu_missing
    return total


def normalized_distance(first: Clustering, second: Clustering) -> float:
    """Mirkin distance divided by the number of object pairs (range [0, 1])."""
    n = first.n
    if n < 2:
        return 0.0
    return clustering_distance(first, second) / (n * (n - 1) / 2)


def distance_matrix(clusterings: Sequence[Clustering]) -> np.ndarray:
    """All pairwise Mirkin distances among a set of clusterings."""
    m = len(clusterings)
    out = np.zeros((m, m), dtype=np.float64)
    # Each entry is a contingency-table computation over m (few) clusterings,
    # not an element-wise pass over object pairs — no kernel to block over.
    for i in range(m):  # repolint: disable=RPR002
        for j in range(i + 1, m):
            out[i, j] = out[j, i] = clustering_distance(clusterings[i], clusterings[j])
    return out
