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

from .kernels import MISSING, check_missing_model, label_codes, label_histogram
from .labels import as_label_matrix, check_label_entries, check_weights, contingency_table
from .partition import Clustering

__all__ = [
    "pairs_within",
    "clustering_distance",
    "expected_column_distance",
    "total_disagreement",
    "normalized_distance",
    "distance_matrix",
]


def pairs_within(sizes: np.ndarray) -> int:
    """Number of unordered object pairs that fall inside the same cluster."""
    s = np.asarray(sizes, dtype=np.int64)
    return int((s * (s - 1) // 2).sum())


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

    The one-column case of :func:`total_disagreement`: ``column`` may
    contain ``-1`` (missing) entries, and under the coin-flip model a
    missing-involved pair is reported co-clustered with probability
    ``p``.  With no missing entries this equals
    :func:`clustering_distance` exactly.
    """
    column = np.asarray(column)
    if column.shape != (clustering.n,):
        raise ValueError("column length must match the clustering size")
    return total_disagreement(column[:, None], clustering, p=p)


def total_disagreement(
    inputs: np.ndarray | Sequence[Clustering],
    clustering: Clustering,
    p: float = 0.5,
    weights: np.ndarray | None = None,
) -> float:
    """The aggregation objective ``D(C) = sum_i d_V(C_i, C)``.

    ``inputs`` is either a label matrix (columns may contain missing
    entries, or be entirely missing) or a sequence of :class:`Clustering`
    objects.  Missing entries follow the coin-flip model: a
    missing-involved pair costs ``1 - p`` where ``clustering`` joins it
    and ``p`` where it splits it.  ``weights`` gives the rows
    multiplicities: every unordered row pair ``(u, v)`` counts
    ``w_u * w_v`` times, so on a duplicate-collapsed (atom) matrix this
    is the objective of the expanded clustering over the expanded matrix
    (``None`` means unit weights).  The result is an exact integer-valued
    float with no missing entries and integer weights.  One weighted
    contingency pass per column, ``O(n * m)`` in all, never enumerating
    pairs.
    """
    check_missing_model(p)
    matrix = inputs if isinstance(inputs, np.ndarray) else as_label_matrix(inputs)
    check_label_entries(matrix, "inputs")
    n = clustering.n
    if matrix.shape[0] != n:
        raise ValueError("inputs rows must match the clustering size")
    w: np.ndarray | None = None
    squares: np.ndarray | None = None
    if weights is not None:
        w = check_weights(weights, n)
        if np.any(w < 0.0):
            raise ValueError("weights must be non-negative")
        squares = w * w
    member = clustering.labels
    k = clustering.k
    cluster_mass = np.bincount(member, weights=w, minlength=k)
    total_mass = float(cluster_mass.sum())
    # Unit weights are their own squares.
    total_square = total_mass if squares is None else float(squares.sum())
    all_pairs = (total_mass * total_mass - total_square) / 2.0
    joined = _pair_mass(cluster_mass, total_square)

    total = 0.0
    for column in matrix.T:
        codes, arity = label_codes(column)
        table = label_histogram(member, codes, k, arity, w)  # cluster x label mass
        by_cluster = table.sum(axis=1)
        concrete_mass = float(by_cluster.sum())
        if squares is None:
            concrete_square = concrete_mass
        else:
            concrete_square = float(squares[codes != MISSING].sum())
        concrete_pairs = (concrete_mass * concrete_mass - concrete_square) / 2.0
        joined_concrete = _pair_mass(by_cluster, concrete_square)
        # Concrete pairs joined by exactly one of the column and the clustering.
        concrete_disagreements = (
            _pair_mass(table.sum(axis=0), concrete_square)
            + joined_concrete
            - 2.0 * _pair_mass(table, concrete_square)
        )
        # Missing-involved pairs: 1 - p per pair the clustering joins, p per
        # pair it splits.
        joined_missing = joined - joined_concrete
        split_missing = (all_pairs - concrete_pairs) - joined_missing
        total += concrete_disagreements + ((1.0 - p) * joined_missing + p * split_missing)
    return total


def _pair_mass(masses: np.ndarray, square_sum: float) -> float:
    """``(sum(masses²) - square_sum) / 2``: the weighted unordered-pair mass
    inside each group, given the groups' masses and their members' summed
    squared weights (unit weights: ``pairs_within`` of the group sizes)."""
    return (float((masses * masses).sum()) - square_sum) / 2.0


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
