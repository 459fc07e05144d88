"""AGGLOMERATIVE — bottom-up average-linkage correlation clustering (§4).

Every node starts as a singleton; the pair of clusters with the smallest
*average* inter-cluster distance is merged as long as that average is below
1/2.  When no pair of clusters has average distance < 1/2, merging any pair
would increase the correlation cost, so the algorithm stops.  The produced
clusters have the property that the average distance between any two member
nodes is at most 1/2 — "the opinion of the majority is respected on
average" — and for ``m = 3`` input clusterings the result is a
2-approximation.

The implementation keeps the full cluster-to-cluster average-distance
matrix and a nearest-neighbour cache per cluster.  Average linkage obeys
the Lance–Williams recurrence

    d(A ∪ B, C) = (|A| d(A,C) + |B| d(B,C)) / (|A| + |B|)

so each merge costs one vectorized row update plus cache repair, giving
``O(n^2)`` time in practice (and ``O(n^2)`` memory for the matrix copy).

If the user insists on a fixed number of clusters (as the paper notes in
§2), pass ``force_k``: merging then continues past the 1/2 threshold until
``force_k`` clusters remain.
"""

from __future__ import annotations

import numpy as np

from ..core.instance import CorrelationInstance
from ..core.kernels import default_dtype
from ..core.partition import Clustering
from ..obs.metrics import inc
from ..obs.profile import phase
from ..registry import register_method

__all__ = ["agglomerative"]


@register_method("agglomerative", kind="instance", supports_weights=True)
def agglomerative(
    instance: CorrelationInstance,
    threshold: float = 0.5,
    force_k: int | None = None,
) -> Clustering:
    """Run average-linkage agglomeration on a correlation instance.

    Parameters
    ----------
    instance:
        Pairwise distances in [0, 1].
    threshold:
        Merge while the closest pair's average distance is strictly below
        this value (1/2 in the paper).
    force_k:
        If given, ignore the threshold-based stop and merge (in the same
        closest-first order) until exactly ``force_k`` clusters remain.
    """
    n = instance.n
    if force_k is not None and not 1 <= force_k <= n:
        raise ValueError(f"force_k must be in 1..{n}, got {force_k}")
    if n == 1:
        return Clustering.single_cluster(1)

    with phase("agglomerative.init", n=n):
        # Working copy: float64 for exactness on small instances, float32 to
        # halve memory at paper scale.  Average linkage mutates the full
        # cluster-distance matrix, so even a lazy instance materializes here.
        D = instance.backend.materialize(default_dtype(n), copy=True)
        np.fill_diagonal(D, np.inf)

        active = np.ones(n, dtype=bool)
        # On weighted (atom) instances each node starts as a cluster of its
        # duplicate multiplicity; average linkage then matches the expanded
        # instance (whose duplicates would merge first at height 0).
        sizes = instance.effective_weights().copy()
        labels = np.arange(n, dtype=np.int64)
        # Nearest-neighbour cache: nn_val[i] = min_j D[i, j], nn_idx[i] = argmin.
        nn_idx = np.argmin(D, axis=1)
        nn_val = D[np.arange(n), nn_idx]

    remaining = n
    target = 1 if force_k is None else force_k
    with phase("agglomerative.merge", n=n) as merge_span:
        while remaining > target:
            candidates = np.flatnonzero(active)
            pos = int(np.argmin(nn_val[candidates]))
            i = int(candidates[pos])
            j = int(nn_idx[i])
            value = float(nn_val[i])
            if force_k is None and value >= threshold:
                break

            # Merge j into i with the average-linkage Lance-Williams update.
            si, sj = sizes[i], sizes[j]
            merged_row = (si * D[i] + sj * D[j]) / (si + sj)
            D[i] = merged_row
            D[:, i] = merged_row
            D[i, i] = np.inf
            D[j, :] = np.inf
            D[:, j] = np.inf
            sizes[i] = si + sj
            active[j] = False
            labels[labels == j] = i
            remaining -= 1
            if remaining == 1:
                break

            # Repair the nearest-neighbour cache.  Row i changed entirely; any
            # row whose cached neighbour was i or j may now be stale; all other
            # rows can only have *improved* towards i.
            row_i = D[i]
            nn_idx[i] = int(np.argmin(row_i))
            nn_val[i] = row_i[nn_idx[i]]

            stale = np.flatnonzero(active & ((nn_idx == i) | (nn_idx == j)))
            for r in stale:
                if r == i:
                    continue
                row = D[r]
                nn_idx[r] = int(np.argmin(row))
                nn_val[r] = row[nn_idx[r]]

            better = active.copy()
            better[i] = False
            improved = np.flatnonzero(better & (D[:, i] < nn_val))
            nn_idx[improved] = i
            nn_val[improved] = D[improved, i]
        merges = n - remaining
        merge_span.set(merges=merges, clusters=remaining)
    inc("agglomerative.merges", merges)
    return Clustering(labels)
