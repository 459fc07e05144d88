"""ROCK (Guha, Rastogi, Shim) — the link-based categorical baseline.

The paper compares its aggregation algorithms against ROCK on the Votes
and Mushrooms datasets (Tables 2 and 3), with the θ values the original
ROCK paper suggests (0.73 for Votes, 0.8 for Mushrooms).

ROCK in brief: two rows are *neighbours* when their Jaccard similarity
(over attribute-value items) is at least θ; ``link(u, v)`` counts their
common neighbours; clusters are merged greedily by the goodness measure

    g(Ci, Cj) = links(Ci, Cj) / ((ni + nj)^e - ni^e - nj^e),
    e = 1 + 2 f(θ),   f(θ) = (1 - θ) / (1 + θ)

(the denominator is the expected number of cross links), until ``k``
clusters remain or no cross-linked pair is left — leftover unlinked
clusters are ROCK's outliers.  Complexity is cubic in the worst case; the
paper notes ROCK "does not scale" to Census-sized data, which this
implementation reproduces honestly (an optional uniform sample plus a
link-based assignment phase, as in the original paper, handles larger
inputs).
"""

from __future__ import annotations

import numpy as np

from ..cluster.distances import jaccard_similarity_matrix
from ..core.partition import Clustering

__all__ = ["rock", "rock_goodness_exponent"]


def rock_goodness_exponent(theta: float) -> float:
    """The exponent ``1 + 2 f(θ)`` of ROCK's expected-links normalizer."""
    if not 0.0 <= theta < 1.0:
        raise ValueError(f"theta must be in [0, 1), got {theta}")
    f = (1.0 - theta) / (1.0 + theta)
    return 1.0 + 2.0 * f


def _link_matrix(rows: np.ndarray, theta: float) -> np.ndarray:
    """links[u, v] = number of common neighbours of rows u and v.

    The boolean matmul runs in float32 (BLAS-accelerated; counts below
    2^24 are exact) and is rounded back to integers.
    """
    similarity = jaccard_similarity_matrix(rows)
    adjacency = similarity >= theta
    np.fill_diagonal(adjacency, False)
    dense = adjacency.astype(np.float32)
    return np.rint(dense @ dense.T).astype(np.int64)


def _merge_to_k(links: np.ndarray, k: int, exponent: float) -> np.ndarray:
    """Greedy goodness-maximizing merging; returns final labels.

    Keeps a best-partner cache per cluster (analogous to a nearest-
    neighbour cache) so each merge costs O(n) plus repairs.
    """
    n = links.shape[0]
    links = links.astype(np.float64, copy=True)
    np.fill_diagonal(links, 0.0)
    active = np.ones(n, dtype=bool)
    sizes = np.ones(n, dtype=np.int64)
    labels = np.arange(n, dtype=np.int64)

    def repair_rows(rows: np.ndarray) -> None:
        """Recompute the best partner of each given row, vectorized."""
        if rows.size == 0:
            return
        columns = np.flatnonzero(active)
        sub_links = links[np.ix_(rows, columns)]
        row_pow = sizes[rows][:, None].astype(np.float64) ** exponent
        col_pow = sizes[columns][None, :].astype(np.float64) ** exponent
        joint = (sizes[rows][:, None] + sizes[columns][None, :]).astype(np.float64)
        denominator = joint ** exponent - row_pow - col_pow
        with np.errstate(invalid="ignore", divide="ignore"):
            goodness = sub_links / denominator
        goodness[sub_links <= 0] = -np.inf
        goodness[rows[:, None] == columns[None, :]] = -np.inf
        positions = np.argmax(goodness, axis=1)
        best_idx[rows] = columns[positions]
        best_val[rows] = goodness[np.arange(rows.size), positions]

    best_idx = np.full(n, -1, dtype=np.int64)
    best_val = np.full(n, -np.inf, dtype=np.float64)
    repair_rows(np.arange(n))

    remaining = n
    while remaining > k:
        candidates = np.flatnonzero(active)
        pos = int(np.argmax(best_val[candidates]))
        i = int(candidates[pos])
        if not np.isfinite(best_val[i]):
            break  # no cross-linked pair left: remaining clusters are outliers
        j = int(best_idx[i])

        links[i] += links[j]
        links[:, i] = links[i]
        links[i, i] = 0.0
        links[j, :] = 0.0
        links[:, j] = 0.0
        sizes[i] += sizes[j]
        active[j] = False
        labels[labels == j] = i
        remaining -= 1
        if remaining <= k:
            break

        # Repair the best-partner cache: sizes[i] changed, so every pair
        # involving i has a new goodness; rows pointing at i or j are stale.
        stale = np.flatnonzero(active & ((best_idx == i) | (best_idx == j)))
        repair_rows(np.union1d(stale, np.array([i])))
        # Pairs (r, i) may have improved for rows not previously pointing
        # at i; membership in the cache is only a lower bound, so check.
        others = np.flatnonzero(active)
        others = others[(others != i)]
        if others.size:
            denominator = (
                (sizes[others] + sizes[i]).astype(np.float64) ** exponent
                - sizes[others].astype(np.float64) ** exponent
                - float(sizes[i]) ** exponent
            )
            with np.errstate(invalid="ignore", divide="ignore"):
                towards_i = links[others, i] / denominator
            towards_i[links[others, i] <= 0] = -np.inf
            improved = towards_i > best_val[others]
            rows = others[improved]
            best_val[rows] = towards_i[improved]
            best_idx[rows] = i
    return labels


def rock(
    data: np.ndarray,
    k: int,
    theta: float = 0.73,
    sample_size: int | None = None,
    rng: np.random.Generator | int | None = None,
) -> Clustering:
    """Cluster categorical rows with ROCK.

    Parameters
    ----------
    data:
        ``(n, m)`` integer-coded categorical matrix (``-1`` = missing).
    k:
        Target number of clusters (ROCK requires it, unlike the paper's
        aggregation algorithms — a point the paper emphasizes).
    theta:
        Jaccard neighbour threshold.
    sample_size:
        If given, run the cubic merging on a uniform sample and assign the
        remaining rows to the cluster with the highest normalized
        neighbour count (the original paper's scaling strategy).
    rng:
        Seed or generator for the sample.
    """
    data = np.asarray(data)
    if data.ndim != 2:
        raise ValueError("data must be a 2-D categorical matrix")
    n = data.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}")
    exponent = rock_goodness_exponent(theta)

    if sample_size is None or sample_size >= n:
        links = _link_matrix(data, theta)
        labels = _merge_to_k(links, k, exponent)
        return Clustering(labels)

    generator = np.random.default_rng(rng)
    sample = np.sort(generator.choice(n, size=sample_size, replace=False))
    links = _link_matrix(data[sample], theta)
    sample_labels = Clustering(_merge_to_k(links, k, exponent)).labels

    # Assignment phase: neighbours of each leftover row among the sample,
    # normalized by the expected neighbour count of the target cluster.
    similarity_threshold = theta
    labels = np.full(n, -1, dtype=np.int64)
    labels[sample] = sample_labels
    cluster_count = int(sample_labels.max()) + 1
    cluster_sizes = np.bincount(sample_labels, minlength=cluster_count)
    unsampled = np.ones(n, dtype=bool)
    unsampled[sample] = False
    rest = np.flatnonzero(unsampled)
    if rest.size:
        from ..cluster.distances import jaccard_cross_similarity

        block = 2048
        power = (cluster_sizes + 1.0) ** exponent - cluster_sizes ** exponent - 1.0
        power[power <= 0] = 1.0
        for start in range(0, rest.size, block):
            chunk = rest[start : start + block]
            sims = jaccard_cross_similarity(data[chunk], data[sample])
            neighbours = sims >= similarity_threshold
            counts = np.zeros((chunk.size, cluster_count), dtype=np.float64)
            for cluster in range(cluster_count):
                counts[:, cluster] = neighbours[:, sample_labels == cluster].sum(axis=1)
            scores = counts / power[None, :]
            best = np.argmax(scores, axis=1)
            chosen = best.astype(np.int64)
            chosen[counts[np.arange(chunk.size), best] == 0] = -1
            labels[chunk] = chosen
    # Unassigned rows (no neighbours at all) become their own singletons.
    unassigned = np.flatnonzero(labels < 0)
    labels[unassigned] = cluster_count + np.arange(unassigned.size)
    return Clustering(labels)
