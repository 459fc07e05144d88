"""Agglomerative hierarchical clustering, implemented from scratch.

This substrate stands in for Matlab's ``linkage`` in the paper's Figure 3
experiment: single, complete, average (UPGMA), and Ward linkages over
Euclidean point data (or any precomputed distance matrix).

The core is the nearest-neighbour-chain algorithm, valid for all four
linkages because they are *reducible*: merging two clusters never brings
any other cluster closer than it was to both.  Each merge costs a
vectorized Lance–Williams row update, giving ``O(n^2)`` time and memory.

For Ward the working distances are *squared* Euclidean (the Lance–Williams
recurrence is exact in that scale); heights are reported in the working
scale, which is irrelevant for cutting by cluster count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distances import euclidean_matrix, squared_euclidean

__all__ = ["LinkageResult", "linkage", "hierarchical"]

_METHODS = ("single", "complete", "average", "ward")


@dataclass
class LinkageResult:
    """A dendrogram: ``n - 1`` merges of leaf-representative pairs.

    ``merges[step] = (rep_a, rep_b, height)`` records that at the given
    height the clusters containing leaves ``rep_a`` and ``rep_b`` merged.
    Cutting unions merges in ascending height order.
    """

    merges: np.ndarray
    n: int
    method: str

    def cut(self, k: int) -> np.ndarray:
        """Labels of the ``k``-cluster flat clustering."""
        if not 1 <= k <= self.n:
            raise ValueError(f"k must be in 1..{self.n}, got {k}")
        return self._apply(self.n - k)

    def cut_height(self, height: float) -> np.ndarray:
        """Labels after applying every merge with height <= ``height``."""
        order = np.argsort(self.merges[:, 2], kind="stable")
        count = int(np.searchsorted(self.merges[order, 2], height, side="right"))
        return self._apply(count)

    def heights(self) -> np.ndarray:
        """Merge heights in ascending order."""
        return np.sort(self.merges[:, 2])

    def _apply(self, count: int) -> np.ndarray:
        parent = np.arange(self.n, dtype=np.int64)

        def find(x: int) -> int:
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        order = np.argsort(self.merges[:, 2], kind="stable")
        for step in order[:count]:
            a, b = int(self.merges[step, 0]), int(self.merges[step, 1])
            parent[find(a)] = find(b)
        roots = np.array([find(i) for i in range(self.n)], dtype=np.int64)
        _, labels = np.unique(roots, return_inverse=True)
        return labels.astype(np.int64)


def _lance_williams_row(
    method: str,
    d_a: np.ndarray,
    d_b: np.ndarray,
    d_ab: float,
    size_a: int,
    size_b: int,
    sizes: np.ndarray,
) -> np.ndarray:
    """Distance from the merged cluster (a ∪ b) to every other cluster."""
    if method == "single":
        return np.minimum(d_a, d_b)
    if method == "complete":
        return np.maximum(d_a, d_b)
    if method == "average":
        return (size_a * d_a + size_b * d_b) / (size_a + size_b)
    if method == "ward":
        total = size_a + size_b + sizes
        return ((size_a + sizes) * d_a + (size_b + sizes) * d_b - sizes * d_ab) / total
    raise ValueError(f"unknown linkage method {method!r}; use one of {_METHODS}")


def linkage(
    points: np.ndarray | None = None,
    method: str = "average",
    distances: np.ndarray | None = None,
) -> LinkageResult:
    """Build the full dendrogram of the data under the given linkage.

    Provide either ``points`` (an ``(n, d)`` matrix; Euclidean geometry) or
    a precomputed symmetric ``distances`` matrix.  Ward requires points
    (its recurrence is only exact for squared Euclidean distances).
    """
    if method not in _METHODS:
        raise ValueError(f"unknown linkage method {method!r}; use one of {_METHODS}")
    if (points is None) == (distances is None):
        raise ValueError("provide exactly one of points or distances")
    if distances is not None:
        if method == "ward":
            raise ValueError("ward linkage requires points, not a distance matrix")
        D = np.array(distances, dtype=np.float64)
        if D.ndim != 2 or D.shape[0] != D.shape[1]:
            raise ValueError("distances must be a square matrix")
    else:
        pts = np.asarray(points, dtype=np.float64)
        if method == "ward":
            D = squared_euclidean(pts, pts)
            np.fill_diagonal(D, 0.0)
        else:
            D = euclidean_matrix(pts)
    n = D.shape[0]
    if n == 1:
        return LinkageResult(np.empty((0, 3), dtype=np.float64), 1, method)

    np.fill_diagonal(D, np.inf)
    active = np.ones(n, dtype=bool)
    sizes = np.ones(n, dtype=np.int64)
    merges = np.empty((n - 1, 3), dtype=np.float64)
    chain: list[int] = []
    merged = 0
    while merged < n - 1:
        if not chain:
            chain.append(int(np.flatnonzero(active)[0]))
        while True:
            a = chain[-1]
            row = np.where(active, D[a], np.inf)
            row[a] = np.inf
            b = int(np.argmin(row))
            # Prefer the chain predecessor on ties — required for the
            # reciprocal-pair detection of the NN-chain algorithm.
            if len(chain) >= 2 and row[chain[-2]] <= row[b]:
                b = chain[-2]
            if len(chain) >= 2 and b == chain[-2]:
                height = float(D[a, b])
                merges[merged] = (a, b, height)
                merged += 1
                # Merge b into a.
                other = active.copy()
                other[a] = other[b] = False
                idx = np.flatnonzero(other)
                D[a, idx] = _lance_williams_row(
                    method, D[a, idx], D[b, idx], height, int(sizes[a]), int(sizes[b]), sizes[idx]
                )
                D[idx, a] = D[a, idx]
                D[a, a] = np.inf
                # b's row and column stay as they are: every read masks
                # with ``active`` or indexes active clusters only.
                sizes[a] += sizes[b]
                active[b] = False
                chain.pop()
                chain.pop()
                break
            chain.append(b)
    return LinkageResult(merges, n, method)


def hierarchical(
    points: np.ndarray,
    k: int,
    method: str = "average",
) -> np.ndarray:
    """Convenience wrapper: flat ``k``-cluster labels of ``points``."""
    return linkage(points, method=method).cut(k)
