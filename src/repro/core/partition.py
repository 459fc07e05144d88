"""Partitions of a finite object set.

The central data structure of the library is :class:`Clustering`, an
immutable partition of ``n`` objects ``{0, ..., n-1}`` into ``k`` disjoint
clusters.  Internally a clustering is a dense integer label vector; labels
are canonicalized to ``0..k-1`` in order of first appearance so that two
clusterings that induce the same partition compare (and hash) equal even if
they were built with different label names.

The paper ("Clustering Aggregation", Gionis et al., ICDE 2005) denotes a
clustering by ``C`` and writes ``C(v)`` for the cluster label of object
``v``; :meth:`Clustering.label_of` mirrors that notation.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from ..analysis.contracts import check_canonical_labels, contracts_enabled
from .kernels import label_codes

__all__ = ["Clustering"]


def _canonicalize(labels: np.ndarray) -> np.ndarray:
    """Relabel non-negative ``labels`` to int32 ``0..k-1`` in order of first appearance.

    :func:`~repro.core.kernels.label_codes` gives each label a code below
    ``n`` (the labels themselves when they are, ``np.unique`` ranks
    otherwise); the first appearance of each code comes from one pass,
    and only the ``k`` codes present are sorted by it.
    """
    codes, arity = label_codes(labels)
    first = np.full(arity, labels.size, dtype=np.int64)
    np.minimum.at(first, codes, np.arange(labels.size))
    present = np.flatnonzero(first < labels.size)
    canonical = np.zeros(arity, dtype=np.int32)
    canonical[present[np.argsort(first[present])]] = np.arange(present.size, dtype=np.int32)
    return canonical[codes]


class Clustering:
    """An immutable partition of the objects ``0..n-1``.

    Parameters
    ----------
    labels:
        A sequence of ``n`` integer cluster labels, one per object.  Any
        integer values are accepted; they are canonicalized internally.

    Examples
    --------
    >>> c = Clustering([5, 5, 9, 9, 2])
    >>> c.n, c.k
    (5, 3)
    >>> c.labels.tolist()
    [0, 0, 1, 1, 2]
    >>> c == Clustering([1, 1, 0, 0, 7])
    True
    """

    __slots__ = ("_labels", "_k", "_hash")

    def __init__(self, labels: Sequence[int] | np.ndarray) -> None:
        arr = np.asarray(labels)
        if arr.ndim != 1:
            raise ValueError(f"labels must be one-dimensional, got shape {arr.shape}")
        if arr.size == 0:
            raise ValueError("a clustering must contain at least one object")
        if not np.issubdtype(arr.dtype, np.integer):
            raise TypeError(f"labels must be integers, got dtype {arr.dtype}")
        if np.any(arr < 0):
            raise ValueError(
                "negative labels are not allowed in a Clustering; use a label "
                "matrix with -1 entries (repro.core.labels) for missing values"
            )
        canonical = _canonicalize(arr)
        canonical.setflags(write=False)
        if contracts_enabled():
            check_canonical_labels(canonical)
        self._labels = canonical
        self._k = int(canonical.max()) + 1
        self._hash: int | None = None

    # ------------------------------------------------------------------
    # Alternative constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_clusters(cls, clusters: Iterable[Iterable[int]], n: int | None = None) -> "Clustering":
        """Build a clustering from an iterable of clusters (index sets).

        The clusters must be disjoint and must cover ``0..n-1``.  If ``n``
        is omitted it is inferred as ``max index + 1``.
        """
        groups = [np.asarray(sorted(group), dtype=np.int64) for group in clusters]
        if not groups or any(g.size == 0 for g in groups):
            raise ValueError("clusters must be non-empty")
        all_members = np.concatenate(groups)
        if n is None:
            n = int(all_members.max()) + 1
        labels = np.full(n, -1, dtype=np.int64)
        for cluster_id, group in enumerate(groups):
            if group.min() < 0 or group.max() >= n:
                raise ValueError(f"cluster member out of range 0..{n - 1}")
            if np.any(labels[group] != -1):
                raise ValueError("clusters overlap: some object appears twice")
            labels[group] = cluster_id
        if np.any(labels == -1):
            missing = np.flatnonzero(labels == -1)[:5].tolist()
            raise ValueError(f"clusters do not cover all objects; e.g. missing {missing}")
        return cls(labels)

    @classmethod
    def singletons(cls, n: int) -> "Clustering":
        """The all-singletons partition of ``n`` objects."""
        return cls(np.arange(n, dtype=np.int64))

    @classmethod
    def single_cluster(cls, n: int) -> "Clustering":
        """The one-cluster partition of ``n`` objects."""
        return cls(np.zeros(n, dtype=np.int64))

    @classmethod
    def random(cls, n: int, k: int, rng: np.random.Generator | int | None = None) -> "Clustering":
        """A uniformly random label assignment of ``n`` objects into at most ``k`` clusters."""
        if k < 1:
            raise ValueError("k must be at least 1")
        generator = np.random.default_rng(rng)
        return cls(generator.integers(0, k, size=n))

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def labels(self) -> np.ndarray:
        """The canonical (read-only) label vector, values in ``0..k-1``."""
        return self._labels

    @property
    def n(self) -> int:
        """Number of objects."""
        return int(self._labels.size)

    @property
    def k(self) -> int:
        """Number of clusters."""
        return self._k

    def label_of(self, v: int) -> int:
        """The cluster label ``C(v)`` of object ``v``."""
        return int(self._labels[v])

    def sizes(self) -> np.ndarray:
        """Cluster sizes indexed by cluster label."""
        return np.bincount(self._labels, minlength=self._k)

    def members(self, cluster: int) -> np.ndarray:
        """Indices of the objects in the given cluster."""
        if not 0 <= cluster < self._k:
            raise IndexError(f"cluster {cluster} out of range 0..{self._k - 1}")
        return np.flatnonzero(self._labels == cluster)

    def clusters(self) -> list[np.ndarray]:
        """All clusters as a list of index arrays, ordered by label."""
        order = np.argsort(self._labels, kind="stable")
        boundaries = np.searchsorted(self._labels[order], np.arange(1, self._k))
        return np.split(order, boundaries)

    def to_sets(self) -> list[frozenset[int]]:
        """All clusters as frozensets of ints (convenient for tests)."""
        return [frozenset(map(int, group)) for group in self.clusters()]

    # ------------------------------------------------------------------
    # Derived clusterings
    # ------------------------------------------------------------------

    def restrict(self, indices: Sequence[int] | np.ndarray) -> "Clustering":
        """The induced clustering on a subset of objects.

        Object ``i`` of the result corresponds to ``indices[i]`` of the
        original clustering; empty clusters are dropped.
        """
        idx = np.asarray(indices)
        return Clustering(self._labels[idx])

    def merge_clusters(self, a: int, b: int) -> "Clustering":
        """A new clustering with clusters ``a`` and ``b`` merged."""
        if a == b:
            raise ValueError("cannot merge a cluster with itself")
        labels = self._labels.copy()
        labels[labels == b] = a
        return Clustering(labels)

    def same_cluster(self, u: int, v: int) -> bool:
        """Whether objects ``u`` and ``v`` are co-clustered."""
        return bool(self._labels[u] == self._labels[v])

    def meet(self, other: "Clustering") -> "Clustering":
        """The coarsest common refinement (lattice meet) of two partitions.

        Two objects are co-clustered in the meet iff both partitions
        co-cluster them.  The meet of all input clusterings gives the
        "atoms" that no input ever separates.
        """
        if other.n != self.n:
            raise ValueError("partitions must cover the same objects")
        combined = self._labels.astype(np.int64) * other.k + other._labels
        return Clustering(combined)

    def join(self, other: "Clustering") -> "Clustering":
        """The finest common coarsening (lattice join) of two partitions.

        Two objects are co-clustered in the join iff they are connected by
        a chain of co-clusterings alternating between the two partitions
        (union-find over the bipartite cluster graph).
        """
        if other.n != self.n:
            raise ValueError("partitions must cover the same objects")
        # Union-find over cluster ids: self's clusters are 0..k1-1, other's
        # are k1..k1+k2-1; every object links its two clusters.
        total = self.k + other.k
        parent = np.arange(total, dtype=np.int64)

        def find(x: int) -> int:
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        for mine, theirs in zip(self._labels, other._labels):
            parent[find(int(mine))] = find(self.k + int(theirs))
        roots = np.array([find(int(label)) for label in self._labels], dtype=np.int64)
        return Clustering(roots)

    # ------------------------------------------------------------------
    # Equality / hashing / repr
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Clustering):
            return NotImplemented
        return self._labels.shape == other._labels.shape and bool(
            np.array_equal(self._labels, other._labels)
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._labels.tobytes())
        return self._hash

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        preview = ", ".join(map(str, self._labels[:8]))
        suffix = ", ..." if self.n > 8 else ""
        return f"Clustering(n={self.n}, k={self.k}, labels=[{preview}{suffix}])"
