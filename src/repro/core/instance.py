"""Correlation-clustering instances (Problem 2 of the paper).

A correlation-clustering instance over ``n`` objects is a symmetric matrix
``X`` with entries in ``[0, 1]`` and zero diagonal.  ``X[u, v]`` is the
*distance* between ``u`` and ``v``; a candidate clustering ``C`` pays
``X[u, v]`` for every co-clustered pair and ``1 - X[u, v]`` for every
separated pair:

    d(C) = sum_{C(u) = C(v)} X_uv  +  sum_{C(u) != C(v)} (1 - X_uv)

(unordered pairs).  An instance built from ``m`` input clusterings sets
``X[u, v]`` to the fraction of clusterings separating ``u`` and ``v``, so
that the aggregation objective satisfies ``D(C) = m * d(C)`` and the two
problems coincide.  Such instances obey the triangle inequality, which the
BALLS analysis exploits.

Missing entries in the label matrix follow the coin-flip model of Section
2: a clustering missing ``u`` or ``v`` reports the pair co-clustered with
probability ``p``, contributing ``1 - p`` to ``X[u, v]`` in expectation.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from ..analysis.contracts import check_distance_matrix, contracts_enabled
from ..obs.metrics import inc
from ..obs.profile import phase
from .backend import (
    DenseBackend,
    LazyLabelBackend,
    PairDistanceBackend,
    check_matrix_fits,
    grid_blocks,
    resolve_backend,
)
from .distance import total_disagreement
from .kernels import check_missing_model, default_dtype, distance_block
from .labels import MISSING, as_label_matrix, check_weights, validate_label_matrix
from .partition import Clustering

__all__ = ["CorrelationInstance", "LabelSource", "disagreement_fractions"]


class LabelSource(NamedTuple):
    """The label matrix and §2 missing-value model an instance was built from."""

    matrix: np.ndarray
    p: float
    missing: str


def disagreement_fractions(
    matrix: np.ndarray,
    p: float = 0.5,
    dtype: np.dtype | type | None = None,
    missing: str = "coin-flip",
) -> np.ndarray:
    """The ``X`` matrix of pairwise disagreement fractions of a label matrix.

    ``X[u, v]`` is the (expected) fraction of the ``m`` columns that place
    ``u`` and ``v`` in different clusters.  Missing entries follow one of
    the two strategies of the paper's §2:

    * ``missing="coin-flip"`` (default, the paper's choice): a clustering
      missing either object reports the pair co-clustered with probability
      ``p``, contributing ``1 - p`` in expectation; the denominator stays
      ``m``.
    * ``missing="average"``: "let the remaining attributes decide" — only
      columns concrete on *both* objects are counted, and the fraction is
      taken over those; a pair with no commonly-concrete column gets the
      uninformative 0.5.

    Computed on the :func:`~repro.core.backend.grid_blocks` row grid,
    each block's kernel call writing straight into its rows of ``X``;
    defaults to float64 up to 4096 objects and float32 beyond.  Raises
    ``ValueError`` before allocating when ``X`` would exceed physical
    memory (:func:`~repro.core.backend.check_matrix_fits`).  The build is
    serial: each block is one kernel call, on the product path one BLAS
    product whose threads use every core.
    """
    matrix = np.asarray(matrix)
    validate_label_matrix(matrix)
    check_missing_model(p, missing)
    n = matrix.shape[0]
    np_dtype = default_dtype(n) if dtype is None else np.dtype(dtype)
    check_matrix_fits(n, np_dtype)
    X = np.empty((n, n), dtype=np_dtype)
    for start, stop in grid_blocks(n):
        rows = slice(start, stop)
        distance_block(matrix, rows, p=p, dtype=np_dtype, missing=missing, out=X[rows])
    return X


class CorrelationInstance:
    """A correlation-clustering input: symmetric pairwise distances in [0, 1].

    Construct with :meth:`from_clusterings` / :meth:`from_label_matrix` for
    aggregation problems, or :meth:`from_distances` for a raw correlation
    instance.  ``m`` records how many input clusterings produced the
    instance (``None`` for raw instances); when known, costs convert to
    aggregation disagreements via :meth:`disagreements`.

    Pairwise distances are held by a :class:`~repro.core.backend.PairDistanceBackend`:
    either a :class:`~repro.core.backend.DenseBackend` over a materialized
    ``X`` (the default) or a :class:`~repro.core.backend.LazyLabelBackend`
    computing row blocks on demand from the label matrix (see
    :meth:`lazy_from_label_matrix`), which keeps memory at O(n * m) for
    large ``n``.  On lazy instances the :attr:`X` property raises; go
    through :attr:`backend` instead.  Instances built from labels, on
    either backend, keep their :attr:`label_source`, from which
    :meth:`cost` reads ``D(C)`` without a pass over ``X``.
    """

    __slots__ = ("_backend", "_m", "_weights", "_effective_weights", "_source")

    def __init__(
        self,
        distances: np.ndarray | None = None,
        m: int | None = None,
        validate: bool = True,
        weights: np.ndarray | None = None,
        backend: PairDistanceBackend | None = None,
        source: LabelSource | None = None,
    ) -> None:
        if backend is None:
            if distances is None:
                raise ValueError("provide either a distance matrix or a backend")
            X = np.asarray(distances)
            if validate:
                self._validate(X)
            elif contracts_enabled():
                # Fast construction paths skip validation; in debug mode the
                # contract layer re-checks the §3 shape invariants anyway.
                check_distance_matrix(X)
            backend = DenseBackend(X)
        elif distances is not None:
            raise ValueError("distances and backend are mutually exclusive")
        elif contracts_enabled() and isinstance(backend, DenseBackend):
            # Lazy backends have no matrix to check; dense ones keep the
            # same debug-mode invariant check as the matrix constructor.
            check_distance_matrix(backend.dense())
        self._backend = backend
        if m is not None and m < 1:
            raise ValueError("m must be a positive count of input clusterings")
        self._m = m
        if weights is not None:
            weights = check_weights(weights, backend.n)
            if np.any(weights < 1):
                raise ValueError("weights must be >= 1 (duplicate multiplicities)")
        self._weights = weights
        self._effective_weights: np.ndarray | None = None
        self._source = source

    @staticmethod
    def _validate(X: np.ndarray) -> None:
        if X.ndim != 2 or X.shape[0] != X.shape[1]:
            raise ValueError(f"distance matrix must be square, got shape {X.shape}")
        if X.shape[0] == 0:
            raise ValueError("instance must contain at least one object")
        if not np.issubdtype(X.dtype, np.floating):
            raise TypeError(f"distances must be floating point, got {X.dtype}")
        if np.any(np.diagonal(X) != 0):
            raise ValueError("distance matrix must have a zero diagonal")
        # Tolerate float32 rounding when checking symmetry and range.
        if not np.allclose(X, X.T, atol=1e-6):
            raise ValueError("distance matrix must be symmetric")
        if float(X.min()) < -1e-9 or float(X.max()) > 1 + 1e-6:
            raise ValueError("distances must lie in [0, 1]")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_label_matrix(
        cls,
        matrix: np.ndarray,
        p: float = 0.5,
        dtype: np.dtype | type | None = None,
        missing: str = "coin-flip",
        weights: np.ndarray | None = None,
        n_jobs: int | None = 1,
        backend: str = "dense",
    ) -> "CorrelationInstance":
        """Build the aggregation instance of an ``(n, m)`` label matrix.

        ``missing`` selects the §2 missing-value strategy; note that with
        ``"average"`` the per-pair denominators differ, so the exact
        identity ``D(C) = m * d(C)`` holds only for ``"coin-flip"``.
        ``weights`` gives per-row multiplicities for duplicate-collapsed
        (atom) instances — see :mod:`repro.core.atoms`.  ``n_jobs`` is
        checked like every worker count (:func:`repro.parallel.resolve_jobs`)
        but changes nothing: the build is serial, each block one BLAS
        product, and the parameter stays only for callers that still pass
        it.  ``backend`` selects the pair-distance storage: ``"dense"``
        materializes ``X`` now, ``"lazy"`` defers to on-demand row blocks
        (O(n * m) memory), and ``"auto"`` picks lazy above
        :func:`repro.core.backend.lazy_threshold` objects.
        """
        from ..parallel.workers import resolve_jobs

        resolve_jobs(n_jobs)
        matrix = np.asarray(matrix)
        validate_label_matrix(matrix)
        if resolve_backend(backend, int(matrix.shape[0])) == "lazy":
            return cls.lazy_from_label_matrix(
                matrix, p=p, dtype=dtype, missing=missing, weights=weights
            )
        with phase("instance.build", rows=int(matrix.shape[0]), m=int(matrix.shape[1])):
            X = disagreement_fractions(matrix, p=p, dtype=dtype, missing=missing)
        inc("instance.builds")
        inc("instance.build.rows", float(matrix.shape[0]))
        source = LabelSource(matrix, float(p), missing)
        instance = cls(X, m=matrix.shape[1], validate=False, weights=weights, source=source)
        if (
            contracts_enabled()
            and missing == "coin-flip"
            and (p == 0.5 or not np.any(matrix == MISSING))
        ):
            # Aggregation instances are metric (§3, Observation 1).  The
            # "average" strategy and off-center coin flips (p != 0.5 with
            # missing entries) can legitimately break the triangle
            # inequality, so the contract is scoped to the metric cases.
            check_distance_matrix(
                X, check_triangle=True, context="CorrelationInstance.from_label_matrix"
            )
        return instance

    @classmethod
    def lazy_from_label_matrix(
        cls,
        matrix: np.ndarray,
        p: float = 0.5,
        dtype: np.dtype | type | None = None,
        missing: str = "coin-flip",
        weights: np.ndarray | None = None,
    ) -> "CorrelationInstance":
        """Build a label-backed instance that never materializes ``X``.

        Stores only the ``(n, m)`` label matrix and computes distance row
        blocks on demand through a :class:`~repro.core.backend.LazyLabelBackend`
        (same missing-value model and dtype rules as the dense build, and
        bitwise-identical entries).  Memory stays O(n * m) plus a small
        LRU cache of row blocks, which is what lets BALLS and SAMPLING run
        at n = 50k-100k where the dense matrix cannot be allocated.
        """
        lazy = LazyLabelBackend(matrix, p=p, dtype=dtype, missing=missing)
        inc("instance.builds")
        inc("instance.build.rows", float(lazy.n))
        source = LabelSource(lazy.label_matrix, lazy.p, lazy.missing)
        return cls(m=lazy.m, weights=weights, backend=lazy, source=source)

    @classmethod
    def from_clusterings(
        cls, clusterings: Sequence[Clustering | Sequence[int] | np.ndarray], p: float = 0.5
    ) -> "CorrelationInstance":
        """Build the aggregation instance of ``m`` clusterings."""
        return cls.from_label_matrix(as_label_matrix(clusterings), p=p)

    @classmethod
    def from_distances(cls, distances: np.ndarray) -> "CorrelationInstance":
        """Wrap a precomputed symmetric distance matrix (validated)."""
        return cls(np.asarray(distances, dtype=np.float64))

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def X(self) -> np.ndarray:
        """The pairwise distance matrix (do not mutate).

        Only available on dense-backed instances; lazy instances raise
        ``RuntimeError`` — use :attr:`backend` (blocked access) or
        ``backend.materialize()`` instead.
        """
        return self._backend.dense()

    @property
    def backend(self) -> PairDistanceBackend:
        """The pair-distance backend serving this instance's ``X`` entries."""
        return self._backend

    @property
    def n(self) -> int:
        """Number of objects."""
        return self._backend.n

    @property
    def m(self) -> int | None:
        """Number of source clusterings, if the instance is an aggregation."""
        return self._m

    @property
    def label_source(self) -> LabelSource | None:
        """The ``(matrix, p, missing)`` of a label-built instance (``None`` for raw
        distances).  ``matrix`` is the array the instance was built from, not
        a copy: mutating it afterwards desynchronizes it from ``X``.  A
        label-built ``X`` is bitwise symmetric."""
        return self._source

    @property
    def weights(self) -> np.ndarray | None:
        """Per-object multiplicities for atom instances (``None`` = all 1)."""
        return self._weights

    def effective_weights(self) -> np.ndarray:
        """Multiplicities as an array (ones when unweighted; do not mutate).

        The unweighted ones-vector is cached on first use — BALLS and
        SAMPLING call this inside their hot loops.
        """
        if self._weights is not None:
            return self._weights
        if self._effective_weights is None:
            self._effective_weights = np.ones(self.n, dtype=np.float64)
        return self._effective_weights

    def subinstance(self, indices: Sequence[int] | np.ndarray) -> "CorrelationInstance":
        """The induced instance on a subset of the objects.

        Preserves the backend flavor: a lazy instance yields a lazy
        sub-instance over the sliced label matrix (bitwise equal to
        slicing the dense matrix).
        """
        idx = np.asarray(indices)
        weights = None if self._weights is None else self._weights[idx]
        source = self._source
        if source is not None:
            source = source._replace(matrix=source.matrix[idx])
        return CorrelationInstance(
            m=self._m, weights=weights, backend=self._backend.take(idx), source=source
        )

    # ------------------------------------------------------------------
    # Objective
    # ------------------------------------------------------------------

    def cost(self, clustering: Clustering | np.ndarray) -> float:
        """The correlation-clustering cost ``d(C)`` of a candidate clustering.

        A label array is taken as ``Clustering(labels)``, so it must hold
        ``n`` non-negative integers.  An instance built from labels under
        the coin-flip model returns ``D(C) / m`` with ``D(C)`` the
        label-native objective :func:`~repro.core.distance.total_disagreement`,
        ``O(n m)`` on either backend and never reading ``X``, since there
        ``D(C) = m * d(C)`` (§2–3).  Raw distance instances, and
        ``missing="average"`` ones (whose ``X`` breaks ``D = m d``), take
        the blocked pass :meth:`~repro.core.backend.PairDistanceBackend.cost`
        over ``X``.  On weighted (atom) instances every pair ``(u, v)``
        counts ``w_u * w_v`` times and intra-atom pairs contribute zero,
        which is the cost of the same clustering on the expanded
        (duplicate-bearing) instance.
        """
        return self._score(clustering)[0]

    def disagreements(self, clustering: Clustering | np.ndarray) -> float:
        """The aggregation objective ``D(C) = m * d(C)`` (requires known ``m``).

        On a coin-flip label-built instance this is
        :func:`~repro.core.distance.total_disagreement` itself, not ``m``
        times its quotient by ``m``; elsewhere it is ``m * cost(C)``.
        """
        if self._m is None:
            raise ValueError("instance was not built from clusterings; m is unknown")
        return self._score(clustering)[1]

    def _score(self, clustering: Clustering | np.ndarray) -> tuple[float, float | None]:
        """``(d(C), D(C))`` from one scoring pass; ``D`` is ``None`` when ``m`` is unknown."""
        if not isinstance(clustering, Clustering):
            clustering = Clustering(clustering)
        if clustering.n != self.n:
            raise ValueError("clustering size must match the instance size")
        source = self._source
        if source is not None and source.missing == "coin-flip":
            disagreements = total_disagreement(source.matrix, clustering, source.p, self._weights)
            return disagreements / source.matrix.shape[1], disagreements
        cost = self._backend.cost(clustering.labels, self._weights)
        return cost, None if self._m is None else self._m * cost

    def lower_bound(self) -> float:
        """Pairwise lower bound ``sum_{u<v} min(X_uv, 1 - X_uv)`` on ``d(C)``.

        Every clustering pays at least ``min(X, 1-X)`` per pair, so this
        bounds the optimum from below (the paper's "Lower bound" table
        rows, after multiplying by ``m`` via :meth:`disagreement_lower_bound`).
        Accumulated in row blocks through the backend — no full-matrix
        temporary.
        """
        return self._backend.lower_bound(self._weights)

    def disagreement_lower_bound(self) -> float:
        """Lower bound on ``D(C)`` for aggregation instances (``m * lower_bound``)."""
        if self._m is None:
            raise ValueError("instance was not built from clusterings; m is unknown")
        return self._m * self.lower_bound()

    def max_triangle_violation(self) -> float:
        """Largest ``X_uw - X_uv - X_vw`` over all triples (<= 0 means metric).

        Exhaustive over triples; intended for tests and small instances.
        """
        X = self._backend.materialize(np.float64)
        worst = -np.inf
        for v in range(self.n):
            # violation for (u, w) through v: X[u, w] - X[u, v] - X[v, w]
            through_v = X - X[:, v][:, None] - X[v, :][None, :]
            np.fill_diagonal(through_v, -np.inf)
            through_v[v, :] = -np.inf
            through_v[:, v] = -np.inf
            worst = max(worst, float(through_v.max()))
        return worst

    def __repr__(self) -> str:
        origin = f", m={self._m}" if self._m is not None else ""
        return f"CorrelationInstance(n={self.n}{origin})"
