"""Pair-distance backends: dense and lazy label-backed access to ``X``.

The correlation-clustering stack historically read a fully materialized
``(n, n)`` distance matrix, which caps instance size at whatever O(n^2)
floats fit in memory.  Since an aggregation instance's ``X[u, v]`` is a
cheap function of the ``(n, m)`` label matrix (``m`` ≪ ``n``), the matrix
can instead be treated as an implicit oracle and computed in row blocks on
demand.  This module provides that seam:

* :class:`PairDistanceBackend` — the narrow kernel API every consumer of
  pairwise distances goes through: ``row_block`` / ``row`` / ``gather`` /
  ``gather_block`` / ``columns`` plus blocked reductions (``matvec``,
  ``total_mass``, ``cost``, ``lower_bound``, ``argmax_entry``) that never
  allocate a full-matrix temporary.
* :class:`DenseBackend` — wraps a materialized ``X`` (today's behaviour).
* :class:`LazyLabelBackend` — computes row blocks on demand from the
  stored label matrix via the same :mod:`repro.core.kernels` kernel used
  by the batch build (same missing-value model, same dtype rules), with a
  small LRU cache of grid-aligned blocks.

Bit-identity guarantee: the kernel accumulates every element over the
``m`` label columns in the same order regardless of row tiling, so lazy
blocks are bitwise equal to the corresponding rows of the batch-built
``X``.  All blocked reductions live on the base class and iterate one
deterministic block grid (:func:`reduction_block_rows`, a function of
``n`` only), so their floating-point accumulation order — and therefore
their results — are bitwise identical between the two backends.

The lazy backend overrides ``matvec`` and ``lower_bound`` with
label-native forms (count tables, distinct rows) only where
:func:`repro.core.kernels._exact_reductions` holds.  There every entry,
product and partial sum is exact, so the blocked pass's result does not
depend on its order: the count tables and the distinct rows reach the
same bits, and dense and lazy stay bitwise equal.  Everywhere else the
lazy backend runs the blocked pass.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from collections.abc import Iterator, Sequence

import numpy as np

from ..obs.profile import phase
from .kernels import (
    MISSING,
    _exact_reductions,
    check_missing_model,
    default_dtype,
    distance_block,
    label_codes,
    label_histogram,
    separation_mass,
)
from .labels import validate_label_matrix

__all__ = [
    "CACHE_BLOCKS",
    "DEFAULT_LAZY_THRESHOLD",
    "DenseBackend",
    "LazyLabelBackend",
    "PairDistanceBackend",
    "check_matrix_fits",
    "grid_blocks",
    "lazy_threshold",
    "reduction_block_rows",
    "resolve_backend",
]

#: ``auto`` backend selection flips to lazy above this many objects.
DEFAULT_LAZY_THRESHOLD = 10_000

#: Environment variable overriding :data:`DEFAULT_LAZY_THRESHOLD`.
LAZY_THRESHOLD_ENV_VAR = "REPRO_LAZY_THRESHOLD"

#: Cap on the per-block temporary: blocks hold about this many entries.
_BLOCK_ENTRIES = 1 << 22

#: Capacity of the lazy backend's LRU cache, in grid blocks.
CACHE_BLOCKS = 8

#: Longest leaf of the lower bound's pairwise sum: a 512 KiB float64 scratch.
_LEAF_ENTRIES = 1 << 16


def reduction_block_rows(n: int) -> int:
    """The deterministic row-block height used by every blocked reduction.

    A function of ``n`` only, so :class:`DenseBackend` and
    :class:`LazyLabelBackend` walk the same grid and accumulate partial
    sums in the same order — the root of the backends' bitwise-identical
    reductions.  Sized to keep an ``O(block * n)`` float64 temporary at
    roughly 32 MB.
    """
    return max(64, min(2048, _BLOCK_ENTRIES // max(1, n)))


def grid_blocks(n: int) -> Iterator[tuple[int, int]]:
    """The ``(start, stop)`` row blocks of the :func:`reduction_block_rows` grid.

    The one row tiling of ``X``: the dense build, the streaming update,
    the lazy cache and every blocked reduction walk it.
    """
    step = reduction_block_rows(n)
    for start in range(0, n, step):
        yield start, min(start + step, n)


def _physical_memory() -> int | None:
    """Bytes of physical memory, or ``None`` where ``os.sysconf`` cannot tell."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def check_matrix_fits(n: int, dtype: np.dtype | type) -> None:
    """Raise ``ValueError`` when an ``(n, n)`` array of ``dtype`` exceeds physical memory.

    Checked before the dense build allocates ``X`` and before a backend
    copies it, so an oversized run fails with a message instead of being
    killed by the operating system.
    """
    need = n * n * np.dtype(dtype).itemsize
    memory = _physical_memory()
    if memory is not None and need > memory:
        raise ValueError(
            f"an ({n}, {n}) {np.dtype(dtype).name} distance matrix needs {need:,} bytes, "
            f"more than the {memory:,} bytes of physical memory; the methods that scale "
            "without it are 'sampling', 'pivot' and 'sharded'"
        )


def _pairwise_min_sum(rows: np.ndarray) -> float:
    """``np.minimum(rows, 1 - rows).astype(np.float64).sum()`` without a block-sized temporary.

    numpy sums a contiguous float64 array pairwise over its flattened
    length: a run of more than 128 entries splits at half its length,
    rounded down to a multiple of 8, and each part is summed the same way.
    :func:`_tree_sum` walks that tree down to leaves of at most
    :data:`_LEAF_ENTRIES`, computes each leaf into a small scratch (cast
    to float64 there) and adds the leaf sums back up the tree: the bits
    of the block's sum.
    """
    flat = rows.ravel(order="K")
    size = min(flat.size, _LEAF_ENTRIES)
    scratch = np.empty(size, dtype=flat.dtype)
    wide = scratch if flat.dtype == np.float64 else np.empty(size, dtype=np.float64)
    return _tree_sum(flat, 0, flat.size, scratch, wide)


def _tree_sum(
    flat: np.ndarray, start: int, stop: int, scratch: np.ndarray, wide: np.ndarray
) -> float:
    length = stop - start
    if length > _LEAF_ENTRIES:
        half = length // 2
        half -= half % 8
        middle = start + half
        return _tree_sum(flat, start, middle, scratch, wide) + _tree_sum(
            flat, middle, stop, scratch, wide
        )
    part = flat[start:stop]
    leaf = scratch[:length]
    np.subtract(flat.dtype.type(1.0), part, out=leaf)
    np.minimum(part, leaf, out=leaf)
    if wide is not scratch:
        wide[:length] = leaf
        leaf = wide[:length]
    return float(leaf.sum())


def lazy_threshold() -> int:
    """The ``n`` above which ``backend="auto"`` selects the lazy backend.

    Defaults to :data:`DEFAULT_LAZY_THRESHOLD`; override with the
    ``REPRO_LAZY_THRESHOLD`` environment variable.
    """
    raw = os.environ.get(LAZY_THRESHOLD_ENV_VAR)
    if raw is None:
        return DEFAULT_LAZY_THRESHOLD
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(
            f"{LAZY_THRESHOLD_ENV_VAR} must be an integer, got {raw!r}"
        ) from exc
    if value < 0:
        raise ValueError(f"{LAZY_THRESHOLD_ENV_VAR} must be >= 0, got {value}")
    return value


def resolve_backend(backend: str, n: int) -> str:
    """Resolve a ``{"auto", "dense", "lazy"}`` choice to a concrete backend."""
    if backend not in ("auto", "dense", "lazy"):
        raise ValueError(f"backend must be 'auto', 'dense' or 'lazy', got {backend!r}")
    if backend == "auto":
        return "lazy" if n > lazy_threshold() else "dense"
    return backend


class PairDistanceBackend:
    """Blocked access to a symmetric pair-distance matrix ``X``.

    Subclasses provide the storage primitives (``row_block`` and friends);
    the base class implements every whole-matrix reduction against those
    blocks on the shared :func:`reduction_block_rows` grid, so no
    reduction ever allocates an ``O(n^2)`` temporary and all reductions
    are bitwise identical across backends.

    Returned blocks and rows may be views or cached arrays — treat them
    as read-only.
    """

    # ------------------------------------------------------------------
    # Storage primitives (subclass responsibility)
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of objects."""
        raise NotImplementedError

    @property
    def dtype(self) -> np.dtype:
        """Element dtype of the distance entries."""
        raise NotImplementedError

    @property
    def name(self) -> str:
        """Backend identifier: ``"dense"`` or ``"lazy"``."""
        raise NotImplementedError

    def row_block(self, start: int, stop: int) -> np.ndarray:
        """Rows ``[start, stop)`` of ``X`` as a ``(stop - start, n)`` array."""
        raise NotImplementedError

    def row(self, u: int) -> np.ndarray:
        """Row ``u`` of ``X`` as an ``(n,)`` array."""
        return self.row_block(u, u + 1)[0]

    def gather(self, u: int, idx: np.ndarray | Sequence[int]) -> np.ndarray:
        """``X[u, idx]`` for an index array ``idx``."""
        return self.row(u)[np.asarray(idx)]

    def gather_block(
        self, rows: np.ndarray | Sequence[int], cols: np.ndarray | Sequence[int]
    ) -> np.ndarray:
        """``X[np.ix_(rows, cols)]`` for arbitrary index arrays."""
        raise NotImplementedError

    def columns(self, idx: np.ndarray | Sequence[int]) -> np.ndarray:
        """``X[:, idx]`` — by symmetry, the transposed row gather."""
        raise NotImplementedError

    def take(self, idx: np.ndarray | Sequence[int]) -> "PairDistanceBackend":
        """The backend of the induced sub-instance on ``idx``."""
        raise NotImplementedError

    def dense(self) -> np.ndarray:
        """The materialized matrix when one already exists (dense only)."""
        raise RuntimeError(
            f"the {self.name!r} backend holds no materialized matrix; "
            "use row_block()/materialize() or rebuild with backend='dense'"
        )

    def materialize(self, dtype: np.dtype | type | None = None, copy: bool = False) -> np.ndarray:
        """The full ``(n, n)`` matrix in ``dtype`` (default :attr:`dtype`).

        Only call when the consumer genuinely needs all of ``X`` at once
        (AGGLOMERATIVE's mutable working matrix, the exact solver).  Pass
        ``copy=True`` when the result will be mutated.
        """
        raise NotImplementedError

    def hand_over(self) -> None:
        """Mark the backend single-use: see :meth:`DenseBackend.hand_over`.

        A lazy backend builds a fresh matrix on every :meth:`materialize`,
        so it has nothing to hand over.
        """

    # ------------------------------------------------------------------
    # Blocked reductions (shared, bitwise identical across backends)
    # ------------------------------------------------------------------

    def blocks(self) -> Iterator[tuple[int, int]]:
        return grid_blocks(self.n)

    def matvec(self, w: np.ndarray) -> np.ndarray:
        """``X @ w`` in float64, accumulated block by block.

        Never allocates more than one ``O(block * n)`` float64 temporary —
        this replaces the historical ``X.astype(np.float64) @ w`` full-copy
        spike in the BALLS weight ordering.
        """
        w64 = np.asarray(w, dtype=np.float64)
        out = np.empty(self.n, dtype=np.float64)
        for start, stop in self.blocks():
            rows = self.row_block(start, stop)
            out[start:stop] = rows.astype(np.float64, copy=False) @ w64
        return out

    def total_mass(self) -> float:
        """``X.sum()`` over all ordered pairs, accumulated in float64."""
        total = 0.0
        for start, stop in self.blocks():
            total += float(self.row_block(start, stop).sum(dtype=np.float64))
        return total

    def cost(self, labels: np.ndarray, weights: np.ndarray | None = None) -> float:
        """The correlation-clustering cost ``d(C)`` of a label assignment.

        Evaluated without materializing pair masks or the matrix:

            d(C) = T - S_all + 2 * S_within - P_within

        with ``T`` the pair count, ``S_all`` the sum of all distances,
        ``S_within`` the within-cluster distance sum and ``P_within`` the
        within-cluster pair count.  On weighted (atom) instances every
        pair ``(u, v)`` counts ``w_u * w_v`` times and intra-atom pairs
        contribute zero.
        """
        labels = np.asarray(labels)
        n = self.n
        if labels.shape != (n,):
            raise ValueError("clustering size must match the instance size")
        w = None if weights is None else np.asarray(weights, dtype=np.float64)
        sum_all = 0.0
        sum_within = 0.0
        for start, stop in self.blocks():
            rows = self.row_block(start, stop).astype(np.float64, copy=False)
            same = labels[start:stop, None] == labels[None, :]
            if w is None:
                sum_all += float(rows.sum(dtype=np.float64))
                sum_within += float((rows * same).sum(dtype=np.float64))
            else:
                sum_all += float(w[start:stop] @ (rows @ w))
                sum_within += float(w[start:stop] @ ((rows * same) @ w))
        sum_all /= 2.0
        sum_within /= 2.0
        if w is None:
            total_pairs = n * (n - 1) / 2.0
            _, counts = np.unique(labels, return_counts=True)
            pairs_within = float((counts * (counts - 1)).sum()) / 2.0
        else:
            total = float(w.sum())
            total_pairs = (total * total - float((w * w).sum())) / 2.0
            _, inverse = np.unique(labels, return_inverse=True)
            cluster_w = np.bincount(inverse, weights=w)
            pairs_within = (float((cluster_w * cluster_w).sum()) - float((w * w).sum())) / 2.0
        return total_pairs - sum_all + 2.0 * sum_within - pairs_within

    def lower_bound(self, weights: np.ndarray | None = None) -> float:
        """``sum_{u<v} min(X_uv, 1 - X_uv)``, accumulated block by block.

        Unweighted, each block's float64 sum comes leaf by leaf
        (:func:`_pairwise_min_sum`), with no block-sized temporary: on a
        dense instance up to 2048 objects the one block is all of ``X``.
        Weighted, ``min(X, 1 - X)`` takes one temporary a block.
        """
        w = None if weights is None else np.asarray(weights, dtype=np.float64)
        total = 0.0
        for start, stop in self.blocks():
            rows = self.row_block(start, stop)
            if w is None:
                total += _pairwise_min_sum(rows)
                continue
            per_pair = np.subtract(rows.dtype.type(1.0), rows)
            np.minimum(rows, per_pair, out=per_pair)
            per_pair = per_pair.astype(np.float64, copy=False)
            total += float(w[start:stop] @ (per_pair @ w))
        return total / 2.0

    def argmax_entry(self) -> tuple[int, int]:
        """Indices ``(u, v)`` of the first maximum entry in row-major order."""
        n = self.n
        best = -np.inf
        best_u = 0
        best_v = 0
        for start, stop in self.blocks():
            rows = self.row_block(start, stop)
            flat = int(np.argmax(rows))
            value = float(rows.flat[flat])
            if value > best:
                best = value
                best_u = start + flat // n
                best_v = flat % n
        return best_u, best_v


class DenseBackend(PairDistanceBackend):
    """Backend over a fully materialized ``(n, n)`` distance matrix."""

    __slots__ = ("_X", "_n", "_dtype", "_single_use")

    def __init__(self, X: np.ndarray) -> None:
        self._X: np.ndarray | None = np.asarray(X)
        self._n = int(self._X.shape[0])
        self._dtype: np.dtype = self._X.dtype
        self._single_use = False

    def _live(self) -> np.ndarray:
        if self._X is None:
            raise RuntimeError(
                "this dense backend handed its matrix over as a solver's working "
                "matrix and holds no distances any more"
            )
        return self._X

    @property
    def n(self) -> int:
        return self._n

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    @property
    def name(self) -> str:
        return "dense"

    def row_block(self, start: int, stop: int) -> np.ndarray:
        return self._live()[start:stop]

    def row(self, u: int) -> np.ndarray:
        return self._live()[u]

    def gather(self, u: int, idx: np.ndarray | Sequence[int]) -> np.ndarray:
        return self._live()[u, np.asarray(idx)]

    def gather_block(
        self, rows: np.ndarray | Sequence[int], cols: np.ndarray | Sequence[int]
    ) -> np.ndarray:
        return self._live()[np.ix_(np.asarray(rows), np.asarray(cols))]

    def columns(self, idx: np.ndarray | Sequence[int]) -> np.ndarray:
        return self._live()[:, np.asarray(idx)]

    def take(self, idx: np.ndarray | Sequence[int]) -> "DenseBackend":
        index = np.asarray(idx)
        return DenseBackend(self._live()[np.ix_(index, index)])

    def dense(self) -> np.ndarray:
        return self._live()

    def hand_over(self) -> None:
        """Let the next same-dtype ``materialize(copy=True)`` return ``X`` itself.

        For an instance private to one solve whose last read takes ``X``
        as its working matrix: that read then costs no copy, and it
        leaves the backend spent, so every later read raises
        ``RuntimeError`` instead of seeing the solver's writes.
        """
        self._single_use = True

    def materialize(self, dtype: np.dtype | type | None = None, copy: bool = False) -> np.ndarray:
        X = self._live()
        target = self._dtype if dtype is None else np.dtype(dtype)
        if target == self._dtype:
            if copy and self._single_use:
                self._X = None
                return X
            if not copy:
                return X
        check_matrix_fits(self._n, target)
        return X.astype(target, copy=True)


class LazyLabelBackend(PairDistanceBackend):
    """Backend computing ``X`` row blocks on demand from the label matrix.

    Stores only the ``(n, m)`` label matrix — O(n * m) memory — and
    computes any requested rows with the same :mod:`repro.core.kernels`
    kernel (same missing-value model, same dtype rules) the batch build
    uses, so every block is bitwise equal to the corresponding rows of the
    materialized matrix.  Blocks of the :func:`grid_blocks` grid are held
    in an LRU cache of :data:`CACHE_BLOCKS` blocks so repeated scans and
    nearby row fetches amortize the kernel cost.
    """

    __slots__ = (
        "_matrix",
        "_n",
        "_m",
        "_p",
        "_missing",
        "_dtype",
        "_block_rows",
        "_cache",
    )

    def __init__(
        self,
        matrix: np.ndarray,
        p: float = 0.5,
        dtype: np.dtype | type | None = None,
        missing: str = "coin-flip",
        validate: bool = True,
    ) -> None:
        matrix = np.asarray(matrix)
        if validate:
            validate_label_matrix(matrix)
        check_missing_model(p, missing)
        self._matrix = matrix
        self._n = int(matrix.shape[0])
        self._m = int(matrix.shape[1])
        self._dtype: np.dtype = default_dtype(self._n) if dtype is None else np.dtype(dtype)
        self._p = float(p)
        self._missing = missing
        self._block_rows = reduction_block_rows(self._n)
        self._cache: OrderedDict[int, np.ndarray] = OrderedDict()

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def m(self) -> int:
        """Number of source clusterings (label columns)."""
        return self._m

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    @property
    def name(self) -> str:
        return "lazy"

    @property
    def label_matrix(self) -> np.ndarray:
        """The backing ``(n, m)`` label matrix (do not mutate)."""
        return self._matrix

    @property
    def p(self) -> float:
        """Coin-flip probability of the missing-value model."""
        return self._p

    @property
    def missing(self) -> str:
        """Missing-value strategy: ``"coin-flip"`` or ``"average"``."""
        return self._missing

    def cached_block_indices(self) -> tuple[int, ...]:
        """Grid-block indices currently held in the LRU cache (LRU first)."""
        return tuple(self._cache)

    # ------------------------------------------------------------------
    # Storage primitives
    # ------------------------------------------------------------------

    def _kernel(self, rows: slice | np.ndarray, cols: slice | np.ndarray) -> np.ndarray:
        return distance_block(
            self._matrix, rows, cols, p=self._p, dtype=self._dtype, missing=self._missing
        )

    def _compute(self, start: int, stop: int) -> np.ndarray:
        with phase("instance.block", start=int(start), rows=int(stop - start)):
            return self._kernel(slice(start, stop), slice(None))

    def _grid_block(self, index: int) -> np.ndarray:
        cached = self._cache.get(index)
        if cached is not None:
            self._cache.move_to_end(index)
            return cached
        start = index * self._block_rows
        block = self._compute(start, min(start + self._block_rows, self._n))
        self._cache[index] = block
        while len(self._cache) > CACHE_BLOCKS:
            self._cache.popitem(last=False)
        return block

    def row_block(self, start: int, stop: int) -> np.ndarray:
        if start % self._block_rows == 0 and stop == min(start + self._block_rows, self._n):
            return self._grid_block(start // self._block_rows)
        return self._compute(start, stop)

    def row(self, u: int) -> np.ndarray:
        index = u // self._block_rows
        cached = self._cache.get(index)
        if cached is not None:
            self._cache.move_to_end(index)
            return cached[u - index * self._block_rows]
        return self._compute(u, u + 1)[0]

    def gather_block(
        self, rows: np.ndarray | Sequence[int], cols: np.ndarray | Sequence[int]
    ) -> np.ndarray:
        return self._kernel(np.asarray(rows), np.asarray(cols))

    def columns(self, idx: np.ndarray | Sequence[int]) -> np.ndarray:
        # X is bitwise symmetric (every kernel term is), so columns are
        # transposed row gathers.
        return self._kernel(np.asarray(idx), slice(None)).T

    def materialize(self, dtype: np.dtype | type | None = None, copy: bool = False) -> np.ndarray:
        """The dense build of the labels: each grid block written in place, the cache untouched.

        A fresh array, so ``copy`` changes nothing.  Another ``dtype`` than
        :attr:`dtype` casts the built matrix.
        """
        from .instance import disagreement_fractions  # instance imports this module

        X = disagreement_fractions(self._matrix, self._p, self._dtype, self._missing)
        target = self._dtype if dtype is None else np.dtype(dtype)
        if target == self._dtype:
            return X
        check_matrix_fits(self._n, target)
        return X.astype(target)

    def take(self, idx: np.ndarray | Sequence[int]) -> "LazyLabelBackend":
        index = np.asarray(idx)
        # Keep the parent's dtype: a sub-instance of a float32 instance
        # stays float32 even when the subset drops below the size rule.
        return LazyLabelBackend(
            self._matrix[index],
            p=self._p,
            dtype=self._dtype,
            missing=self._missing,
            validate=False,
        )

    # ------------------------------------------------------------------
    # Label-native reductions: the blocked pass's bits from count tables
    # ------------------------------------------------------------------

    def _exact(self, weights: np.ndarray | None) -> bool:
        return _exact_reductions(self._matrix, self._p, self._missing, weights)

    def matvec(self, w: np.ndarray) -> np.ndarray:
        """``X @ w``: O(n * m) from one count table per label column where exact.

        Each column contributes the coin-flip mass of every row against
        one group holding all rows (:func:`~repro.core.kernels.separation_mass`),
        less the coin flip a missing row pays against itself, since
        ``X[u, u]`` is 0.  Outside :func:`~repro.core.kernels._exact_reductions`
        the blocked pass runs.
        """
        w64 = np.asarray(w, dtype=np.float64)
        if not self._exact(w64):
            return super().matvec(w64)
        everyone = np.zeros(self._n, dtype=np.int64)
        sizes = np.array([w64.sum()], dtype=np.float64)
        out = np.zeros(self._n, dtype=np.float64)
        for column in self._matrix.T:
            codes, arity = label_codes(column)
            counts = label_histogram(everyone, codes, 1, arity, w64)
            out += separation_mass(codes, counts, counts.sum(axis=1), sizes, self._p)[:, 0]
        gaps = (self._matrix == MISSING).sum(axis=1)
        out -= (1.0 - self._p) * gaps * w64
        return out / self._m

    def lower_bound(self, weights: np.ndarray | None = None) -> float:
        """The blocked bound over the distinct label rows where exact: O(A² * m) for A of them.

        :func:`~repro.core.atoms._atom_lower_bound` over a lazy backend of
        the distinct rows.  Outside
        :func:`~repro.core.kernels._exact_reductions` the blocked pass
        runs over ``X`` itself.
        """
        if not self._exact(weights):
            return super().lower_bound(weights)
        from .atoms import _atom_lower_bound, _group_rows  # atoms imports this module

        atoms = _group_rows(self._matrix)
        atom_backend = LazyLabelBackend(
            atoms.matrix, p=self._p, dtype=self._dtype, missing=self._missing, validate=False
        )
        return _atom_lower_bound(atom_backend, atoms, self._p, weights)
