"""Merge shard consensus clusterings by weighted-atom re-aggregation.

Every cluster produced inside a shard becomes an *atom*: a unit the
merged consensus keeps whole.  Treating atoms as weighted super-objects
is exact in the same sense as duplicate collapsing
(:mod:`repro.core.atoms`): for any clustering ``C`` of the atoms, the
cost of its expansion over the original objects decomposes as

    d(expand(C)) = d_atoms(C) + constant,

where the constant is the (clustering-independent) cost of the pairs
*inside* each atom and ``d_atoms`` is the objective of a small weighted
instance whose atom-pair distance is the weighted mean of the underlying
object-pair distances:

    X_atoms[A, B] = sum_{u in A, v in B} w_u w_v X[u, v] / (W_A W_B),

with ``W_A = sum_{u in A} w_u``.  Minimizing over the atom instance is
therefore minimizing the true objective over all consensus clusterings
that respect the shard clusters.

The atom distances are built without ever materializing the ``(n, n)``
matrix: per label column the weighted per-atom label histogram ``C``
gives the separated mass in ``O(K^2)`` —

    sep_j(A, B) = (conc_A conc_B - (C C^T)[A, B])
                  + (1 - p) (W_A W_B - conc_A conc_B)

where ``conc_A`` is atom ``A``'s concrete (non-missing) weight in column
``j`` and the ``(1 - p)`` term is the §2 coin-flip expectation for pairs
with a missing endpoint.  Total work is ``O(m (n + K^2))``.

The atom instance is then re-aggregated exactly (branch-and-bound, when
the atom count permits) or with agglomerative-seeded LOCALSEARCH.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..algorithms.agglomerative import agglomerative
from ..algorithms.exact import _MAX_EXACT_N, exact_optimum
from ..algorithms.local_search import local_search
from ..core.instance import CorrelationInstance
from ..core.kernels import check_missing_model, label_histogram
from ..core.labels import MISSING, check_weights, validate_label_matrix
from ..core.partition import Clustering

__all__ = [
    "DEFAULT_MAX_EXACT_ATOMS",
    "MERGE_METHODS",
    "MergeResult",
    "atom_distances",
    "merge_shards",
]

#: Accepted ``merge=`` strategies (``"auto"`` picks exact when small).
MERGE_METHODS = ("auto", "exact", "local-search")

#: ``merge="auto"`` re-aggregates exactly up to this many atoms.  Kept
#: below the solver's hard cap so auto never risks a pathological search;
#: raise it (up to 18) when shards produce few, well-separated clusters.
DEFAULT_MAX_EXACT_ATOMS = 14


@dataclass(frozen=True)
class MergeResult:
    """Outcome of one :func:`merge_shards` call.

    ``clustering`` covers the original objects; ``atom_clustering`` is
    the same partition expressed over the atoms.  ``method`` is the
    resolved strategy actually used (``"exact"``, ``"local-search"``, or
    ``"trivial"`` when there was nothing to merge), and ``atom_cost`` is
    the weighted atom-instance objective of the merged clustering (the
    true objective minus the constant intra-atom cost).
    """

    clustering: Clustering
    atom_clustering: Clustering
    n_atoms: int
    method: str
    atom_cost: float


def atom_distances(
    matrix: np.ndarray,
    atom_of: np.ndarray,
    p: float = 0.5,
    weights: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted mean pair distances between atoms, straight from labels.

    Parameters
    ----------
    matrix:
        ``(n, m)`` label matrix (``-1`` marks missing entries).
    atom_of:
        ``(n,)`` map from object to its atom, with contiguous atom ids
        ``0..K-1`` and every atom non-empty.
    p:
        Coin-flip probability for missing entries (§2).
    weights:
        Optional ``(n,)`` per-object multiplicities (compose with
        duplicate collapsing); default 1.

    Returns ``(X_atoms, atom_weights)`` — the ``(K, K)`` float64 distance
    matrix (zero diagonal, exactly symmetric) and the ``(K,)`` summed
    atom weights.
    """
    validate_label_matrix(matrix)
    check_missing_model(p)
    n, m = matrix.shape
    atom_of = np.asarray(atom_of, dtype=np.int64)
    if atom_of.shape != (n,):
        raise ValueError(f"atom_of must map all {n} rows, got shape {atom_of.shape}")
    if n and (atom_of.min() < 0):
        raise ValueError("atom_of entries must be non-negative atom ids")
    n_atoms = int(atom_of.max()) + 1 if n else 0
    if weights is None:
        w = np.ones(n, dtype=np.float64)
    else:
        w = check_weights(weights, n)
    atom_w = np.bincount(atom_of, weights=w, minlength=n_atoms)
    if not np.all(atom_w > 0.0):
        raise ValueError("atom ids must be contiguous 0..K-1 with every atom non-empty")

    total_mass = np.outer(atom_w, atom_w)
    separated = np.zeros((n_atoms, n_atoms), dtype=np.float64)
    # Two (K, K) scratch matrices shared by every column: each column's
    # (conc_A conc_B - agree) + (1 - p) (W_A W_B - conc_A conc_B) is built
    # in place, one operation at a time in that order, so the bits are
    # those of the plain expression.
    concrete_mass = np.empty_like(separated)
    term = np.empty_like(separated)
    one_minus_p = 1.0 - p
    for j in range(m):
        column = matrix[:, j]
        concrete = np.flatnonzero(column != MISSING)
        if concrete.size == 0:
            separated += one_minus_p * total_mass
            continue
        # Weighted per-atom histogram over the column's compacted labels.
        uniq, inverse = np.unique(column[concrete], return_inverse=True)
        inverse = inverse.reshape(-1)  # numpy 2.0.x returns (c, 1)
        counts = label_histogram(atom_of[concrete], inverse, n_atoms, uniq.size, w[concrete])
        concrete_w = counts.sum(axis=1)
        np.outer(concrete_w, concrete_w, out=concrete_mass)
        np.matmul(counts, counts.T, out=term)
        np.subtract(concrete_mass, term, out=term)
        np.subtract(total_mass, concrete_mass, out=concrete_mass)
        concrete_mass *= one_minus_p
        term += concrete_mass
        separated += term
    distances = separated / (m * total_mass)
    # The column kernels are symmetric in exact arithmetic; BLAS products
    # are not bitwise so, and the intra-atom diagonal is by definition not
    # a pair distance — force both before the contracts see the matrix.
    distances = 0.5 * (distances + distances.T)
    np.clip(distances, 0.0, 1.0, out=distances)
    np.fill_diagonal(distances, 0.0)
    return distances, atom_w


def merge_shards(
    matrix: np.ndarray,
    atom_of: np.ndarray,
    p: float = 0.5,
    weights: np.ndarray | None = None,
    merge: str = "auto",
    max_exact_atoms: int = DEFAULT_MAX_EXACT_ATOMS,
) -> MergeResult:
    """Re-aggregate shard clusters (atoms) into one consensus clustering.

    ``merge`` selects the strategy: ``"exact"`` branch-and-bounds the
    weighted atom instance (``ValueError`` beyond the solver cap),
    ``"local-search"`` polishes an agglomerative start, and ``"auto"``
    (default) uses exact up to ``max_exact_atoms`` atoms.  Either way the
    result is never worse than leaving the shard clusters as they are:
    agglomerative only performs cost-reducing merges from the atom
    singletons, local search only improves its start, and exact is
    optimal outright.
    """
    if merge not in MERGE_METHODS:
        raise ValueError(f"unknown merge strategy {merge!r}; choose from {MERGE_METHODS}")
    if not 1 <= max_exact_atoms <= _MAX_EXACT_N:
        raise ValueError(
            f"max_exact_atoms must lie in [1, {_MAX_EXACT_N}], got {max_exact_atoms}"
        )
    distances, atom_w = atom_distances(matrix, atom_of, p=p, weights=weights)
    n_atoms = atom_w.shape[0]
    if n_atoms == 1:
        atom_clustering = Clustering.single_cluster(1)
        return MergeResult(
            clustering=Clustering(atom_clustering.labels[atom_of]),
            atom_clustering=atom_clustering,
            n_atoms=1,
            method="trivial",
            atom_cost=0.0,
        )
    instance = CorrelationInstance(distances, m=matrix.shape[1], weights=atom_w)
    method = merge
    if method == "auto":
        method = "exact" if n_atoms <= max_exact_atoms else "local-search"
    if method == "exact":
        if n_atoms > _MAX_EXACT_N:
            raise ValueError(
                f"merge='exact' handles at most {_MAX_EXACT_N} atoms, got {n_atoms}; "
                "use merge='local-search' (or merge='auto') for larger shard fan-in"
            )
        atom_clustering, atom_cost = exact_optimum(instance)
    else:
        atom_clustering = local_search(instance, initial=agglomerative(instance))
        atom_cost = instance.cost(atom_clustering)
    return MergeResult(
        clustering=Clustering(atom_clustering.labels[atom_of]),
        atom_clustering=atom_clustering,
        n_atoms=n_atoms,
        method=method,
        atom_cost=float(atom_cost),
    )
