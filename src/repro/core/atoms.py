"""Duplicate-row collapsing: solve the aggregation problem on *atoms*.

Two objects with identical label-matrix rows have identical distances
to every other object.  Rows with no missing entries are never separated
by any input clustering, so their copies are at distance 0 and some
optimal aggregate keeps them together (splitting them can only add
cost).  Two copies of a row with ``g`` missing entries are
``(1 - p) * g / m`` apart under the coin-flip model, not 0: a constant
while the atom stays whole, which the weighted instance leaves out and
:func:`_atom_lower_bound` adds back to the lower bound.  The
categorical application makes duplicates common — limited attribute
combinations mean census-like tables collapse 2x or more — so the
quadratic algorithms can run on the distinct rows ("atoms") with
multiplicities, then expand the answer.

The weighted problem is *exactly equivalent*: give atom ``a`` weight
``w_a`` (its duplicate count); every inter-atom pair contributes
``w_a * w_b`` object pairs and intra-atom pairs contribute a constant
(0 for rows with no missing entries) whenever the atom stays whole.
:class:`~repro.core.instance.CorrelationInstance` accepts the weights and
the instance-based algorithms honour them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backend import PairDistanceBackend
from .kernels import MISSING, distinct_codes, label_codes
from .labels import validate_label_matrix
from .partition import Clustering

__all__ = ["AtomCollapse", "collapse_duplicates"]


@dataclass
class AtomCollapse:
    """The result of collapsing duplicate rows of a label matrix.

    Attributes
    ----------
    matrix:
        ``(a, m)`` reduced label matrix with one row per distinct input row.
    weights:
        ``(a,)`` duplicate counts.
    inverse:
        ``(n,)`` map from original row index to its atom index.
    """

    matrix: np.ndarray
    weights: np.ndarray
    inverse: np.ndarray

    @property
    def n_atoms(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def n_objects(self) -> int:
        return int(self.inverse.shape[0])

    def expand(self, atom_clustering: Clustering) -> Clustering:
        """Lift a clustering of the atoms back to the original objects."""
        if atom_clustering.n != self.n_atoms:
            raise ValueError(
                f"clustering covers {atom_clustering.n} atoms, expected {self.n_atoms}"
            )
        return Clustering(atom_clustering.labels[self.inverse])


def collapse_duplicates(matrix: np.ndarray) -> AtomCollapse:
    """Group identical rows of a label matrix into weighted atoms."""
    validate_label_matrix(matrix)
    return _group_rows(matrix)


def _group_rows(matrix: np.ndarray) -> AtomCollapse:
    """:func:`collapse_duplicates` without validating ``matrix``.

    The atoms come in ``np.unique(matrix, axis=0)``'s sorted row order
    (see :func:`~repro.core.kernels.distinct_codes`).
    """
    first, inverse = distinct_codes([label_codes(column) for column in matrix.T])
    return AtomCollapse(
        matrix=np.ascontiguousarray(matrix[first]),
        weights=np.bincount(inverse, minlength=first.size).astype(np.int64),
        inverse=inverse.astype(np.int64),
    )


def _atom_lower_bound(
    atom_backend: PairDistanceBackend,
    atoms: AtomCollapse,
    p: float,
    weights: np.ndarray | None = None,
) -> float:
    """The objects' pairwise lower bound, from the distances between atoms.

    ``atom_backend`` holds the coin-flip distances between the rows of
    ``atoms.matrix``; ``weights`` (``None`` means ones) are the objects'.
    Atom ``a`` gets ``W_a``, the sum of its objects' weights, and
    ``W2_a``, the sum of their squares.  The pairs between atoms are the
    blocked bound over ``atom_backend`` weighted by ``W``.  The
    ``(W_a**2 - W2_a) / 2`` weighted pairs inside atom ``a`` are two
    copies of its row, apart by ``d_a = (1 - p) * gaps_a / m`` (computed
    in the backend's dtype, as the kernel computes the entry), and each
    pays at least ``min(d_a, 1 - d_a)``.
    """
    w = np.ones(atoms.n_objects, dtype=np.float64) if weights is None else weights
    w = np.asarray(w, dtype=np.float64)
    atom_w = np.bincount(atoms.inverse, weights=w, minlength=atoms.n_atoms)
    atom_w2 = np.bincount(atoms.inverse, weights=w * w, minlength=atoms.n_atoms)
    between = PairDistanceBackend.lower_bound(atom_backend, atom_w)

    dtype = atom_backend.dtype
    gaps = (atoms.matrix == MISSING).sum(axis=1).astype(dtype)
    d = gaps * dtype.type(1.0 - p) / dtype.type(atoms.matrix.shape[1])
    per_pair = np.minimum(d, dtype.type(1.0) - d).astype(np.float64)
    within = (atom_w * atom_w - atom_w2) / 2.0
    return between + float(within @ per_pair)
