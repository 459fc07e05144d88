"""Shared random-instance generators for the test suite.

Consolidates the grid / missing-pattern / planted / weighted-atom
generators that used to be duplicated across ``test_properties.py``,
``test_differential_oracle.py`` and ``test_shard.py``, plus the helpers
``conftest.py`` re-exports to the rest of the suite.

Determinism contract: every generator consumes its RNG in exactly the
order of the code it replaced, so migrated call sites reproduce every
historical test instance bit for bit.  New tests should build on
:func:`random_label_matrix` rather than adding another ad-hoc recipe.
"""

from __future__ import annotations

import numpy as np

from repro.core import CorrelationInstance
from repro.core.labels import MISSING, as_label_matrix

__all__ = [
    "far_atoms_problem",
    "grid_matrix",
    "node_masses",
    "oracle_case",
    "planted_instance",
    "random_aggregation_instance",
    "random_label_matrix",
]


def random_label_matrix(
    n: int,
    m: int,
    k: int,
    rng: np.random.Generator,
    *,
    missing_rate: float = 0.0,
    dtype: type = np.int64,
    guard_first_row: bool = True,
) -> np.ndarray:
    """Uniform random ``(n, m)`` label matrix with optional missing holes.

    ``guard_first_row`` selects between the suite's two historical hole
    conventions.  ``True`` masks row 0 out of the hole pattern before
    punching (the differential-oracle recipe — a fully-missing input
    clustering would be invalid); ``False`` punches holes everywhere and
    then overwrites row 0 with label 0 (the property-test recipe).  RNG
    consumption is one ``integers`` draw plus, when ``missing_rate`` is
    nonzero, one ``random`` draw.
    """
    matrix = rng.integers(0, k, size=(n, m)).astype(dtype)
    if missing_rate > 0.0:
        holes = rng.random(size=(n, m)) < missing_rate
        if guard_first_row:
            holes[0, :] = False
        matrix[holes] = MISSING
        if not guard_first_row:
            matrix[0] = 0
    return matrix


def grid_matrix(n, m, k, seed, missing_rate=0.0) -> np.ndarray:
    """The property-test grid (``test_properties.build``): int32 labels,
    row 0 forced to a real clustering whenever holes are punched."""
    return random_label_matrix(
        n,
        m,
        k,
        np.random.default_rng(seed),
        missing_rate=missing_rate,
        dtype=np.int32,
        guard_first_row=False,
    )


def node_masses(evaluator) -> np.ndarray:
    """A :class:`~repro.core.objective.MoveEvaluator`'s masses ``M(v, slot)``
    as an ``(n, slots)`` view (it stores them slot-major); writable."""
    return evaluator._mass.T


def oracle_case(n: int, m: int, seed: int, missing: float) -> tuple[np.ndarray, int]:
    """The differential-oracle grid: ``(seed, n, m)``-keyed stream, cluster
    budget ``k`` drawn from the same stream.  Returns ``(matrix, k)``."""
    rng = np.random.default_rng(seed * 10_007 + n * 101 + m)
    k = int(rng.integers(2, max(3, n)))
    matrix = random_label_matrix(
        n, m, k, rng, missing_rate=missing, dtype=np.int64, guard_first_row=True
    )
    return matrix, k


def random_aggregation_instance(
    n: int, m: int, k: int, seed: int
) -> tuple[np.ndarray, CorrelationInstance]:
    """A random aggregation problem: m clusterings of n objects with <= k clusters."""
    rng = np.random.default_rng(seed)
    matrix = as_label_matrix([rng.integers(0, k, size=n) for _ in range(m)])
    return matrix, CorrelationInstance.from_label_matrix(matrix)


def planted_instance(
    n: int, m: int, groups: int, flip: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Clusterings that all agree on `groups` planted clusters, with noise.

    Each of the ``m`` input clusterings is the planted partition with a
    ``flip`` fraction of objects relabelled at random.  Returns
    ``(truth_labels, label_matrix)``.
    """
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, groups, size=n)
    columns = []
    for _ in range(m):
        noisy = truth.copy()
        flips = rng.random(n) < flip
        noisy[flips] = rng.integers(0, groups, size=int(flips.sum()))
        columns.append(noisy)
    return truth, as_label_matrix(columns)


def far_atoms_problem() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Five atoms, mutually >1/2 apart, duplicated into 14 contiguous rows.

    Distinct atoms disagree in at least 5 of 6 columns (distance >= 5/6),
    so in-shard AGGLOMERATIVE merges exactly the duplicate groups and
    nothing else; the multiplicities put the 2-shard contiguous boundary
    (7 | 7) on a group edge, so sharding loses no information at all.
    """
    base = np.array(
        [
            [0, 0, 0, 0, 0, 0],
            [1, 1, 1, 1, 0, 1],
            [2, 2, 2, 2, 1, 0],
            [3, 3, 3, 3, 1, 1],
            [4, 4, 4, 4, 2, 0],
        ],
        dtype=np.int32,
    )
    copies = np.array([3, 2, 2, 3, 4])
    return np.repeat(base, copies, axis=0), base, copies
