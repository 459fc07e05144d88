"""FURTHEST's running nearest-center minimum, and the blocked cost's rounding bound.

``previous_furthest`` below is a verbatim copy of the loop that
introduced the running minimum (every round reads all center columns
and scores with ``instance.cost``); it is the differential oracle.  The
loop must return the same labels bit for bit on every input, including
exact cost ties, float32 ``X``, non-dyadic ``p`` and raw distance
instances.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.furthest import furthest
from repro.core.distance import total_disagreement
from repro.core.instance import CorrelationInstance
from repro.core.kernels import _exact_objective
from repro.core.labels import MISSING
from repro.core.partition import Clustering
from repro.datasets import generate_mushrooms


def cost_error_bound(dtype: np.dtype, n: int, m: int, total_weight: float) -> float:
    """A bound on ``|m * backend.cost(C) - D(C)|`` for a label-built instance.

    :meth:`~repro.core.backend.PairDistanceBackend.cost` evaluates
    ``d(C) = T - A/2 + B - P`` with ``A`` (``B``) the float64 sum of
    ``w_u X[u, v] w_v`` over all (co-clustered) ordered pairs; ``T`` and
    ``P`` are exact pair counts.  With ``W = sum w``, ``A, B <= W**2``.
    Under :func:`~repro.core.kernels._exact_objective`:

    * each entry ``X[u, v]`` is ``s / m`` with ``s`` exact, rounded once
      to ``dtype``: relative error at most ``u_X``, that dtype's unit
      roundoff;
    * each sum reaches any term through at most ``K = n**2 + 3 n + 8``
      roundings (the summation tree of a row block, the weight products,
      the running sum over blocks), so its error is at most
      ``gamma_K * A`` with ``gamma_K = K u / (1 - K u)``, ``u = 2**-53``;
    * the three additions of the formula round results below
      ``1.5 W**2`` (at most ``2.5 u W**2`` in all), and the product with
      ``m`` adds ``u m W**2 / 2``.

    Altogether ``|m * cost - D| <= m W**2 (1.5 (u_X + gamma_K) + 3 u)``,
    which ``2 m W**2 (u_X + gamma_K)`` covers since ``gamma_K >= 8 u``.
    ``D(C)`` itself is exact (:func:`~repro.core.distance.total_disagreement`).
    """
    u = np.finfo(np.float64).eps / 2.0
    steps = float(n) * n + 3.0 * n + 8.0
    gamma = steps * u / (1.0 - steps * u)
    return 2.0 * m * total_weight * total_weight * (np.finfo(dtype).eps / 2.0 + gamma)


# ----------------------------------------------------------------------
# Oracle: the previous implementation, verbatim.
# ----------------------------------------------------------------------


def previous_furthest(
    instance: CorrelationInstance,
    max_k: int | None = None,
    force_k: int | None = None,
) -> Clustering:
    backend = instance.backend
    n = instance.n
    if force_k is not None:
        if max_k is not None:
            raise ValueError("give at most one of max_k and force_k")
        if not 1 <= force_k <= n:
            raise ValueError(f"force_k must be in 1..{n}, got {force_k}")
    if n == 1:
        return Clustering.single_cluster(1)
    cap = n if max_k is None else min(max_k, n)
    if force_k is not None:
        cap = force_k

    best = Clustering.single_cluster(n)
    best_cost = instance.cost(best)
    if cap < 2:
        return best

    first, second = backend.argmax_entry()
    if first == second:
        first, second = 0, 1
    centers = [int(first), int(second)]

    while True:
        center_columns = backend.columns(centers)  # (n, |centers|)
        assignment = np.argmin(center_columns, axis=1)
        for rank, center in enumerate(centers):
            assignment[center] = rank
        candidate = Clustering(assignment)
        cost = instance.cost(candidate)
        if force_k is not None:
            if len(centers) >= cap:
                return candidate
        elif cost < best_cost:
            best, best_cost = candidate, cost
        else:
            return best
        if force_k is None and len(centers) >= cap:
            return best

        distance_to_centers = center_columns.min(axis=1)
        distance_to_centers[centers] = -1.0
        centers.append(int(np.argmax(distance_to_centers)))


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


def label_case(seed: int, n: int, m: int, k: int, distinct: int, missing_rate: float):
    """Labels whose rows repeat ``distinct`` base rows (exact distance ties)."""
    rng = np.random.default_rng(seed)
    base = rng.integers(0, k, size=(distinct, m))
    matrix = base[rng.integers(0, distinct, size=n)]
    matrix[rng.random((n, m)) < missing_rate] = MISSING
    matrix[0, np.all(matrix == MISSING, axis=0)] = 0
    return matrix.astype(np.int64)


def build(matrix, p, missing, dtype, weights, kind):
    if kind == "raw":
        X = CorrelationInstance.from_label_matrix(matrix, p=p, missing=missing).X
        return CorrelationInstance(X, m=matrix.shape[1], weights=weights)
    return CorrelationInstance.from_label_matrix(
        matrix, p=p, dtype=dtype, missing=missing, weights=weights, backend=kind
    )


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(2, 40),
    m=st.integers(1, 6),
    k=st.integers(1, 4),
    distinct=st.integers(1, 12),
    missing_rate=st.sampled_from([0.0, 0.2]),
    p=st.sampled_from([0.5, 0.25, 0.3]),
    missing=st.sampled_from(["coin-flip", "coin-flip", "average"]),
    dtype=st.sampled_from([np.float64, np.float32]),
    weighted=st.booleans(),
    kind=st.sampled_from(["dense", "lazy", "raw"]),
    mode=st.sampled_from(["free", "max_k", "force_k"]),
    limit=st.integers(1, 8),
)
def test_labels_equal_previous_loop(
    seed, n, m, k, distinct, missing_rate, p, missing, dtype, weighted, kind, mode, limit
):
    matrix = label_case(seed, n, m, k, distinct, missing_rate)
    weights = None
    if weighted:
        weights = np.random.default_rng(seed + 1).integers(1, 5, size=n).astype(np.float64)
    instance = build(matrix, p, missing, dtype, weights, kind)
    kwargs = {}
    if mode == "max_k":
        kwargs = {"max_k": limit}
    elif mode == "force_k":
        kwargs = {"force_k": min(limit, n)}
    new = furthest(instance, **kwargs)
    old = previous_furthest(instance, **kwargs)
    assert np.array_equal(new.labels, old.labels)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("seed", range(3))
def test_labels_equal_previous_loop_on_mushrooms(seed, dtype):
    rows = np.random.default_rng(seed).choice(8124, size=600, replace=False)
    matrix = generate_mushrooms(rng=0).data[rows]
    for backend in ("dense", "lazy"):
        instance = CorrelationInstance.from_label_matrix(matrix, dtype=dtype, backend=backend)
        assert np.array_equal(furthest(instance).labels, previous_furthest(instance).labels)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(2, 300),
    m=st.integers(1, 24),
    clusters=st.integers(1, 30),
    p=st.sampled_from([0.5, 0.25]),
    dtype=st.sampled_from([np.float64, np.float32]),
    weighted=st.booleans(),
)
def test_scaled_cost_within_half_the_bound(seed, n, m, clusters, p, dtype, weighted):
    rng = np.random.default_rng(seed)
    matrix = rng.integers(0, 3, size=(n, m))
    matrix[rng.random((n, m)) < 0.1] = MISSING
    matrix[0, np.all(matrix == MISSING, axis=0)] = 0
    weights = rng.integers(1, 7, size=n).astype(np.float64) if weighted else None
    instance = CorrelationInstance.from_label_matrix(matrix, p=p, dtype=dtype, weights=weights)
    assert _exact_objective(matrix, p, "coin-flip", weights)
    total = float(instance.effective_weights().sum())
    bound = cost_error_bound(np.dtype(dtype), n, m, total)
    for _ in range(3):
        clustering = Clustering(rng.integers(0, clusters, size=n))
        exact = total_disagreement(matrix, clustering, p, weights)
        blocked = instance.backend.cost(clustering.labels, weights)
        assert abs(m * blocked - exact) <= bound / 2


def test_scaled_cost_within_half_the_bound_on_float32_mushrooms():
    matrix = generate_mushrooms(rng=0).data[:3000]
    instance = CorrelationInstance.from_label_matrix(matrix, dtype=np.float32)
    bound = cost_error_bound(np.dtype(np.float32), 3000, matrix.shape[1], 3000.0)
    for seed in range(3):
        clustering = Clustering(np.random.default_rng(seed).integers(0, 8, size=3000))
        exact = total_disagreement(matrix, clustering, 0.5)
        blocked = instance.backend.cost(clustering.labels)
        assert abs(matrix.shape[1] * blocked - exact) <= bound / 2


def test_exact_tie_takes_the_cost_compare():
    # The first split {0, 1} | {2, 3} agrees with the first column and
    # disagrees with the second on the same 4 pairs the single cluster
    # disagrees with the first: D = 4 both ways, so the split does not
    # strictly lower the cost and the loop stops.
    matrix = np.array([[0, 0], [0, 0], [1, 0], [1, 0]])
    instance = CorrelationInstance.from_label_matrix(matrix)
    split = Clustering([0, 0, 1, 1])
    single = Clustering.single_cluster(4)
    assert total_disagreement(matrix, split, 0.5) == total_disagreement(matrix, single, 0.5) == 4
    result = furthest(instance)
    assert result == single == previous_furthest(instance)


def test_clear_rounds_skip_the_cost_compare():
    matrix = generate_mushrooms(rng=0).data[:400]
    instance = CorrelationInstance.from_label_matrix(matrix)
    result = furthest(instance)
    assert result == previous_furthest(instance)


def test_label_source_survives_subinstance():
    matrix = label_case(7, 30, 4, 3, 8, 0.2)
    for backend in ("dense", "lazy"):
        instance = CorrelationInstance.from_label_matrix(matrix, p=0.25, backend=backend)
        idx = np.arange(0, 30, 3)
        sub = instance.subinstance(idx)
        assert np.array_equal(sub.label_source.matrix, matrix[idx])
        assert sub.label_source[1:] == (0.25, "coin-flip")
        assert np.array_equal(furthest(sub).labels, previous_furthest(sub).labels)
    assert CorrelationInstance.from_distances(np.zeros((3, 3))).label_source is None
