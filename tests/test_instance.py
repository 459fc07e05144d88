"""Tests for CorrelationInstance (repro.core.instance)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Clustering
from repro.core import CorrelationInstance, aggregate, total_disagreement
from repro.core.instance import disagreement_fractions
from repro.core.labels import MISSING, as_label_matrix
from repro.datasets import generate_mushrooms
from repro.obs.trace import tracing

from conftest import random_aggregation_instance


def brute_force_fractions(matrix: np.ndarray, p: float) -> np.ndarray:
    """Reference per-pair computation of the X matrix."""
    n, m = matrix.shape
    X = np.zeros((n, n))
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            total = 0.0
            for j in range(m):
                a, b = matrix[u, j], matrix[v, j]
                if a == MISSING or b == MISSING:
                    total += 1.0 - p
                else:
                    total += float(a != b)
            X[u, v] = total / m
    return X


def brute_force_cost(X: np.ndarray, labels: np.ndarray) -> float:
    cost = 0.0
    for u, v in itertools.combinations(range(len(labels)), 2):
        if labels[u] == labels[v]:
            cost += X[u, v]
        else:
            cost += 1.0 - X[u, v]
    return cost


class TestConstruction:
    def test_figure2_matrix(self, figure1_instance):
        """The instance of Figure 2: distances 1/3 (solid), 2/3 (dashed), 1 (dotted)."""
        X = figure1_instance.X
        assert X[0, 2] == pytest.approx(1 / 3)  # v1-v3 solid
        assert X[0, 1] == pytest.approx(2 / 3)  # v1-v2 dashed
        assert X[0, 4] == pytest.approx(1.0)  # v1-v5 dotted
        assert X[4, 5] == pytest.approx(1 / 3)  # v5-v6 solid

    def test_m_recorded(self, figure1_instance):
        assert figure1_instance.m == 3

    def test_from_distances_validates_symmetry(self):
        bad = np.array([[0.0, 0.2], [0.5, 0.0]])
        with pytest.raises(ValueError):
            CorrelationInstance.from_distances(bad)

    def test_from_distances_validates_range(self):
        bad = np.array([[0.0, 1.5], [1.5, 0.0]])
        with pytest.raises(ValueError):
            CorrelationInstance.from_distances(bad)

    def test_from_distances_validates_diagonal(self):
        bad = np.array([[0.1, 0.2], [0.2, 0.0]])
        with pytest.raises(ValueError):
            CorrelationInstance.from_distances(bad)

    def test_integer_matrix_coerced_by_from_distances(self):
        instance = CorrelationInstance.from_distances(np.zeros((2, 2), dtype=int))
        assert instance.X.dtype == np.float64

    def test_direct_constructor_rejects_integer_matrix(self):
        with pytest.raises(TypeError):
            CorrelationInstance(np.zeros((2, 2), dtype=int))

    def test_invalid_p_rejected(self):
        with pytest.raises(ValueError):
            disagreement_fractions(np.array([[0], [1]], dtype=np.int32), p=-0.1)

    @settings(max_examples=25)
    @given(st.integers(0, 10_000))
    def test_fractions_match_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 12)), int(rng.integers(1, 5))
        matrix = rng.integers(0, 3, size=(n, m)).astype(np.int32)
        mask = rng.random((n, m)) < 0.2
        matrix[mask] = MISSING
        # Keep at least one concrete value per column.
        matrix[0] = 0
        X = disagreement_fractions(matrix, p=0.3)
        assert np.allclose(X, brute_force_fractions(matrix, 0.3))

    def test_blocked_construction_matches_small(self):
        rng = np.random.default_rng(0)
        matrix = rng.integers(0, 4, size=(300, 5)).astype(np.int32)
        X = disagreement_fractions(matrix)
        assert np.allclose(X, brute_force_fractions(matrix, 0.5))

    def test_averaging_mode_ignores_missing_columns(self):
        # Pair (0, 1): columns 0 and 2 comparable (one agree, one differ),
        # column 1 missing on one side -> averaged out.
        matrix = np.array(
            [
                [0, 0, 0],
                [0, MISSING, 1],
            ],
            dtype=np.int32,
        )
        X = disagreement_fractions(matrix, missing="average")
        assert X[0, 1] == pytest.approx(0.5)  # 1 differing of 2 comparable

    def test_averaging_mode_no_common_columns(self):
        matrix = np.array(
            [
                [0, MISSING],
                [MISSING, 0],
                [0, 0],
            ],
            dtype=np.int32,
        )
        X = disagreement_fractions(matrix, missing="average")
        assert X[0, 1] == pytest.approx(0.5)  # nothing comparable

    def test_averaging_mode_equals_coinflip_without_missing(self):
        rng = np.random.default_rng(0)
        matrix = rng.integers(0, 3, size=(20, 4)).astype(np.int32)
        a = disagreement_fractions(matrix, missing="average")
        b = disagreement_fractions(matrix, missing="coin-flip")
        assert np.allclose(a, b)

    def test_unknown_missing_mode_rejected(self):
        with pytest.raises(ValueError):
            disagreement_fractions(np.array([[0], [1]], dtype=np.int32), missing="drop")

    def test_instance_builds_with_averaging(self):
        rng = np.random.default_rng(1)
        matrix = rng.integers(0, 3, size=(15, 4)).astype(np.int32)
        matrix[rng.random((15, 4)) < 0.2] = MISSING
        matrix[0] = 0
        instance = CorrelationInstance.from_label_matrix(matrix, missing="average")
        assert instance.n == 15
        assert float(instance.X.max()) <= 1.0

    @pytest.mark.parametrize("backend", ["dense", "lazy"])
    def test_label_matrix_constructors_accept_nested_lists(self, backend):
        instance = CorrelationInstance.from_label_matrix([[0, 1], [1, 0]], backend=backend)
        lazy = CorrelationInstance.lazy_from_label_matrix([[0, 1], [1, 0]])
        assert (instance.n, instance.m) == (lazy.n, lazy.m) == (2, 2)
        assert instance.cost(np.array([0, 1])) == 0.0

    @pytest.mark.parametrize(
        "build",
        [CorrelationInstance.from_label_matrix, CorrelationInstance.lazy_from_label_matrix],
    )
    def test_label_matrix_constructors_reject_1d_input(self, build):
        with pytest.raises(ValueError, match="label matrix must be 2-D"):
            build(np.array([0, 1, 1], dtype=np.int32))

    def test_float32_for_large_instances(self):
        rng = np.random.default_rng(0)
        matrix = rng.integers(0, 3, size=(5000, 2)).astype(np.int32)
        instance = CorrelationInstance.from_label_matrix(matrix)
        assert instance.X.dtype == np.float32


class TestCost:
    def test_cost_times_m_is_total_disagreement(self, figure1_clusterings, figure1_instance):
        candidates = [
            Clustering([0, 1, 0, 1, 2, 2]),
            Clustering.singletons(6),
            Clustering.single_cluster(6),
            Clustering([0, 0, 0, 1, 1, 2]),
        ]
        for candidate in candidates:
            assert figure1_instance.disagreements(candidate) == pytest.approx(
                total_disagreement(figure1_clusterings, candidate)
            )

    def test_cost_matches_brute_force_random(self):
        matrix, instance = random_aggregation_instance(n=20, m=4, k=3, seed=7)
        rng = np.random.default_rng(1)
        for _ in range(5):
            labels = rng.integers(0, 4, size=20)
            assert instance.cost(labels) == pytest.approx(
                brute_force_cost(instance.X, labels)
            )

    def test_cost_with_missing_matches_expected_disagreement(self):
        rng = np.random.default_rng(3)
        matrix = rng.integers(0, 3, size=(15, 4)).astype(np.int32)
        matrix[rng.random((15, 4)) < 0.25] = MISSING
        matrix[0] = 0
        instance = CorrelationInstance.from_label_matrix(matrix, p=0.3)
        candidate = Clustering(rng.integers(0, 3, size=15))
        assert instance.disagreements(candidate) == pytest.approx(
            total_disagreement(matrix, candidate, p=0.3)
        )

    def test_disagreements_requires_m(self):
        instance = CorrelationInstance.from_distances(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            instance.disagreements(Clustering([0, 1, 2]))

    def test_size_mismatch_rejected(self, figure1_instance):
        with pytest.raises(ValueError):
            figure1_instance.cost(Clustering([0, 1]))


class TestOneObjective:
    """``cost`` reads ``D(C) / m`` off the labels of a coin-flip instance,
    and takes the blocked pass over ``X`` everywhere else."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(2, 40),
        m=st.integers(1, 6),
        missing_rate=st.sampled_from([0.0, 0.2]),
        p=st.sampled_from([0.5, 0.25, 0.3]),
        kind=st.sampled_from(["dense", "lazy", "raw", "average"]),
        dtype=st.sampled_from([np.float64, np.float32]),
        weighting=st.sampled_from(["none", "ones", "integral"]),
        sub=st.booleans(),
    )
    def test_cost_is_the_label_objective_or_the_blocked_pass(
        self, seed, n, m, missing_rate, p, kind, dtype, weighting, sub
    ):
        rng = np.random.default_rng(seed)
        matrix = rng.integers(0, 4, size=(n, m))
        matrix[rng.random((n, m)) < missing_rate] = MISSING
        matrix[0, np.all(matrix == MISSING, axis=0)] = 0
        weights = {
            "none": None,
            "ones": np.ones(n),
            "integral": rng.integers(1, 6, size=n).astype(np.float64),
        }[weighting]
        missing = "average" if kind == "average" else "coin-flip"
        instance = CorrelationInstance.from_label_matrix(
            matrix,
            p=p,
            dtype=dtype,
            missing=missing,
            weights=weights,
            backend="lazy" if kind == "lazy" else "dense",
        )
        if kind == "raw":
            instance = CorrelationInstance(instance.X, m=m, weights=weights)
        if sub:
            idx = np.sort(rng.choice(n, size=max(1, n // 2), replace=False))
            instance = instance.subinstance(idx)
            matrix = matrix[idx]
            weights = None if weights is None else weights[idx]
        candidate = Clustering(rng.integers(0, 4, size=instance.n))
        if kind in ("raw", "average"):
            expected = instance.backend.cost(candidate.labels, weights)
            assert instance.cost(candidate).hex() == expected.hex()
            return
        expected = total_disagreement(matrix, candidate, p, weights) / m
        with tracing() as trace:
            cost = instance.cost(candidate)
        assert cost.hex() == expected.hex()
        assert trace.find("instance.block") == []
        if kind == "lazy":
            assert instance.backend.cached_block_indices() == ()

    @pytest.mark.parametrize("kind", ["raw", "dense", "lazy"])
    def test_label_arrays_are_clusterings(self, kind):
        matrix = np.array([[0, 0], [0, 1], [1, 1], [1, 1]])
        instance = CorrelationInstance.from_label_matrix(
            matrix, backend="lazy" if kind == "lazy" else "dense"
        )
        if kind == "raw":
            instance = CorrelationInstance(instance.X, m=2)
        labels = np.array([7, 7, 3, 3])
        assert instance.cost(labels) == instance.cost(Clustering(labels))
        with pytest.raises(ValueError):
            instance.cost(np.array([0, 0, -1, 1]))
        with pytest.raises(TypeError):
            instance.cost(np.array([0.0, 0.0, 1.0, 1.0]))

    def test_disagreements_is_the_label_objective(self):
        rows = np.random.default_rng(0).choice(8124, size=1500, replace=False)
        matrix = generate_mushrooms(rng=0).data[rows]
        instance = CorrelationInstance.from_label_matrix(matrix)
        rng = np.random.default_rng(1)
        for _ in range(200):
            candidate = Clustering(rng.integers(0, int(rng.integers(1, 6)), size=1500))
            expected = total_disagreement(matrix, candidate)
            assert instance.disagreements(candidate).hex() == expected.hex()
        result = aggregate(instance)
        expected = total_disagreement(matrix, result.clustering)
        assert result.disagreements.hex() == expected.hex()
        assert result.cost.hex() == (expected / matrix.shape[1]).hex()

    @pytest.mark.parametrize("kind", ["raw", "average"])
    def test_disagreements_elsewhere_is_m_times_cost(self, kind):
        rng = np.random.default_rng(2)
        matrix = rng.integers(0, 4, size=(60, 5))
        matrix[rng.random((60, 5)) < 0.2] = MISSING
        matrix[0] = 0
        instance = CorrelationInstance.from_label_matrix(
            matrix, missing="average" if kind == "average" else "coin-flip"
        )
        if kind == "raw":
            instance = CorrelationInstance(instance.X, m=5)
        candidate = Clustering(rng.integers(0, 5, size=60))
        assert instance.disagreements(candidate) == 5 * instance.cost(candidate)
        result = aggregate(instance)
        assert result.cost == instance.cost(result.clustering)
        assert result.disagreements == 5 * result.cost

class TestBoundsAndStructure:
    def test_lower_bound_below_all_candidates(self, figure1_instance):
        bound = figure1_instance.lower_bound()
        for labels in ([0, 1, 0, 1, 2, 2], [0] * 6, list(range(6))):
            assert bound <= figure1_instance.cost(Clustering(labels)) + 1e-9

    def test_figure1_lower_bound_is_tight(self, figure1_instance):
        # For Figure 1 the optimum (5 disagreements) meets the pairwise bound.
        assert figure1_instance.disagreement_lower_bound() == pytest.approx(5.0)

    def test_triangle_inequality_of_aggregation_instances(self):
        for seed in range(5):
            _, instance = random_aggregation_instance(n=12, m=3, k=3, seed=seed)
            assert instance.max_triangle_violation() <= 1e-9

    def test_triangle_violation_detected(self):
        X = np.array(
            [
                [0.0, 0.1, 0.9],
                [0.1, 0.0, 0.1],
                [0.9, 0.1, 0.0],
            ]
        )
        instance = CorrelationInstance.from_distances(X)
        assert instance.max_triangle_violation() == pytest.approx(0.7)

    def test_subinstance(self, figure1_instance):
        sub = figure1_instance.subinstance([0, 2, 4])
        assert sub.n == 3
        assert sub.X[0, 1] == pytest.approx(figure1_instance.X[0, 2])
        assert sub.m == figure1_instance.m

    def test_repr(self, figure1_instance):
        assert "n=6" in repr(figure1_instance)
