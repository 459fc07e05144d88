"""Tests for the Mirkin disagreement distance (repro.core.distance)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Clustering, clustering_distance
from repro.core.distance import (
    distance_matrix,
    expected_column_distance,
    normalized_distance,
    pairs_within,
    total_disagreement,
)
from repro.core.labels import MISSING, as_label_matrix

clusterings = st.lists(st.integers(0, 4), min_size=2, max_size=25).map(Clustering)


def brute_force_distance(first: Clustering, second: Clustering) -> int:
    """Reference O(n^2) pair enumeration."""
    count = 0
    for u, v in itertools.combinations(range(first.n), 2):
        if first.same_cluster(u, v) != second.same_cluster(u, v):
            count += 1
    return count


class TestPairsWithin:
    def test_known_values(self):
        assert pairs_within(np.array([3, 2, 1])) == 3 + 1 + 0

    def test_empty(self):
        assert pairs_within(np.array([], dtype=int)) == 0


class TestClusteringDistance:
    def test_figure1_example(self, figure1_clusterings, figure1_optimum):
        distances = [clustering_distance(c, figure1_optimum) for c in figure1_clusterings]
        assert distances == [4, 1, 0]  # paper: 4 vs C1, 1 vs C2, identical to C3

    def test_identical_is_zero(self):
        c = Clustering([0, 1, 1, 2])
        assert clustering_distance(c, c) == 0

    def test_symmetry(self):
        a, b = Clustering([0, 0, 1, 1]), Clustering([0, 1, 0, 1])
        assert clustering_distance(a, b) == clustering_distance(b, a)

    def test_singletons_vs_single_cluster(self):
        n = 7
        distance = clustering_distance(Clustering.singletons(n), Clustering.single_cluster(n))
        assert distance == n * (n - 1) // 2

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            clustering_distance(Clustering([0, 1]), Clustering([0, 1, 2]))

    @given(clusterings, st.integers(0, 4))
    def test_matches_brute_force(self, first, k_seed):
        rng = np.random.default_rng(k_seed)
        second = Clustering(rng.integers(0, 3, size=first.n))
        assert clustering_distance(first, second) == brute_force_distance(first, second)

    @settings(max_examples=40)
    @given(st.integers(0, 10_000))
    def test_triangle_inequality(self, seed):
        """Observation 1 of the paper: d_V is a metric."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 20))
        a, b, c = (Clustering(rng.integers(0, 4, size=n)) for _ in range(3))
        assert clustering_distance(a, c) <= (
            clustering_distance(a, b) + clustering_distance(b, c)
        )

    @given(clusterings)
    def test_zero_iff_equal(self, first):
        rng = np.random.default_rng(first.n)
        second = Clustering(rng.integers(0, 3, size=first.n))
        distance = clustering_distance(first, second)
        assert (distance == 0) == (first == second)


class TestExpectedColumnDistance:
    def test_no_missing_matches_exact(self):
        column = np.array([0, 0, 1, 1, 2])
        target = Clustering([0, 1, 0, 1, 2])
        expected = expected_column_distance(column, target)
        assert expected == clustering_distance(Clustering(column), target)

    def test_all_missing_column_is_pure_coin_flip(self):
        # Column entirely missing is invalid input per validate, but the
        # distance function itself handles it: every pair is a coin flip.
        column = np.full(4, MISSING)
        target = Clustering([0, 0, 1, 1])
        value = expected_column_distance(column, target, p=0.5)
        assert value == pytest.approx(0.5 * 6)

    def test_p_one_trusts_joins(self):
        # p=1: missing-involved pairs are always reported together, so the
        # clustering only pays for the pairs it splits.
        column = np.array([MISSING, 0, 0])
        together = Clustering([0, 0, 0])
        apart = Clustering([0, 1, 2])
        assert expected_column_distance(column, together, p=1.0) == 0.0
        assert expected_column_distance(column, apart, p=1.0) == pytest.approx(3.0)

    def test_p_zero_trusts_splits(self):
        column = np.array([MISSING, 0, 0])
        together = Clustering([0, 0, 0])
        assert expected_column_distance(column, together, p=0.0) == pytest.approx(2.0)

    def test_invalid_p_rejected(self):
        with pytest.raises(ValueError):
            expected_column_distance(np.array([0, 1]), Clustering([0, 1]), p=1.5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            expected_column_distance(np.array([0, 1]), Clustering([0, 1, 2]))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_monte_carlo_agreement(self, seed):
        """The closed form matches simulating the coin flips."""
        rng = np.random.default_rng(seed)
        n = 8
        column = rng.integers(0, 3, size=n).astype(np.int64)
        column[rng.random(n) < 0.3] = MISSING
        target = Clustering(rng.integers(0, 3, size=n))
        p = 0.5
        analytic = expected_column_distance(column, target, p=p)

        simulation_rng = np.random.default_rng(123)
        trials = 3000
        total = 0.0
        present = column != MISSING
        for _ in range(trials):
            for u in range(n):
                for v in range(u + 1, n):
                    same_target = target.same_cluster(u, v)
                    if present[u] and present[v]:
                        same_column = column[u] == column[v]
                    else:
                        same_column = simulation_rng.random() < p
                    total += same_column != same_target
        assert analytic == pytest.approx(total / trials, rel=0.05)


class TestTotalDisagreement:
    def test_figure1_optimum_value(self, figure1_clusterings, figure1_optimum):
        assert total_disagreement(figure1_clusterings, figure1_optimum) == 5.0

    def test_accepts_matrix_and_sequence(self, figure1_clusterings, figure1_optimum):
        matrix = as_label_matrix(figure1_clusterings)
        assert total_disagreement(matrix, figure1_optimum) == total_disagreement(
            figure1_clusterings, figure1_optimum
        )

    def test_shape_mismatch_rejected(self, figure1_clusterings):
        with pytest.raises(ValueError):
            total_disagreement(figure1_clusterings, Clustering([0, 1]))

    def test_input_is_its_own_best_friend(self, figure1_clusterings):
        # D(C_i) computed against the set including itself counts 0 for itself.
        c = figure1_clusterings[2]
        alone = total_disagreement([c], c)
        assert alone == 0.0

    def test_all_missing_column_is_pure_coin_flip(self):
        # Shard sub-matrices and column prefixes may hold such columns.
        matrix = np.array([[0, MISSING], [0, MISSING], [1, MISSING]])
        together = Clustering([0, 0, 1])
        assert total_disagreement(matrix, together, p=0.25) == 0.75 * 1 + 0.25 * 2

    def test_unit_weights_equal_no_weights(self):
        matrix = np.array([[0, 1], [0, MISSING], [1, 1], [2, 0]])
        clustering = Clustering([0, 0, 1, 1])
        for p in (0.0, 0.3, 0.5, 1.0):
            assert total_disagreement(matrix, clustering, p=p, weights=np.ones(4)) == (
                total_disagreement(matrix, clustering, p=p)
            )

    def test_weights_count_pairs_by_product(self):
        # Row 0 twice over equals duplicating it: the expanded objective.
        matrix = np.array([[0, 1], [0, 0], [1, 0]])
        clustering = Clustering([0, 0, 1])
        expanded = np.array([[0, 1], [0, 1], [0, 0], [1, 0]])
        assert total_disagreement(
            matrix, clustering, weights=np.array([2.0, 1.0, 1.0])
        ) == total_disagreement(expanded, Clustering([0, 0, 0, 1]))

    @pytest.mark.parametrize(
        "inputs, error",
        [
            (np.array([[0.0, 1.0], [1.0, 0.0]]), TypeError),
            (np.array([[0, 1], [-2, 0]]), ValueError),
            (np.array([0, 1]), ValueError),
            (np.zeros((2, 0), dtype=np.int64), ValueError),
        ],
        ids=["float", "below-missing", "one-dimensional", "no-columns"],
    )
    def test_rejects_malformed_inputs(self, inputs, error):
        with pytest.raises(error, match="inputs"):
            total_disagreement(inputs, Clustering([0, 1]))

    @pytest.mark.parametrize(
        "weights",
        [[1.0, np.nan], [1.0, -0.5], [1.0, np.inf], [1.0, 1.0, 1.0]],
        ids=["nan", "negative", "inf", "wrong-length"],
    )
    def test_rejects_bad_weights(self, weights):
        with pytest.raises(ValueError, match="weights"):
            total_disagreement(np.array([[0], [1]]), Clustering([0, 1]), weights=weights)


class TestNormalizedAndMatrix:
    def test_normalized_range(self):
        a = Clustering.singletons(6)
        b = Clustering.single_cluster(6)
        assert normalized_distance(a, b) == 1.0
        assert normalized_distance(a, a) == 0.0

    def test_distance_matrix_symmetric_zero_diagonal(self, figure1_clusterings):
        matrix = distance_matrix(figure1_clusterings)
        assert np.allclose(matrix, matrix.T)
        assert np.all(np.diagonal(matrix) == 0)

    def test_distance_matrix_values(self, figure1_clusterings):
        matrix = distance_matrix(figure1_clusterings)
        c1, c2, c3 = figure1_clusterings
        assert matrix[0, 1] == clustering_distance(c1, c2)
        assert matrix[1, 2] == clustering_distance(c2, c3)
