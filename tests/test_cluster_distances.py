"""Tests for the distance kernels (repro.cluster.distances)."""

import numpy as np
import pytest

from repro.core.labels import MISSING
from repro.cluster.distances import (
    euclidean_matrix,
    hamming_fraction_matrix,
    jaccard_cross_similarity,
    jaccard_similarity_matrix,
    squared_euclidean,
)


class TestEuclidean:
    def test_squared_euclidean_known(self):
        points = np.array([[0.0, 0.0], [3.0, 4.0]])
        distances = squared_euclidean(points, points)
        assert distances[0, 1] == pytest.approx(25.0)

    def test_matches_naive(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(20, 3))
        centers = rng.normal(size=(5, 3))
        fast = squared_euclidean(points, centers)
        naive = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assert np.allclose(fast, naive)

    def test_never_negative(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(50, 4)) * 1e-8  # rounding stress
        assert squared_euclidean(points, points).min() >= 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            squared_euclidean(np.zeros((3, 2)), np.zeros((3, 3)))

    def test_euclidean_matrix_zero_diagonal(self):
        points = np.random.default_rng(2).normal(size=(10, 2))
        matrix = euclidean_matrix(points)
        assert np.allclose(np.diagonal(matrix), 0.0)
        assert np.allclose(matrix, matrix.T)


class TestHamming:
    def test_known_fractions(self):
        rows = np.array([[0, 0, 0], [0, 0, 1], [1, 1, 1]], dtype=np.int32)
        matrix = hamming_fraction_matrix(rows)
        assert matrix[0, 1] == pytest.approx(1 / 3)
        assert matrix[0, 2] == pytest.approx(1.0)

    def test_missing_skipped(self):
        rows = np.array([[0, MISSING], [0, 1]], dtype=np.int32)
        matrix = hamming_fraction_matrix(rows)
        assert matrix[0, 1] == pytest.approx(0.0)  # only attribute 0 comparable

    def test_no_common_attributes_is_distance_one(self):
        rows = np.array([[0, MISSING], [MISSING, 1]], dtype=np.int32)
        matrix = hamming_fraction_matrix(rows)
        assert matrix[0, 1] == pytest.approx(1.0)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            hamming_fraction_matrix(np.array([0, 1]))


class TestJaccard:
    def test_identical_rows(self):
        rows = np.array([[0, 1, 2], [0, 1, 2]], dtype=np.int32)
        assert jaccard_similarity_matrix(rows)[0, 1] == pytest.approx(1.0)

    def test_disjoint_rows(self):
        rows = np.array([[0, 0], [1, 1]], dtype=np.int32)
        assert jaccard_similarity_matrix(rows)[0, 1] == pytest.approx(0.0)

    def test_partial_overlap(self):
        # 2 shared items of 3 each: J = 2 / (3 + 3 - 2) = 0.5.
        rows = np.array([[0, 1, 2], [0, 1, 9]], dtype=np.int32)
        assert jaccard_similarity_matrix(rows)[0, 1] == pytest.approx(0.5)

    def test_missing_drops_items(self):
        # Row 0 has 1 item, row 1 has 2; 1 shared: J = 1 / 2.
        rows = np.array([[0, MISSING], [0, 1]], dtype=np.int32)
        assert jaccard_similarity_matrix(rows)[0, 1] == pytest.approx(0.5)

    def test_cross_matches_square(self):
        rng = np.random.default_rng(3)
        rows = rng.integers(0, 4, size=(30, 6)).astype(np.int32)
        rows[rng.random((30, 6)) < 0.1] = MISSING
        square = jaccard_similarity_matrix(rows)
        cross = jaccard_cross_similarity(rows[:12], rows[12:])
        assert np.allclose(cross, square[:12, 12:])

    def test_cross_shape_validation(self):
        with pytest.raises(ValueError):
            jaccard_cross_similarity(np.zeros((2, 3), dtype=int), np.zeros((2, 4), dtype=int))

    def test_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(4)
        rows = rng.integers(0, 3, size=(15, 5)).astype(np.int32)
        matrix = jaccard_similarity_matrix(rows)
        assert np.allclose(matrix, matrix.T)
        assert np.allclose(np.diagonal(matrix), 1.0)


def naive_hamming(rows):
    """Per pair: differing over commonly present attributes (1 when none)."""
    n = len(rows)
    out = np.zeros((n, n))
    for u in range(n):
        for v in range(n):
            both = (rows[u] != MISSING) & (rows[v] != MISSING)
            if u != v:
                out[u, v] = (rows[u][both] != rows[v][both]).mean() if both.any() else 1.0
    return out


def naive_jaccard(rows):
    """Per pair: shared (attribute, value) items over the union of items."""
    n = len(rows)
    out = np.zeros((n, n))
    for u in range(n):
        for v in range(n):
            present_u, present_v = rows[u] != MISSING, rows[v] != MISSING
            common = ((rows[u] == rows[v]) & present_u & present_v).sum()
            union = present_u.sum() + present_v.sum() - common
            out[u, v] = common / union if union else 0.0
    np.fill_diagonal(out, 1.0)
    return out


class TestUnvalidatedLabels:
    """ROCK inputs skip label validation: labels below -1 and float rows are
    ordinary values, compared as the pairs' raw entries."""

    @pytest.fixture
    def rows(self):
        rng = np.random.default_rng(7)
        rows = rng.integers(-1, 4, size=(60, 5))
        rows[rng.random(rows.shape) < 0.15] = -7
        return rows

    def test_labels_below_missing(self, rows):
        np.testing.assert_allclose(hamming_fraction_matrix(rows), naive_hamming(rows))
        np.testing.assert_allclose(jaccard_similarity_matrix(rows), naive_jaccard(rows))

    def test_float_rows(self, rows):
        floats = np.where(rows < 0, MISSING, rows * 0.5 + 0.25)
        np.testing.assert_allclose(hamming_fraction_matrix(floats), naive_hamming(floats))
        np.testing.assert_allclose(jaccard_similarity_matrix(floats), naive_jaccard(floats))
        cross = jaccard_cross_similarity(floats[:20], floats[20:])
        np.testing.assert_allclose(cross, naive_jaccard(floats)[:20, 20:])

    def test_known_values(self):
        rows = np.array([[-7, 0], [-7, 1], [2, 1]] + [[0, 0]] * 57)
        matrix = hamming_fraction_matrix(rows)
        assert matrix[0, 1] == pytest.approx(0.5)  # -7 == -7 is an agreement
        assert matrix[1, 2] == pytest.approx(0.5)
        assert jaccard_similarity_matrix(rows)[0, 1] == pytest.approx(1 / 3)
