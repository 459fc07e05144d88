"""Tests for FURTHEST and LOCALSEARCH (repro.algorithms)."""

import numpy as np
import pytest

from repro import Clustering, aggregate
from repro.core import CorrelationInstance
from repro.algorithms import agglomerative, furthest, local_search

from conftest import random_aggregation_instance


class TestFurthest:
    def test_figure1_optimum(self, figure1_instance):
        assert furthest(figure1_instance) == Clustering([0, 1, 0, 1, 2, 2])

    def test_single_object(self):
        instance = CorrelationInstance.from_distances(np.zeros((1, 1)))
        assert furthest(instance).k == 1

    def test_identical_objects_single_cluster(self):
        matrix = np.zeros((6, 3), dtype=np.int32)
        instance = CorrelationInstance.from_label_matrix(matrix)
        assert furthest(instance).k == 1

    def test_never_worse_than_single_cluster(self):
        for seed in range(6):
            _, instance = random_aggregation_instance(n=20, m=4, k=4, seed=seed)
            result = furthest(instance)
            single = instance.cost(Clustering.single_cluster(20))
            assert instance.cost(result) <= single + 1e-9

    def test_first_centers_are_furthest_pair(self):
        # Three points: two identical, one maximally far — the far pair
        # must split first, giving exactly two clusters.
        matrix = np.array([[0, 0], [0, 0], [1, 1]], dtype=np.int32)
        instance = CorrelationInstance.from_label_matrix(matrix)
        result = furthest(instance)
        assert result == Clustering([0, 0, 1])

    def test_max_k_caps_centers(self):
        _, instance = random_aggregation_instance(n=25, m=5, k=5, seed=1)
        result = furthest(instance, max_k=2)
        assert result.k <= 2

    def test_force_k_returns_exact_count(self):
        _, instance = random_aggregation_instance(n=25, m=5, k=5, seed=3)
        for k in (2, 4, 7):
            assert furthest(instance, force_k=k).k == k

    def test_force_k_validation(self):
        _, instance = random_aggregation_instance(n=10, m=3, k=3, seed=4)
        with pytest.raises(ValueError):
            furthest(instance, force_k=0)
        with pytest.raises(ValueError):
            furthest(instance, force_k=11)
        with pytest.raises(ValueError):
            furthest(instance, max_k=3, force_k=3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"force_k": 2.5},
            {"force_k": True},
            {"max_k": 0},
            {"max_k": -2},
            {"max_k": 2.5},
            {"max_k": True},
        ],
    )
    def test_non_integer_or_non_positive_counts_rejected(self, kwargs):
        matrix, instance = random_aggregation_instance(n=10, m=3, k=3, seed=4)
        (name,) = kwargs
        with pytest.raises(ValueError, match=name):
            furthest(instance, **kwargs)
        with pytest.raises(ValueError, match=name):
            aggregate(matrix, method="furthest", **kwargs)

    def test_numpy_integer_counts_accepted(self):
        matrix, instance = random_aggregation_instance(n=25, m=5, k=5, seed=3)
        assert furthest(instance, force_k=np.int32(4)).k == 4
        assert furthest(instance, max_k=np.int64(2)) == furthest(instance, max_k=2)
        assert aggregate(matrix, method="furthest", force_k=np.int64(3)).clustering.k == 3

    def test_force_k_one_is_single_cluster(self):
        _, instance = random_aggregation_instance(n=8, m=3, k=3, seed=5)
        assert furthest(instance, force_k=1).k == 1

    def test_all_zero_matrix_force_k_uses_distinct_centers(self):
        # Regression: on an identically-zero X, np.argmax lands on the
        # diagonal (flat index 0) and used to install node 0 as *both*
        # initial centers, splitting it off as a phantom cluster.  With
        # distinct canonical centers node 0 stays with the bulk and the
        # forced second cluster is the second center's own singleton.
        matrix = np.zeros((6, 3), dtype=np.int32)
        instance = CorrelationInstance.from_label_matrix(matrix)
        result = furthest(instance, force_k=2)
        assert result == Clustering([0, 1, 0, 0, 0, 0])

    def test_stops_on_first_non_improvement(self):
        # With all pairwise distances below 1/2, splitting anything hurts,
        # so FURTHEST must return the single cluster.
        X = np.full((8, 8), 0.3)
        np.fill_diagonal(X, 0.0)
        instance = CorrelationInstance.from_distances(X)
        assert furthest(instance).k == 1


class TestLocalSearch:
    def test_figure1_optimum(self, figure1_instance):
        assert local_search(figure1_instance) == Clustering([0, 1, 0, 1, 2, 2])

    def test_local_optimality(self):
        """After convergence no single-node move can strictly improve."""
        for seed in range(4):
            _, instance = random_aggregation_instance(n=15, m=3, k=3, seed=seed)
            result = local_search(instance)
            base = instance.cost(result)
            labels = result.labels.astype(np.int64)
            for v in range(15):
                for target in range(result.k + 1):  # +1: fresh singleton
                    candidate = labels.copy()
                    candidate[v] = target if target < result.k else result.k
                    assert instance.cost(Clustering(candidate)) >= base - 1e-9

    def test_improves_initial_solution(self):
        _, instance = random_aggregation_instance(n=30, m=4, k=4, seed=9)
        initial = Clustering.random(30, 6, rng=0)
        improved = local_search(instance, initial=initial)
        assert instance.cost(improved) <= instance.cost(initial) + 1e-9

    def test_postprocessing_never_hurts(self):
        for seed in range(4):
            _, instance = random_aggregation_instance(n=25, m=5, k=3, seed=seed)
            first = agglomerative(instance)
            polished = local_search(instance, initial=first)
            assert instance.cost(polished) <= instance.cost(first) + 1e-9

    def test_initial_size_mismatch_rejected(self, figure1_instance):
        with pytest.raises(ValueError):
            local_search(figure1_instance, initial=Clustering([0, 1]))

    def test_shuffled_order_is_valid(self, figure1_instance):
        result = local_search(figure1_instance, rng=3)
        assert result.n == 6
        assert figure1_instance.cost(result) == pytest.approx(5.0 / 3.0)

    def test_max_sweeps_respected(self):
        _, instance = random_aggregation_instance(n=20, m=3, k=3, seed=2)
        result = local_search(instance, max_sweeps=1)
        assert result.n == 20  # terminates and returns a valid partition

    def test_fixed_point_of_optimum(self, figure1_instance, figure1_optimum):
        result = local_search(figure1_instance, initial=figure1_optimum)
        assert result == figure1_optimum
