"""Tests for the top-level aggregate() API (repro.core.aggregate)."""

import numpy as np
import pytest

from repro import Clustering, aggregate, available_methods
from repro.core.labels import MISSING, as_label_matrix
from repro.registry import resolve_instance_method

from conftest import planted_instance


ALL_METHODS = (
    "best",
    "balls",
    "agglomerative",
    "furthest",
    "local-search",
    "annealing",
    "genetic",
    "sampling",
    "pivot",
    "cmsy",
    "sharded",
    "streaming",
    "portfolio",
    "exact",
)


class TestApi:
    def test_available_methods(self):
        assert set(available_methods()) == set(ALL_METHODS)

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_every_method_runs_on_figure1(self, figure1_clusterings, method):
        result = aggregate(figure1_clusterings, method=method)
        assert result.clustering.n == 6
        assert result.method == method
        assert result.disagreements >= 5.0  # optimum of Figure 1

    @pytest.mark.parametrize(
        "method", ("agglomerative", "furthest", "local-search", "exact", "best")
    )
    def test_optimal_methods_find_figure1_optimum(
        self, figure1_clusterings, figure1_optimum, method
    ):
        result = aggregate(figure1_clusterings, method=method)
        assert result.clustering == figure1_optimum
        assert result.disagreements == pytest.approx(5.0)

    def test_unknown_method_rejected(self, figure1_clusterings):
        with pytest.raises(ValueError, match="unknown method"):
            aggregate(figure1_clusterings, method="magic")

    def test_accepts_label_matrix(self, figure1_clusterings):
        matrix = as_label_matrix(figure1_clusterings)
        result = aggregate(matrix, method="agglomerative")
        assert result.disagreements == pytest.approx(5.0)

    def test_accepts_categorical_dataset(self):
        from repro.datasets import generate_votes

        dataset = generate_votes(n=80, rng=0)
        result = aggregate(dataset, method="agglomerative")
        assert result.clustering.n == 80

    def test_accepts_instance(self, figure1_instance):
        result = aggregate(figure1_instance, method="agglomerative")
        assert result.cost == pytest.approx(5.0 / 3.0)
        assert result.disagreements == pytest.approx(5.0)

    def test_best_rejects_raw_instance(self, figure1_instance):
        with pytest.raises(ValueError, match="input clusterings"):
            aggregate(figure1_instance, method="best")

    def test_result_fields(self, figure1_clusterings):
        result = aggregate(figure1_clusterings, method="local-search")
        assert result.k == result.clustering.k
        assert result.cost == pytest.approx(result.disagreements / 3)
        assert result.lower_bound is not None
        assert result.disagreement_lower_bound == pytest.approx(result.lower_bound * 3)
        assert result.elapsed_seconds >= 0
        assert "method=local-search" in result.summary()

    def test_lower_bound_skippable(self, figure1_clusterings):
        result = aggregate(figure1_clusterings, method="agglomerative", compute_lower_bound=False)
        assert result.lower_bound is None

    def test_params_forwarded(self, figure1_clusterings):
        result = aggregate(figure1_clusterings, method="balls", alpha=0.4)
        assert result.params == {"alpha": 0.4}

    def test_sampling_inner_by_name(self, figure1_clusterings):
        result = aggregate(
            figure1_clusterings, method="sampling", inner="local-search", sample_size=6, rng=0
        )
        assert result.disagreements == pytest.approx(5.0)

    def test_resolve_inner_rejects_unknown(self):
        with pytest.raises(ValueError):
            resolve_instance_method("nope")

    def test_resolve_inner_accepts_callable(self):
        fn = resolve_instance_method(lambda instance: Clustering.singletons(instance.n))
        assert callable(fn)


class TestBehaviour:
    def test_planted_clusters_recovered(self):
        truth, matrix = planted_instance(n=60, m=7, groups=4, flip=0.15, seed=0)
        for method in ("agglomerative", "furthest", "local-search"):
            result = aggregate(matrix, method=method)
            assert result.clustering == Clustering(truth), method

    def test_identical_inputs_returned_exactly(self):
        base = Clustering([0, 0, 1, 1, 2])
        result = aggregate([base, base, base], method="agglomerative")
        assert result.clustering == base
        assert result.disagreements == 0.0

    def test_single_input_clustering(self):
        base = Clustering([0, 1, 1, 2])
        result = aggregate([base], method="local-search")
        assert result.clustering == base

    def test_missing_values_supported_end_to_end(self):
        matrix = np.array(
            [
                [0, 0, 0],
                [0, 0, MISSING],
                [1, 1, 1],
                [1, MISSING, 1],
            ],
            dtype=np.int32,
        )
        result = aggregate(matrix, method="agglomerative", p=0.5)
        assert result.clustering == Clustering([0, 0, 1, 1])

    def test_number_of_clusters_is_discovered(self):
        # The "identifying the correct number of clusters" property of §2:
        # no method is told k, yet the consensus has the planted k.
        truth, matrix = planted_instance(n=80, m=9, groups=5, flip=0.1, seed=3)
        result = aggregate(matrix, method="agglomerative")
        assert result.k == 5

    def test_all_methods_beat_or_match_worst_input(self, figure1_clusterings):
        from repro.core import total_disagreement

        worst = max(
            total_disagreement(figure1_clusterings, c) for c in figure1_clusterings
        )
        for method in ALL_METHODS:
            result = aggregate(figure1_clusterings, method=method)
            assert result.disagreements <= worst
