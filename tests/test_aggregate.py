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


class TestOneMatrix:
    """The default path solves in the X it built, with the parent's bits."""

    @staticmethod
    def mushrooms(rows):
        from repro.datasets.mushrooms import generate_mushrooms

        return generate_mushrooms(rng=0).data[:rows]

    @staticmethod
    def reference(matrix, p, collapse):
        """Build, AGGLOMERATIVE, then the bound, on a public instance."""
        from repro.algorithms.agglomerative import agglomerative
        from repro.core.atoms import _atom_lower_bound, collapse_duplicates
        from repro.core.distance import total_disagreement
        from repro.core.instance import CorrelationInstance

        if collapse:
            atoms = collapse_duplicates(matrix)
            instance = CorrelationInstance.from_label_matrix(
                atoms.matrix, p=p, weights=atoms.weights, backend="dense"
            )
            clustering = atoms.expand(agglomerative(instance))
            bound = _atom_lower_bound(instance.backend, atoms, p)
        else:
            instance = CorrelationInstance.from_label_matrix(matrix, p=p, backend="dense")
            clustering = agglomerative(instance)
            bound = instance.lower_bound()
        return clustering, total_disagreement(matrix, clustering, p=p), bound, instance.backend.dtype

    @pytest.mark.parametrize(
        "rows, p, collapse",
        [
            (700, 0.5, False),
            (700, 0.5, True),
            (700, 0.3, False),
            (700, 0.3, True),
            (4200, 0.5, False),  # float32
            (4200, 0.3, False),
            (4200, 0.3, True),  # 4179 atoms: float32 too
        ],
    )
    def test_same_labels_objective_and_bound_bits(self, rows, p, collapse):
        matrix = self.mushrooms(rows)
        clustering, disagreements, bound, dtype = self.reference(matrix, p, collapse)
        assert dtype == (np.float32 if rows > 4096 else np.float64)
        result = aggregate(matrix, p=p, collapse=collapse, backend="dense")
        assert result.clustering == clustering
        assert result.disagreements == disagreements
        assert result.lower_bound.hex() == bound.hex()

    def test_peak_memory_is_one_matrix(self):
        import tracemalloc

        from repro.analysis.contracts import contracts

        matrix = self.mushrooms(2000)
        aggregate(matrix[:50])  # load the registry and the compiled loop first
        # The debug contracts (on under REPRO_CONTRACTS=1 too) take
        # temporaries of X's size, so the default path runs without them.
        with contracts(False):
            tracemalloc.start()
            try:
                aggregate(matrix)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak <= 1.25 * 2000 * 2000 * 8

    @staticmethod
    def count_hand_overs(monkeypatch):
        from repro.core.backend import DenseBackend

        calls = []
        hand_over = DenseBackend.hand_over

        def counting(self):
            calls.append(self)
            hand_over(self)

        monkeypatch.setattr(DenseBackend, "hand_over", counting)
        return calls

    def test_user_instance_keeps_X_and_spent_backend_raises(self, monkeypatch):
        from repro.core.instance import CorrelationInstance

        matrix = self.mushrooms(300)
        instance = CorrelationInstance.from_label_matrix(matrix)
        before = instance.X.copy()
        calls = self.count_hand_overs(monkeypatch)
        from_instance = aggregate(instance)
        assert calls == []
        assert instance.X.tobytes() == before.tobytes()
        from_labels = aggregate(matrix)
        (spent,) = calls
        assert from_labels.clustering == from_instance.clustering
        assert from_labels.lower_bound == from_instance.lower_bound
        with pytest.raises(RuntimeError, match="handed its matrix over"):
            spent.dense()

    def test_readers_after_agglomerative_still_work(self, monkeypatch):
        from repro.algorithms.agglomerative import agglomerative

        calls = self.count_hand_overs(monkeypatch)
        small = self.mushrooms(12)
        # exact runs agglomerative(instance), then reads X: never handed over.
        exact = aggregate(small, method="exact")
        assert exact.disagreements <= aggregate(small).disagreements
        assert len(calls) == 1  # the default call's own instance only

        def reads_after(sub):
            clustering = agglomerative(sub)
            assert sub.backend.lower_bound() >= 0.0
            return clustering

        matrix = self.mushrooms(600)
        del calls[:]
        wrapped = aggregate(matrix, method="sampling", inner=reads_after, sample_size=200, rng=4)
        assert calls == []
        named = aggregate(matrix, method="sampling", sample_size=200, rng=4)
        assert len(calls) >= 1  # phase 1, and phase 3 when singletons are left
        assert wrapped.clustering == named.clustering
        del calls[:]
        aggregate(matrix, method="portfolio")  # the members share one instance
        assert calls == []
