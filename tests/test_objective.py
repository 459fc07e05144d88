"""Tests for the incremental-cost machinery (repro.core.objective)."""

import re

import numpy as np
import pytest

from repro import Clustering
from repro.core import CorrelationInstance
from repro.core.labels import MISSING, validate_label_matrix
from repro.core.objective import ClusterCountTables, MoveEvaluator

from conftest import random_aggregation_instance
from strategies import node_masses


def explicit_mass(instance, labels, v):
    """Reference M(v, C_i) from the distance matrix."""
    X = instance.X
    out = {}
    for cluster in np.unique(labels[labels >= 0]):
        members = np.flatnonzero(labels == cluster)
        out[int(cluster)] = float(X[v, members].sum())
    return out


class TestMoveEvaluator:
    def test_initial_state(self, figure1_instance):
        evaluator = MoveEvaluator(figure1_instance, Clustering([0, 0, 1, 1, 2, 2]))
        assert evaluator.n == 6
        assert sorted(evaluator.active_slots().tolist()) == [0, 1, 2]

    def test_clustering_round_trip(self, figure1_instance):
        initial = Clustering([0, 1, 0, 1, 2, 2])
        evaluator = MoveEvaluator(figure1_instance, initial)
        assert evaluator.clustering() == initial

    def test_detach_attach_restores_state(self, figure1_instance):
        initial = Clustering([0, 0, 1, 1, 2, 2])
        evaluator = MoveEvaluator(figure1_instance, initial)
        origin = evaluator.detach(3)
        evaluator.attach(3, origin)
        assert evaluator.clustering() == initial

    def test_detach_last_member_frees_slot(self, figure1_instance):
        evaluator = MoveEvaluator(figure1_instance, Clustering([0, 0, 0, 0, 0, 1]))
        evaluator.detach(5)
        assert sorted(evaluator.active_slots().tolist()) == [0]

    def test_cannot_detach_twice(self, figure1_instance):
        evaluator = MoveEvaluator(figure1_instance, Clustering.singletons(6))
        evaluator.detach(0)
        with pytest.raises(RuntimeError):
            evaluator.detach(0)

    def test_cannot_attach_to_empty_slot(self, figure1_instance):
        evaluator = MoveEvaluator(figure1_instance, Clustering([0, 0, 0, 0, 0, 1]))
        evaluator.detach(5)  # slot 1 now empty
        with pytest.raises(ValueError):
            evaluator.attach(5, 1)

    def test_clustering_fails_while_detached(self, figure1_instance):
        evaluator = MoveEvaluator(figure1_instance, Clustering.singletons(6))
        evaluator.detach(2)
        with pytest.raises(RuntimeError):
            evaluator.clustering()

    def test_singleton_growth(self, figure1_instance):
        evaluator = MoveEvaluator(figure1_instance, Clustering.single_cluster(6))
        evaluator.detach(0)
        slot = evaluator.attach_singleton(0)
        assert evaluator.is_active(slot)
        assert evaluator.clustering().k == 2

    def test_placement_scores_match_explicit_costs(self):
        _, instance = random_aggregation_instance(n=15, m=4, k=3, seed=11)
        labels = np.random.default_rng(0).integers(0, 3, size=15)
        evaluator = MoveEvaluator(instance, Clustering(labels))
        v = 7
        evaluator.detach(v)
        slots, scores, singleton = evaluator.placement_scores(v)
        # Reconstruct the true costs: d(v, C_i) = M + sum_others (|C| - M).
        current = evaluator._labels.copy()
        masses = explicit_mass(instance, current, v)
        sizes = {s: int((current == s).sum()) for s in masses}
        total_elsewhere = sum(sizes[s] - masses[s] for s in masses)
        true_costs = {
            s: masses[s] + total_elsewhere - (sizes[s] - masses[s]) for s in masses
        }
        singleton_cost = total_elsewhere
        # Scores are offset by a common term; differences must match exactly.
        for slot, score in zip(slots, scores):
            assert score - singleton == pytest.approx(
                true_costs[int(slot)] - singleton_cost
            )

    def test_move_to_best_never_increases_cost(self):
        _, instance = random_aggregation_instance(n=18, m=3, k=4, seed=5)
        evaluator = MoveEvaluator(instance, Clustering.random(18, 4, rng=2))
        cost = evaluator.total_cost()
        for v in range(18):
            evaluator.move_to_best(v)
            new_cost = evaluator.total_cost()
            assert new_cost <= cost + 1e-9
            cost = new_cost

    def test_mass_consistency_after_many_moves(self):
        _, instance = random_aggregation_instance(n=12, m=3, k=3, seed=9)
        evaluator = MoveEvaluator(instance, Clustering.random(12, 3, rng=0))
        rng = np.random.default_rng(4)
        for _ in range(40):
            evaluator.move_to_best(int(rng.integers(12)))
        labels = evaluator._labels
        for v in range(12):
            masses = explicit_mass(instance, labels, v)
            for slot, mass in masses.items():
                assert node_masses(evaluator)[v, slot] == pytest.approx(mass)

    def test_best_placement_prefers_cluster_on_tie(self):
        # Two identical objects: joining is never worse than a singleton.
        matrix = np.array([[0, 0], [0, 0]], dtype=np.int32).T.copy().T
        instance = CorrelationInstance.from_label_matrix(
            np.array([[0, 0], [0, 0]], dtype=np.int32)
        )
        evaluator = MoveEvaluator(instance, Clustering([0, 1]))
        evaluator.detach(1)
        slot, _ = evaluator.best_placement(1)
        assert slot == 0


class TestClusterCountTables:
    def make_case(self, seed, n=40, m=5, missing_rate=0.2):
        rng = np.random.default_rng(seed)
        matrix = rng.integers(0, 3, size=(n, m)).astype(np.int32)
        matrix[rng.random((n, m)) < missing_rate] = MISSING
        matrix[0] = 0  # keep every column partially concrete
        members = rng.choice(n, size=n // 2, replace=False)
        labels = rng.integers(0, 3, size=members.size)
        # Ensure labels 0..2 all appear.
        labels[:3] = [0, 1, 2]
        return matrix, np.sort(members), labels[np.argsort(members)]

    def test_masses_match_matrix_path(self):
        matrix, members, labels = self.make_case(0)
        p = 0.4
        tables = ClusterCountTables(matrix, members, labels, p=p)
        instance = CorrelationInstance.from_label_matrix(matrix, p=p)
        X = instance.X
        rest = np.setdiff1d(np.arange(matrix.shape[0]), members)
        masses = tables.masses(rest)
        for i, v in enumerate(rest):
            for cluster in range(tables.k):
                cluster_members = members[labels == cluster]
                assert masses[i, cluster] == pytest.approx(
                    float(X[v, cluster_members].sum()), abs=1e-9
                )

    def test_assign_matches_explicit_scores(self):
        matrix, members, labels = self.make_case(3)
        tables = ClusterCountTables(matrix, members, labels)
        rest = np.setdiff1d(np.arange(matrix.shape[0]), members)
        scores, singleton = tables.placement_scores(rest)
        assigned = tables.assign(rest)
        for i in range(len(rest)):
            best = int(np.argmin(scores[i]))
            if scores[i, best] <= singleton[i]:
                assert assigned[i] == best
            else:
                assert assigned[i] == -1

    def test_sizes_property(self):
        matrix, members, labels = self.make_case(1)
        tables = ClusterCountTables(matrix, members, labels)
        assert np.array_equal(tables.sizes, np.bincount(labels))

    def test_rejects_empty_members(self):
        matrix, members, labels = self.make_case(2)
        with pytest.raises(ValueError):
            ClusterCountTables(matrix, members[:0], labels[:0])

    def test_rejects_label_gaps(self):
        matrix, members, labels = self.make_case(4)
        labels = np.where(labels == 1, 2, labels)  # label 1 vanishes
        if 2 not in labels:
            labels[0] = 2
        with pytest.raises(ValueError):
            ClusterCountTables(matrix, members, labels)

    def test_rejects_bad_p(self):
        matrix, members, labels = self.make_case(5)
        with pytest.raises(ValueError):
            ClusterCountTables(matrix, members, labels, p=2.0)

    @pytest.mark.parametrize(
        "bad",
        [
            np.zeros(6, dtype=np.int32),
            np.zeros((0, 2), dtype=np.int32),
            np.zeros((6, 0), dtype=np.int32),
            np.zeros((6, 2)),
            np.array([[0, 1], [1, -2], [0, 0], [1, 1], [0, 1], [1, 0]], dtype=np.int32),
            np.array([[0, MISSING]] * 6, dtype=np.int32),
            np.array([[MISSING, 0, MISSING]] * 6, dtype=np.int64),
            # Labels at or beyond the column length take the compacting codes.
            np.array([[9, MISSING], [7, MISSING]] * 3, dtype=np.int32),
        ],
    )
    def test_rejects_bad_matrices_as_validate_label_matrix_does(self, bad):
        """The constructor derives the label-matrix checks from its own label
        codes; a bad matrix raises exactly validate_label_matrix's error,
        before any check of the members."""
        with pytest.raises((TypeError, ValueError)) as expected:
            validate_label_matrix(bad)
        with pytest.raises(expected.type, match=f"^{re.escape(str(expected.value))}$"):
            ClusterCountTables(bad, np.arange(-1, 1), np.array([0, 2]))

    def test_all_missing_row_is_indifferent(self):
        matrix = np.array(
            [[0, 0], [1, 1], [MISSING, MISSING], [0, 1]], dtype=np.int32
        )
        tables = ClusterCountTables(matrix, np.array([0, 1]), np.array([0, 1]), p=0.5)
        masses = tables.masses(np.array([2]))
        # Distance 0.5 to each member of each (size-1) cluster.
        assert masses[0, 0] == pytest.approx(0.5)
        assert masses[0, 1] == pytest.approx(0.5)
