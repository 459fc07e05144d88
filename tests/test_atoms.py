"""Tests for duplicate collapsing and weighted (atom) instances.

The central claim: running an algorithm on the collapsed weighted
instance is equivalent to running it on the original duplicate-bearing
one.  For the cost function and the lower bound the equivalence is an
exact identity, verified directly; for BALLS and AGGLOMERATIVE the two
runs are compared end-to-end.
"""

import numpy as np
import pytest

from repro import Clustering, aggregate
from repro.core import CorrelationInstance, total_disagreement
from repro.core.atoms import collapse_duplicates
from repro.algorithms import agglomerative, balls, local_search

from conftest import planted_instance


def duplicated_problem(seed, n_atoms=25, m=5, groups=3, max_copies=4):
    """A label matrix with known duplicate structure."""
    rng = np.random.default_rng(seed)
    _, base = planted_instance(n=n_atoms, m=m, groups=groups, flip=0.25, seed=seed)
    copies = rng.integers(1, max_copies + 1, size=n_atoms)
    expanded = np.repeat(base, copies, axis=0)
    order = rng.permutation(expanded.shape[0])
    return expanded[order]


class TestCollapse:
    def test_round_trip(self):
        matrix = duplicated_problem(0)
        atoms = collapse_duplicates(matrix)
        assert np.array_equal(atoms.matrix[atoms.inverse], matrix)
        assert int(atoms.weights.sum()) == matrix.shape[0]

    def test_no_duplicates_is_identity(self):
        matrix = np.array([[0, 1], [1, 0], [2, 2]], dtype=np.int32)
        atoms = collapse_duplicates(matrix)
        assert atoms.n_atoms == 3
        assert (atoms.weights == 1).all()

    def test_expand_validates_size(self):
        atoms = collapse_duplicates(duplicated_problem(1))
        with pytest.raises(ValueError):
            atoms.expand(Clustering([0]))

    def test_inverse_is_flat_under_numpy_20x_shape(self, monkeypatch):
        """Regression: numpy 2.0.x returns the axis-0 ``return_inverse``
        shaped ``(n, 1)`` (reverted to ``(n,)`` in 2.1).  A 2-D inverse
        silently broadcasts ``expand()`` into an ``(n, n)`` label matrix,
        so ``collapse_duplicates`` must flatten it unconditionally."""
        from repro.core import atoms as atoms_module

        real_unique = np.unique

        def unique_20x(*args, **kwargs):
            out = real_unique(*args, **kwargs)
            # Only axis-based unique was affected in numpy 2.0.x.
            if kwargs.get("axis") is not None and kwargs.get("return_inverse"):
                unique, inverse, *rest = out
                return (unique, np.reshape(inverse, (-1, 1)), *rest)
            return out

        monkeypatch.setattr(atoms_module.np, "unique", unique_20x)
        matrix = duplicated_problem(3)
        atoms = atoms_module.collapse_duplicates(matrix)
        assert atoms.inverse.ndim == 1
        assert np.array_equal(atoms.matrix[atoms.inverse], matrix)
        expanded = atoms.expand(Clustering(np.arange(atoms.n_atoms) % 2))
        assert expanded.labels.shape == (matrix.shape[0],)

    def test_expand_preserves_atom_cohesion(self):
        matrix = duplicated_problem(2)
        atoms = collapse_duplicates(matrix)
        atom_clustering = Clustering(np.arange(atoms.n_atoms) % 3)
        expanded = atoms.expand(atom_clustering)
        # Duplicates always land together.
        for atom in range(atoms.n_atoms):
            rows = np.flatnonzero(atoms.inverse == atom)
            assert len(set(expanded.labels[rows].tolist())) == 1


class TestWeightedInstance:
    def make(self, seed):
        matrix = duplicated_problem(seed)
        atoms = collapse_duplicates(matrix)
        expanded = CorrelationInstance.from_label_matrix(matrix)
        collapsed = CorrelationInstance.from_label_matrix(
            atoms.matrix, weights=atoms.weights
        )
        return matrix, atoms, expanded, collapsed

    @pytest.mark.parametrize("seed", range(5))
    def test_cost_identity(self, seed):
        matrix, atoms, expanded, collapsed = self.make(seed)
        rng = np.random.default_rng(seed)
        for _ in range(4):
            atom_labels = rng.integers(0, 4, size=atoms.n_atoms)
            atom_clustering = Clustering(atom_labels)
            expanded_clustering = atoms.expand(atom_clustering)
            assert collapsed.cost(atom_clustering) == pytest.approx(
                expanded.cost(expanded_clustering), rel=1e-9
            )

    @pytest.mark.parametrize("seed", range(3))
    def test_lower_bound_identity(self, seed):
        _, _, expanded, collapsed = self.make(seed)
        assert collapsed.lower_bound() == pytest.approx(expanded.lower_bound(), rel=1e-9)

    def test_weights_validation(self):
        X = np.zeros((3, 3))
        with pytest.raises(ValueError):
            CorrelationInstance(X, weights=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            CorrelationInstance(X, weights=np.array([1.0, 0.5, 1.0]))

    def test_subinstance_carries_weights(self):
        _, atoms, _, collapsed = self.make(4)
        sub = collapsed.subinstance([0, 2])
        assert sub.weights is not None
        assert sub.weights.tolist() == [atoms.weights[0], atoms.weights[2]]


def tie_free_weighted_case(seed, n_atoms=14, max_copies=3):
    """A generic float instance plus its explicit duplicate expansion.

    Label-matrix instances carry exact ties (multiples of 1/m) that make
    greedy merge *paths* diverge between the collapsed and expanded runs;
    generic float distances isolate the weighted mechanics.
    """
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.05, 0.95, size=(n_atoms, n_atoms))
    X = (X + X.T) / 2.0
    np.fill_diagonal(X, 0.0)
    weights = rng.integers(1, max_copies + 1, size=n_atoms)
    index = np.repeat(np.arange(n_atoms), weights)
    expanded = X[np.ix_(index, index)].copy()
    # Duplicates of the same atom sit at distance exactly 0.
    same_atom = index[:, None] == index[None, :]
    expanded[same_atom] = 0.0
    collapsed_instance = CorrelationInstance(X, weights=weights.astype(np.float64))
    expanded_instance = CorrelationInstance.from_distances(expanded)
    return collapsed_instance, expanded_instance, index


class TestWeightedAlgorithms:
    @pytest.mark.parametrize("seed", range(6))
    def test_agglomerative_equivalence_tie_free(self, seed):
        collapsed_instance, expanded_instance, index = tie_free_weighted_case(seed)
        via_atoms = Clustering(agglomerative(collapsed_instance).labels[index])
        direct = agglomerative(expanded_instance)
        assert via_atoms == direct

    @pytest.mark.parametrize("seed", range(6))
    def test_balls_equivalence_when_balls_always_accept(self, seed):
        # With alpha >= radius every ball is accepted, removing the one
        # case (rejected ball) where the expanded run can split an atom.
        collapsed_instance, expanded_instance, index = tie_free_weighted_case(seed)
        via_atoms = Clustering(balls(collapsed_instance, alpha=0.5).labels[index])
        direct = balls(expanded_instance, alpha=0.5)
        assert via_atoms == direct

    @pytest.mark.parametrize("seed", range(4))
    def test_balls_weighted_never_worse_at_small_alpha(self, seed):
        # At small alpha the expanded run may split duplicates into many
        # singletons (paying their mutual pairs); the weighted run keeps
        # atoms whole, which can only help the objective on these cases.
        collapsed_instance, expanded_instance, index = tie_free_weighted_case(seed + 50)
        via_atoms = Clustering(balls(collapsed_instance, alpha=0.25).labels[index])
        direct = balls(expanded_instance, alpha=0.25)
        assert expanded_instance.cost(via_atoms) <= expanded_instance.cost(direct) + 1e-9

    def test_label_matrix_collapse_cost_parity(self):
        """On real label matrices the distances are multiples of 1/m, so
        greedy tie-breaking paths diverge between the collapsed and direct
        runs; both still optimize the same objective and must land in the
        same quality band (and LOCALSEARCH polishing narrows the gap)."""
        from repro.core.instance import CorrelationInstance
        from repro.algorithms import local_search

        for seed in range(5):
            matrix = duplicated_problem(seed)
            direct = aggregate(matrix, method="agglomerative", compute_lower_bound=False)
            collapsed = aggregate(
                matrix, method="agglomerative", collapse=True, compute_lower_bound=False
            )
            # Raw greedy outcomes may differ by several percent on tiny
            # noisy instances (tie paths); after polishing in the full
            # space, the collapsed start is as good as the direct one.
            instance = CorrelationInstance.from_label_matrix(matrix)
            polished_direct = instance.cost(local_search(instance, initial=direct.clustering))
            polished_collapsed = instance.cost(
                local_search(instance, initial=collapsed.clustering)
            )
            assert polished_collapsed <= polished_direct * 1.05 + 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_local_search_moves_are_cost_true(self, seed):
        """Weighted LOCALSEARCH deltas must equal true expanded-cost deltas:
        the weighted cost never increases and matches a from-scratch
        weighted evaluation."""
        matrix = duplicated_problem(seed + 20)
        atoms = collapse_duplicates(matrix)
        collapsed_instance = CorrelationInstance.from_label_matrix(
            atoms.matrix, weights=atoms.weights
        )
        expanded_instance = CorrelationInstance.from_label_matrix(matrix)
        result = local_search(collapsed_instance)
        expanded_result = atoms.expand(result)
        assert collapsed_instance.cost(result) == pytest.approx(
            expanded_instance.cost(expanded_result), rel=1e-9
        )
        # Local optimality in the weighted move space.
        start_cost = collapsed_instance.cost(result)
        polished = local_search(collapsed_instance, initial=result)
        assert collapsed_instance.cost(polished) == pytest.approx(start_cost)


class TestAggregateCollapse:
    def test_collapse_returns_full_cover(self):
        matrix = duplicated_problem(7)
        collapsed = aggregate(
            matrix, method="agglomerative", collapse=True, compute_lower_bound=False
        )
        assert collapsed.clustering.n == matrix.shape[0]

    def test_collapse_keeps_duplicates_together(self):
        matrix = duplicated_problem(11)
        atoms = collapse_duplicates(matrix)
        result = aggregate(matrix, method="local-search", collapse=True)
        for atom in range(atoms.n_atoms):
            rows = np.flatnonzero(atoms.inverse == atom)
            assert len(set(result.clustering.labels[rows].tolist())) == 1

    def test_collapse_with_sampling(self):
        matrix = duplicated_problem(8, n_atoms=60, max_copies=3)
        result = aggregate(
            matrix, method="sampling", collapse=True, sample_size=40, rng=0
        )
        assert result.clustering.n == matrix.shape[0]
        atoms = collapse_duplicates(matrix)
        for atom in range(atoms.n_atoms):
            rows = np.flatnonzero(atoms.inverse == atom)
            assert len(set(result.clustering.labels[rows].tolist())) == 1

    @pytest.mark.parametrize("method", ["balls", "agglomerative", "furthest"])
    def test_collapse_lower_bound_counts_pairs_inside_atoms(self, method):
        """Two copies of a row with a missing label are (1 - p) * gaps / m
        apart, not 0, so the collapsed bound keeps their pairs."""
        matrix = np.array([[0, -1], [0, -1], [1, 1], [1, 1], [0, 0]])
        direct = aggregate(matrix, method=method)
        collapsed = aggregate(matrix, method=method, collapse=True)
        assert direct.disagreement_lower_bound == 3.5
        assert collapsed.disagreement_lower_bound == 3.5
        assert collapsed.disagreements == direct.disagreements == 3.5

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("p", [0.5, 0.3])
    def test_collapse_lower_bound_matches_direct_with_missing_duplicates(self, seed, p):
        atoms = collapse_duplicates(duplicated_problem(seed))
        rows = atoms.matrix.copy()
        blank = np.random.default_rng(seed).random(rows.shape) < 0.3
        blank[0] = False  # no entirely missing column
        rows[blank] = -1
        matrix = rows[atoms.inverse]
        direct = aggregate(matrix, method="balls", p=p)
        collapsed = aggregate(matrix, method="balls", p=p, collapse=True)
        assert collapsed.lower_bound == pytest.approx(direct.lower_bound, rel=1e-12)

    def test_collapse_rejected_for_best(self):
        matrix = duplicated_problem(8)
        with pytest.raises(ValueError, match="collapse"):
            aggregate(matrix, method="best", collapse=True)

    @pytest.mark.parametrize("seed", range(3))
    def test_exact_weighted_matches_expanded(self, seed):
        """Branch-and-bound on the weighted atom instance finds the same
        optimal cost as on the physically expanded instance — the property
        the shard merge layer relies on."""
        matrix = duplicated_problem(9 + seed, n_atoms=6, max_copies=2)
        atoms = collapse_duplicates(matrix)
        collapsed = CorrelationInstance.from_label_matrix(
            atoms.matrix, weights=atoms.weights
        )
        expanded = CorrelationInstance.from_label_matrix(matrix)
        from repro.algorithms import exact_optimum

        atom_clustering, atom_cost = exact_optimum(collapsed)
        _, direct_cost = exact_optimum(expanded)
        assert atom_cost == pytest.approx(direct_cost, rel=1e-9)
        assert expanded.cost(atoms.expand(atom_clustering)) == pytest.approx(
            direct_cost, rel=1e-9
        )

    def test_exact_collapse_pipeline(self):
        matrix = duplicated_problem(9, n_atoms=6, max_copies=2)
        via_atoms = aggregate(matrix, method="exact", collapse=True)
        direct = aggregate(matrix, method="exact")
        assert via_atoms.cost == pytest.approx(direct.cost, rel=1e-9)
        assert via_atoms.clustering.n == matrix.shape[0]

    def test_weighted_count_tables_match_expanded(self):
        """ClusterCountTables with multiplicities must equal the tables of
        the physically expanded matrix."""
        from repro.core.objective import ClusterCountTables

        matrix = duplicated_problem(12, n_atoms=30)
        atoms = collapse_duplicates(matrix)
        rng = np.random.default_rng(0)
        member_atoms = rng.choice(atoms.n_atoms, size=12, replace=False)
        labels = np.arange(12) % 3

        weighted = ClusterCountTables(
            atoms.matrix, member_atoms, labels, member_weights=atoms.weights[member_atoms]
        )
        # Expanded equivalent: every duplicate of a member atom is a member.
        member_rows = []
        member_labels = []
        for atom, label in zip(member_atoms, labels):
            rows = np.flatnonzero(atoms.inverse == atom)
            member_rows.extend(rows.tolist())
            member_labels.extend([label] * rows.size)
        expanded = ClusterCountTables(
            matrix, np.array(member_rows), np.array(member_labels)
        )
        # Scores of the remaining atoms (evaluated via a representative row)
        # must coincide.
        others = np.setdiff1d(np.arange(atoms.n_atoms), member_atoms)[:8]
        representative_rows = np.array(
            [np.flatnonzero(atoms.inverse == atom)[0] for atom in others]
        )
        weighted_masses = weighted.masses(others)
        expanded_masses = expanded.masses(representative_rows)
        assert np.allclose(weighted_masses, expanded_masses)

    def test_weighted_sampling_runs_and_covers(self):
        from repro.algorithms import agglomerative, sampling

        matrix = duplicated_problem(13, n_atoms=80, max_copies=4)
        atoms = collapse_duplicates(matrix)
        result = sampling(
            atoms.matrix,
            agglomerative,
            # An explicit size is validated against the atom count now, so
            # size it from the collapsed instance rather than the original.
            sample_size=max(1, atoms.n_atoms // 2),
            rng=0,
            weights=atoms.weights.astype(np.float64),
        )
        assert result.n == atoms.n_atoms

    def test_disagreements_consistent_with_total(self):
        matrix = duplicated_problem(10)
        result = aggregate(matrix, method="local-search", collapse=True)
        assert result.disagreements == pytest.approx(
            total_disagreement(matrix, result.clustering)
        )
