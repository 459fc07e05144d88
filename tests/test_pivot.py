"""Unit and wiring tests for CC-PIVOT / CMSY (repro.algorithms.pivot).

Four layers:

- **Selection** — the pivot order is a seeded permutation (deterministic
  under spawned generators); on weighted atoms the exponential race
  clocks draw atoms proportionally to multiplicity.
- **Sweep** — the vectorized threshold sweep matches a brute-force
  pure-Python QwickCluster over the materialized pair matrix, including
  missing-value matrices under both §2 strategies and off-default
  thresholds.
- **CMSY** — the rounding function hits its knees exactly, the LP tier
  produces a feasible fractional solution at least as good as ``X``
  itself, and both tiers return valid seeded clusterings.
- **Wiring** — ``aggregate(method="pivot"|"cmsy")`` dispatches to the
  backend-free fast path (no ``(n, n)`` structure is ever built),
  forwards parameters, collapses atoms correctly, and both methods are
  portfolio / shard / CLI citizens.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import Clustering, aggregate
from repro.cli import main
from repro.core import CorrelationInstance, total_disagreement
from repro.core.aggregate import STOCHASTIC_METHODS, available_methods
from repro.core.atoms import collapse_duplicates
from repro.core.instance import disagreement_fractions
from repro.core.labels import MISSING
from repro.algorithms.pivot import (
    CMSY_A,
    CMSY_B,
    DEFAULT_LP_THRESHOLD,
    _lp_fractional,
    _selection_order,
    cmsy,
    cmsy_rounding,
    pivot,
)
from repro.datasets import generate_votes
from repro.shard import shard_aggregate

from strategies import far_atoms_problem, grid_matrix, random_label_matrix

_EPS = 1e-9


def reference_pivot(matrix, seed, threshold=0.5, p=0.5, missing="coin-flip"):
    """Brute-force QwickCluster: materialized X, pure-Python pair loop.

    Replays the production selection rule (first unclustered entry of
    ``default_rng(seed).permutation(n)``) so the outputs are comparable
    clustering-for-clustering, not merely cost-for-cost.
    """
    X = disagreement_fractions(matrix, p=p, missing=missing)
    n = matrix.shape[0]
    order = np.random.default_rng(seed).permutation(n)
    labels = np.full(n, -1, dtype=np.int64)
    next_label = 0
    for u in order:
        if labels[u] >= 0:
            continue
        for v in range(n):
            if labels[v] < 0 and X[u, v] <= threshold:
                labels[v] = next_label
        next_label += 1
    return Clustering(labels)


class TestSelectionOrder:
    def test_unweighted_is_a_seeded_permutation(self):
        order = _selection_order(np.random.default_rng(3), 20, None)
        assert np.array_equal(np.sort(order), np.arange(20))
        again = _selection_order(np.random.default_rng(3), 20, None)
        assert np.array_equal(order, again)

    def test_deterministic_under_spawned_generators(self):
        """Generators spawned from the same SeedSequence lineage are a
        supported seeding style (the portfolio/shard engines use it)."""
        children_a = np.random.SeedSequence(42).spawn(3)
        children_b = np.random.SeedSequence(42).spawn(3)
        matrix = grid_matrix(25, 4, 3, seed=0)
        a = pivot(matrix, rng=np.random.default_rng(children_a[1]))
        b = pivot(matrix, rng=np.random.default_rng(children_b[1]))
        assert a == b
        sibling = pivot(matrix, rng=np.random.default_rng(children_a[2]))
        # Distinct spawn children are distinct streams (orders may rarely
        # coincide on tiny n; the clustering at n=25 makes that unlikely
        # enough to pin down).
        assert not np.array_equal(
            _selection_order(np.random.default_rng(children_a[1]), 25, None),
            _selection_order(np.random.default_rng(children_a[2]), 25, None),
        )
        assert sibling.n == a.n

    def test_weighted_order_is_seeded(self):
        weights = np.array([3.0, 1.0, 1.0, 5.0, 2.0])
        a = _selection_order(np.random.default_rng(11), 5, weights)
        b = _selection_order(np.random.default_rng(11), 5, weights)
        assert np.array_equal(a, b)
        assert np.array_equal(np.sort(a), np.arange(5))

    def test_weighted_first_pick_matches_multiplicities(self):
        """P(atom drawn first) must be w_i / sum(w) — the race clocks
        realize uniform sampling over the *expanded* objects."""
        weights = np.array([5.0, 1.0, 1.0])
        trials = 4000
        first = np.array(
            [
                _selection_order(np.random.default_rng(seed), 3, weights)[0]
                for seed in range(trials)
            ]
        )
        frequency = np.mean(first == 0)
        # Binomial sd at p=5/7, 4000 trials is ~0.007; allow ~5 sd.
        assert abs(frequency - 5.0 / 7.0) < 0.04


class TestSweepAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("shape", [(6, 3, 3), (9, 4, 3), (13, 5, 4)])
    def test_matches_reference_on_random_grids(self, shape, seed):
        n, m, k = shape
        matrix = grid_matrix(n, m, k, seed=seed * 17 + n)
        assert pivot(matrix, rng=seed) == reference_pivot(matrix, seed)

    @pytest.mark.parametrize("threshold", [0.3, 0.5, 0.7])
    def test_matches_reference_off_default_thresholds(self, threshold):
        matrix = grid_matrix(12, 4, 3, seed=5)
        for seed in range(4):
            assert pivot(matrix, rng=seed, threshold=threshold) == reference_pivot(
                matrix, seed, threshold=threshold
            )

    @pytest.mark.parametrize("missing_strategy", ["coin-flip", "average"])
    @pytest.mark.parametrize("p", [0.3, 0.5])
    def test_missing_labels_match_disagreement_fractions(self, missing_strategy, p):
        """Satellite: holes must flow through the row oracle exactly as
        they flow through :func:`disagreement_fractions`."""
        rng = np.random.default_rng(99)
        matrix = random_label_matrix(11, 4, 3, rng, missing_rate=0.3)
        assert np.any(matrix == MISSING)
        for seed in range(5):
            assert pivot(
                matrix, rng=seed, p=p, missing=missing_strategy
            ) == reference_pivot(matrix, seed, p=p, missing=missing_strategy)

    def test_instance_path_is_bit_identical_to_matrix_path(self):
        """Dense and lazy instances gather the same rows the label-matrix
        fast path computes, so a fixed seed must agree across all three."""
        matrix = grid_matrix(30, 5, 4, seed=2)
        dense = CorrelationInstance.from_label_matrix(matrix)
        lazy = CorrelationInstance.from_label_matrix(matrix, backend="lazy")
        for seed in range(5):
            direct = pivot(matrix, rng=seed)
            assert pivot(dense, rng=seed) == direct
            assert pivot(lazy, rng=seed) == direct

    def test_duplicate_rows_always_share_a_cluster(self):
        """Identical rows are at distance 0, which every pivot joins."""
        matrix, _, copies = far_atoms_problem()
        atoms = collapse_duplicates(matrix)
        for seed in range(6):
            labels = pivot(matrix, rng=seed).labels
            for atom in range(atoms.n_atoms):
                rows = np.flatnonzero(atoms.inverse == atom)
                assert len(set(labels[rows].tolist())) == 1

    def test_weighted_atoms_expand_to_a_feasible_clustering(self):
        matrix, base, copies = far_atoms_problem()
        atoms = collapse_duplicates(matrix)
        for seed in range(4):
            compact = pivot(
                atoms.matrix, weights=atoms.weights.astype(np.float64), rng=seed
            )
            expanded = atoms.expand(compact)
            assert expanded.n == matrix.shape[0]
            # Far atoms (all pair distances >= 5/6 > 1/2) can never join a
            # foreign pivot, so PIVOT recovers the atoms exactly.
            assert compact.k == atoms.n_atoms


class TestValidation:
    def test_threshold_domain(self):
        matrix = grid_matrix(5, 3, 2, seed=0)
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError, match="threshold must be in"):
                pivot(matrix, threshold=bad)

    def test_weights_shape_and_sign(self):
        matrix = grid_matrix(5, 3, 2, seed=0)
        with pytest.raises(ValueError, match="one multiplicity per row"):
            pivot(matrix, weights=np.ones(4))
        with pytest.raises(ValueError, match="positive multiplicities"):
            pivot(matrix, weights=np.array([1.0, 2.0, 0.0, 1.0, 1.0]))

    def test_weights_rejected_on_instance_path(self):
        instance = CorrelationInstance.from_label_matrix(grid_matrix(5, 3, 2, seed=0))
        with pytest.raises(ValueError, match="label-matrix path"):
            pivot(instance, weights=np.ones(5))

    def test_cmsy_lp_threshold_domain(self):
        matrix = grid_matrix(5, 3, 2, seed=0)
        with pytest.raises(ValueError, match="lp_threshold must be >= 0"):
            cmsy(matrix, lp_threshold=-1)

    @pytest.mark.parametrize("method", [pivot, cmsy])
    def test_missing_model_and_p_domain(self, method):
        # Both used to run the "average" model for any unknown `missing`
        # and return a clustering for any p.
        matrix = grid_matrix(5, 3, 2, seed=0)
        with pytest.raises(ValueError, match="missing must be"):
            aggregate(matrix, method=method.__name__, missing="drop")
        with pytest.raises(ValueError, match="missing must be"):
            method(CorrelationInstance.from_label_matrix(matrix), missing="drop")
        for bad in (1.7, -0.5):
            with pytest.raises(ValueError, match="p must be a probability"):
                method(matrix, p=bad)


class TestCmsy:
    def test_rounding_function_knees(self):
        x = np.array([0.0, CMSY_A, (CMSY_A + CMSY_B) / 2.0, CMSY_B, 0.9, 1.0])
        f = cmsy_rounding(x)
        assert f[0] == 0.0 and f[1] == 0.0
        assert f[2] == pytest.approx(0.25)
        assert f[3] == 1.0 and f[4] == 1.0 and f[5] == 1.0
        fine = cmsy_rounding(np.linspace(0.0, 1.0, 101))
        assert np.all(np.diff(fine) >= -_EPS)  # monotone
        assert np.all((fine >= 0.0) & (fine <= 1.0))

    def test_lp_tier_is_feasible_and_beats_x_itself(self):
        pytest.importorskip("scipy")
        matrix = grid_matrix(8, 3, 3, seed=4)
        X = disagreement_fractions(matrix)
        fractional = _lp_fractional(X, None)
        assert fractional is not None
        assert np.allclose(fractional, fractional.T)
        assert np.all((fractional >= 0.0) & (fractional <= 1.0 + _EPS))
        n = X.shape[0]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert fractional[i, j] <= fractional[i, k] + fractional[k, j] + 1e-7

        def lp_objective(x):
            iu, ju = np.triu_indices(n, k=1)
            return float(np.sum(X[iu, ju] * (1 - x[iu, ju]) + (1 - X[iu, ju]) * x[iu, ju]))

        assert lp_objective(fractional) <= lp_objective(X) + 1e-7

    def test_tiers_are_seeded_and_valid(self):
        small = grid_matrix(10, 3, 3, seed=1)  # n <= DEFAULT_LP_THRESHOLD: LP tier
        large = grid_matrix(30, 4, 3, seed=1)  # n > threshold: rounding tier
        assert small.shape[0] <= DEFAULT_LP_THRESHOLD < large.shape[0]
        for matrix in (small, large):
            a = cmsy(matrix, rng=5)
            b = cmsy(matrix, rng=5)
            assert a == b
            assert a.n == matrix.shape[0]
        # Forcing the rounding tier on the small instance stays valid too.
        forced = cmsy(small, rng=5, lp_threshold=0)
        assert forced.n == small.shape[0]

    def test_rounding_tier_instance_parity(self):
        """Above the LP threshold the row oracles must be bitwise equal
        across the matrix / dense / lazy paths, hence identical output."""
        matrix = grid_matrix(28, 5, 4, seed=3)
        dense = CorrelationInstance.from_label_matrix(matrix)
        lazy = CorrelationInstance.from_label_matrix(matrix, backend="lazy")
        for seed in range(4):
            direct = cmsy(matrix, rng=seed)
            assert cmsy(dense, rng=seed) == direct
            assert cmsy(lazy, rng=seed) == direct

    def test_duplicate_rows_share_a_cluster_on_the_rounding_tier(self):
        matrix, _, _ = far_atoms_problem()
        atoms = collapse_duplicates(matrix)
        for seed in range(4):
            labels = cmsy(matrix, rng=seed, lp_threshold=0).labels
            for atom in range(atoms.n_atoms):
                rows = np.flatnonzero(atoms.inverse == atom)
                assert len(set(labels[rows].tolist())) == 1


class TestAggregateWiring:
    def test_methods_are_registered(self):
        assert "pivot" in available_methods()
        assert "cmsy" in available_methods()
        assert "pivot" in STOCHASTIC_METHODS
        assert "cmsy" in STOCHASTIC_METHODS

    def test_aggregate_matches_direct_call_and_reports_its_cost(self):
        matrix = grid_matrix(25, 4, 3, seed=6)
        for method, algorithm in (("pivot", pivot), ("cmsy", cmsy)):
            result = aggregate(matrix, method=method, rng=9, compute_lower_bound=False)
            direct = algorithm(matrix, rng=9)
            assert result.clustering == direct
            assert result.disagreements == pytest.approx(
                total_disagreement(matrix, direct)
            )
            assert result.cost == pytest.approx(result.disagreements / matrix.shape[1])

    def test_fast_path_never_builds_an_instance(self, monkeypatch):
        """The acceptance criterion in miniature: no (n, n) structure —
        dense or lazy — may be created on the pivot/cmsy label path."""

        def forbidden(*args, **kwargs):
            raise AssertionError("label fast path must not build an instance")

        monkeypatch.setattr(CorrelationInstance, "from_label_matrix", forbidden)
        monkeypatch.setattr(CorrelationInstance, "lazy_from_label_matrix", forbidden)
        matrix = grid_matrix(40, 4, 3, seed=8)
        for method in ("pivot", "cmsy"):
            result = aggregate(matrix, method=method, rng=1)  # default lower bound on
            assert result.clustering.n == 40
            assert result.lower_bound is None  # nothing quadratic to score it with

    def test_threshold_forwarding(self):
        matrix = grid_matrix(20, 4, 3, seed=2)
        via_aggregate = aggregate(
            matrix, method="pivot", rng=4, threshold=0.8, compute_lower_bound=False
        )
        assert via_aggregate.clustering == pivot(matrix, rng=4, threshold=0.8)

    def test_collapse_expands_atoms(self):
        matrix, _, _ = far_atoms_problem()
        atoms = collapse_duplicates(matrix)
        result = aggregate(
            matrix, method="pivot", rng=3, collapse=True, compute_lower_bound=False
        )
        expected = atoms.expand(
            pivot(atoms.matrix, weights=atoms.weights.astype(np.float64), rng=3)
        )
        assert result.clustering == expected
        assert result.disagreements == pytest.approx(
            total_disagreement(matrix, expected)
        )

    def test_portfolio_membership(self):
        matrix = grid_matrix(30, 4, 3, seed=7)
        result = aggregate(
            matrix,
            method="portfolio",
            methods=("balls", "pivot", "cmsy"),
            rng=0,
            compute_lower_bound=False,
        )
        records = result.params["portfolio"]["runs"]
        assert {record["method"] for record in records} == {"balls", "pivot", "cmsy"}
        assert result.cost == pytest.approx(min(record["cost"] for record in records))

    def test_shard_membership(self):
        matrix, _, _ = far_atoms_problem()
        sharded = shard_aggregate(matrix, n_shards=2, shard_method="pivot", rng=0)
        assert sharded.clustering.n == matrix.shape[0]
        repeat = shard_aggregate(matrix, n_shards=2, shard_method="pivot", rng=0)
        assert sharded.clustering == repeat.clustering

    def test_cli_aggregate_pivot(self, tmp_path, capsys):
        path = tmp_path / "votes.csv"
        generate_votes(n=60, rng=0).to_csv(path)
        assert main(
            [
                "aggregate",
                str(path),
                "--method",
                "pivot",
                "--threshold",
                "0.6",
                "--seed",
                "3",
                "--json",
            ]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["method"] == "pivot"
        assert report["cost"] == pytest.approx(report["disagreements"] / 16)


class TestRepeats:
    """Best-of-R amplification and its O(n*m) weighted scorer."""

    def test_repeats_validation(self):
        matrix = grid_matrix(8, 3, 3, seed=0)
        for algorithm in (pivot, cmsy):
            with pytest.raises(ValueError, match="repeats must be >= 1"):
                algorithm(matrix, rng=0, repeats=0)

    def test_best_of_is_monotone_and_deterministic(self):
        # The sweeps share one generator and the first candidate is the
        # repeats=1 output, so best-of cost can never exceed the single run.
        matrix = grid_matrix(40, 4, 4, seed=11, missing_rate=0.1)
        for algorithm in (pivot, cmsy):
            single = algorithm(matrix, rng=2)
            best = algorithm(matrix, rng=2, repeats=4)
            assert algorithm(matrix, rng=2, repeats=4) == best
            assert total_disagreement(matrix, best) <= total_disagreement(
                matrix, single
            )

    def test_aggregate_forwards_repeats(self):
        matrix = grid_matrix(30, 4, 3, seed=5)
        result = aggregate(matrix, method="pivot", rng=2, repeats=4)
        assert result.clustering == pivot(matrix, rng=2, repeats=4)

    def test_unit_weights_match_total_disagreement(self):
        matrix = random_label_matrix(
            12, 4, 3, np.random.default_rng(3), missing_rate=0.2
        )
        clustering = Clustering(np.random.default_rng(4).integers(0, 3, size=12))
        for p in (0.3, 0.5):
            assert total_disagreement(
                matrix, clustering, p=p, weights=np.ones(12)
            ) == pytest.approx(total_disagreement(matrix, clustering, p=p))

    def test_weighted_scoring_matches_the_expanded_objective(self):
        matrix, _, _ = far_atoms_problem()
        atoms = collapse_duplicates(matrix)
        instance = CorrelationInstance.from_label_matrix(
            atoms.matrix, weights=atoms.weights
        )
        rng = np.random.default_rng(9)
        for _ in range(5):
            candidate = Clustering(rng.integers(0, 3, size=atoms.n_atoms))
            weighted = total_disagreement(
                atoms.matrix, candidate, weights=atoms.weights.astype(np.float64)
            )
            assert weighted == pytest.approx(instance.disagreements(candidate))
            assert weighted == pytest.approx(
                total_disagreement(matrix, atoms.expand(candidate))
            )

    def test_cli_forwards_repeats(self, tmp_path, capsys):
        path = tmp_path / "votes.csv"
        generate_votes(n=40, rng=0).to_csv(path)
        argv = ["aggregate", str(path), "--method", "cmsy", "--seed", "2", "--json"]
        assert main(argv + ["--repeats", "4"]) == 0
        boosted = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        single = json.loads(capsys.readouterr().out)
        assert boosted["cost"] <= single["cost"]
