"""Tests for sharded divide-and-merge aggregation (repro.shard).

Three layers of evidence:

- **Unit** — shard plans are partitions; atom distances match a brute
  force over the materialized pair matrix (weighted and missing-value
  cases included).
- **Metamorphic** — on a duplicate-heavy matrix whose contiguous shard
  boundary falls on a duplicate-group edge, the sharded pipeline is
  *exactly* the collapse-to-atoms pipeline: its consensus cost equals
  the single-shot exact optimum over the collapsed instance.
- **Differential** — the sharded objective stays within
  :data:`~repro.shard.QUALITY_ENVELOPE` of single-shot SAMPLING, and a
  fixed ``(seed, n_shards)`` is bit-identical for every worker count.
"""

import json

import numpy as np
import pytest

from repro import Clustering, aggregate
from repro.cli import main
from repro.core import CorrelationInstance, total_disagreement
from repro.core.atoms import collapse_duplicates
from repro.core.kernels import label_histogram
from repro.core.labels import MISSING
from repro.datasets import generate_votes
from repro.obs.trace import tracing
from repro.shard import (
    MERGE_METHODS,
    PARTITION_MODES,
    QUALITY_ENVELOPE,
    atom_distances,
    merge_shards,
    plan_shards,
    shard_aggregate,
)
from repro.shard.engine import _solve_shard

from strategies import far_atoms_problem, planted_instance


class TestPartition:
    def test_contiguous_plan_is_a_sorted_partition(self):
        plan = plan_shards(10, 3)
        assert [piece.tolist() for piece in plan] == [
            [0, 1, 2, 3],
            [4, 5, 6],
            [7, 8, 9],
        ]

    def test_random_plan_is_a_partition(self):
        plan = plan_shards(23, 4, mode="random", rng=0)
        together = np.concatenate(plan)
        assert np.array_equal(np.sort(together), np.arange(23))
        sizes = [piece.size for piece in plan]
        assert max(sizes) - min(sizes) <= 1
        for piece in plan:
            assert np.array_equal(piece, np.sort(piece))

    def test_random_plan_is_seeded(self):
        a = plan_shards(50, 4, mode="random", rng=7)
        b = plan_shards(50, 4, mode="random", rng=7)
        c = plan_shards(50, 4, mode="random", rng=8)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))

    def test_contiguous_ignores_rng(self):
        a = plan_shards(12, 3, mode="contiguous", rng=1)
        b = plan_shards(12, 3, mode="contiguous", rng=2)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_shards_clamped_to_n(self):
        plan = plan_shards(3, 8)
        assert len(plan) == 3
        assert all(piece.size == 1 for piece in plan)

    def test_validation(self):
        with pytest.raises(ValueError, match="n must be positive"):
            plan_shards(0, 2)
        with pytest.raises(ValueError, match="n_shards must be positive"):
            plan_shards(5, 0)
        with pytest.raises(ValueError, match="partition mode"):
            plan_shards(5, 2, mode="diagonal")
        assert set(PARTITION_MODES) == {"contiguous", "random"}


def brute_force_atom_distances(matrix, atom_of, p=0.5, weights=None):
    """O(n^2) reference: weighted mean pair distance between atoms."""
    instance = CorrelationInstance.from_label_matrix(matrix, p=p)
    X = instance.backend.materialize(np.float64)
    w = np.ones(matrix.shape[0]) if weights is None else np.asarray(weights, float)
    n_atoms = int(atom_of.max()) + 1
    out = np.zeros((n_atoms, n_atoms))
    for a in range(n_atoms):
        for b in range(n_atoms):
            rows_a = np.flatnonzero(atom_of == a)
            rows_b = np.flatnonzero(atom_of == b)
            pair_w = np.outer(w[rows_a], w[rows_b])
            out[a, b] = float((pair_w * X[np.ix_(rows_a, rows_b)]).sum() / pair_w.sum())
    np.fill_diagonal(out, 0.0)
    return out


def previous_atom_distances(matrix, atom_of, p=0.5, weights=None):
    """The per-column expression ``atom_distances`` used before it
    accumulated in place, verbatim after validation (oracle)."""
    n, m = matrix.shape
    n_atoms = int(atom_of.max()) + 1
    w = np.ones(n, dtype=np.float64) if weights is None else np.asarray(weights, float)
    atom_w = np.bincount(atom_of, weights=w, minlength=n_atoms)
    total_mass = np.outer(atom_w, atom_w)
    separated = np.zeros((n_atoms, n_atoms), dtype=np.float64)
    one_minus_p = 1.0 - p
    for j in range(m):
        column = matrix[:, j]
        concrete = np.flatnonzero(column != MISSING)
        uniq, inverse = np.unique(column[concrete], return_inverse=True)
        inverse = inverse.reshape(-1)
        counts = label_histogram(atom_of[concrete], inverse, n_atoms, uniq.size, w[concrete])
        concrete_w = counts.sum(axis=1)
        concrete_mass = np.outer(concrete_w, concrete_w)
        agree = counts @ counts.T
        separated += (concrete_mass - agree) + one_minus_p * (total_mass - concrete_mass)
    distances = separated / (m * total_mass)
    distances = 0.5 * (distances + distances.T)
    np.clip(distances, 0.0, 1.0, out=distances)
    np.fill_diagonal(distances, 0.0)
    return distances, atom_w


class TestAtomDistances:
    @pytest.mark.parametrize("n_atoms", [3, 40, 400])
    def test_in_place_accumulation_is_bitwise_previous(self, n_atoms):
        rng = np.random.default_rng(n_atoms)
        n = 6 * n_atoms
        matrix = rng.integers(0, 9, size=(n, 5))
        matrix[:, 3] = matrix[:, 3] * 1000 + 11  # labels above n
        matrix[rng.random(matrix.shape) < 0.2] = MISSING
        matrix[0] = 0  # keep every column informative
        atom_of = np.concatenate([np.arange(n_atoms), rng.integers(0, n_atoms, n - n_atoms)])
        weights = rng.random(n) * 4.0 + 0.25
        for p in (0.5, 0.3, 0.0):
            for w in (None, weights):
                new, new_w = atom_distances(matrix, atom_of, p=p, weights=w)
                old, old_w = previous_atom_distances(matrix, atom_of, p=p, weights=w)
                assert new.tobytes() == old.tobytes()
                assert new_w.tobytes() == old_w.tobytes()

    def test_matches_brute_force(self):
        _, matrix = planted_instance(n=30, m=5, groups=3, flip=0.3, seed=0)
        atom_of = np.arange(30) % 7
        distances, atom_w = atom_distances(matrix, atom_of)
        assert np.allclose(distances, brute_force_atom_distances(matrix, atom_of))
        assert atom_w.tolist() == np.bincount(atom_of).tolist()

    def test_matches_brute_force_with_missing_values(self):
        _, matrix = planted_instance(n=24, m=6, groups=3, flip=0.2, seed=1)
        matrix = matrix.copy()
        rng = np.random.default_rng(0)
        matrix[rng.random(matrix.shape) < 0.15] = -1
        matrix[0] = 0  # keep every column informative
        atom_of = rng.integers(0, 5, size=24)
        atom_of[:5] = np.arange(5)  # every atom non-empty
        for p in (0.5, 0.3):
            distances, _ = atom_distances(matrix, atom_of, p=p)
            assert np.allclose(
                distances, brute_force_atom_distances(matrix, atom_of, p=p)
            )

    def test_weighted_rows_match_physical_duplication(self):
        matrix, base, copies = far_atoms_problem()
        # Collapsed rows with multiplicities == the expanded matrix.
        atom_of_base = np.array([0, 0, 1, 1, 2])
        expanded_atom_of = np.repeat(atom_of_base, copies)
        weighted, weighted_w = atom_distances(
            base, atom_of_base, weights=copies.astype(np.float64)
        )
        expanded, expanded_w = atom_distances(matrix, expanded_atom_of)
        assert np.allclose(weighted, expanded)
        assert np.allclose(weighted_w, expanded_w)

    def test_distance_matrix_contract(self):
        _, matrix = planted_instance(n=20, m=4, groups=2, flip=0.4, seed=2)
        distances, _ = atom_distances(matrix, np.arange(20) % 4)
        assert np.array_equal(distances, distances.T)
        assert distances.min() >= 0.0 and distances.max() <= 1.0
        assert np.all(np.diag(distances) == 0.0)

    def test_validation(self):
        _, matrix = planted_instance(n=10, m=3, groups=2, flip=0.1, seed=3)
        with pytest.raises(ValueError, match="atom_of"):
            atom_distances(matrix, np.zeros(4, dtype=np.int64))
        with pytest.raises(ValueError, match="non-negative"):
            atom_distances(matrix, np.full(10, -1, dtype=np.int64))
        with pytest.raises(ValueError, match="contiguous"):
            atom_distances(matrix, np.full(10, 2, dtype=np.int64))  # atoms 0,1 empty
        # p outside [0, 1] used to be clipped into distances silently.
        with pytest.raises(ValueError, match="p must be a probability"):
            atom_distances(matrix, np.arange(10) % 3, p=2.0)


class TestMergeShards:
    def test_expansion_cost_decomposes_as_atom_cost_plus_constant(self):
        """d(expand(C)) = d_atoms(C) + const — the identity that makes the
        weighted-atom merge exact."""
        _, matrix = planted_instance(n=18, m=5, groups=3, flip=0.3, seed=4)
        atom_of = np.arange(18) % 6
        distances, atom_w = atom_distances(matrix, atom_of)
        atom_instance = CorrelationInstance(distances, m=5, weights=atom_w)
        full = CorrelationInstance.from_label_matrix(matrix)
        rng = np.random.default_rng(0)
        gaps = []
        for _ in range(4):
            atom_clustering = Clustering(rng.integers(0, 3, size=6))
            expanded = Clustering(atom_clustering.labels[atom_of])
            gaps.append(full.cost(expanded) - atom_instance.cost(atom_clustering))
        assert np.ptp(gaps) == pytest.approx(0.0, abs=1e-9)

    def test_exact_merge_is_optimal_over_atom_respecting_clusterings(self):
        matrix, base, copies = far_atoms_problem()
        atom_of = np.repeat(np.arange(5), copies)
        result = merge_shards(matrix, atom_of, merge="exact")
        assert result.method == "exact"
        assert result.n_atoms == 5
        # Exhaustive check over all partitions of 5 atoms (Bell(5) = 52).
        distances, atom_w = atom_distances(matrix, atom_of)
        atom_instance = CorrelationInstance(distances, m=matrix.shape[1], weights=atom_w)
        best = min(
            atom_instance.cost(Clustering(np.array(labels)))
            for labels in np.ndindex(*(5,) * 5)
        )
        assert result.atom_cost == pytest.approx(best, rel=1e-9)

    def test_merge_never_worse_than_shard_union(self):
        for merge in ("exact", "local-search"):
            _, matrix = planted_instance(n=26, m=6, groups=3, flip=0.35, seed=5)
            atom_of = np.arange(26) % 9
            result = merge_shards(matrix, atom_of, merge=merge)
            distances, atom_w = atom_distances(matrix, atom_of)
            atom_instance = CorrelationInstance(distances, m=6, weights=atom_w)
            union_cost = atom_instance.cost(Clustering(np.arange(9)))
            assert result.atom_cost <= union_cost + 1e-9

    def test_single_atom_is_trivial(self):
        _, matrix = planted_instance(n=8, m=3, groups=1, flip=0.0, seed=6)
        result = merge_shards(matrix, np.zeros(8, dtype=np.int64))
        assert result.method == "trivial"
        assert result.clustering.k == 1
        assert result.atom_cost == 0.0

    def test_validation(self):
        _, matrix = planted_instance(n=10, m=3, groups=2, flip=0.1, seed=7)
        atom_of = np.arange(10) % 3
        with pytest.raises(ValueError, match="merge strategy"):
            merge_shards(matrix, atom_of, merge="vote")
        with pytest.raises(ValueError, match="max_exact_atoms"):
            merge_shards(matrix, atom_of, max_exact_atoms=0)
        _, wide = planted_instance(n=30, m=3, groups=2, flip=0.1, seed=7)
        with pytest.raises(ValueError, match="at most"):
            merge_shards(wide, np.arange(30), merge="exact")
        with pytest.raises(ValueError, match="p must be a probability"):
            merge_shards(matrix, atom_of, p=-0.5)
        assert set(MERGE_METHODS) == {"auto", "exact", "local-search"}

    def test_auto_switches_to_local_search_above_cap(self):
        _, matrix = planted_instance(n=30, m=5, groups=3, flip=0.2, seed=8)
        result = merge_shards(matrix, np.arange(30) % 10, max_exact_atoms=4)
        assert result.method == "local-search"


class TestShardAggregate:
    def test_metamorphic_aligned_shards_equal_single_shot_on_atoms(self):
        """Sharding a duplicated matrix along duplicate-group boundaries
        is single-shot aggregation of the collapsed (atom) instance."""
        matrix, _, _ = far_atoms_problem()
        sharded = shard_aggregate(
            matrix,
            n_shards=2,
            partition="contiguous",
            shard_method="agglomerative",
            merge="exact",
            rng=0,
        )
        single = aggregate(matrix, method="exact", collapse=True)
        assert sharded.n_atoms == 5  # shards recovered exactly the duplicate groups
        assert sharded.merge_method == "exact"
        assert total_disagreement(matrix, sharded.clustering) == pytest.approx(
            single.disagreements
        )

    def test_metamorphic_duplicates_stay_together(self):
        matrix, _, copies = far_atoms_problem()
        atoms = collapse_duplicates(matrix)
        result = shard_aggregate(
            matrix, n_shards=2, shard_method="agglomerative", rng=0
        )
        for atom in range(atoms.n_atoms):
            rows = np.flatnonzero(atoms.inverse == atom)
            assert len(set(result.clustering.labels[rows].tolist())) == 1

    @pytest.mark.parametrize("seed", range(3))
    def test_differential_cost_within_envelope_of_sampling(self, seed):
        _, matrix = planted_instance(n=240, m=8, groups=4, flip=0.3, seed=seed)
        single = aggregate(matrix, method="sampling", rng=0, compute_lower_bound=False)
        sharded = aggregate(
            matrix, method="sharded", n_shards=3, rng=0, compute_lower_bound=False
        )
        assert sharded.clustering.n == 240
        assert (
            sharded.disagreements
            <= QUALITY_ENVELOPE * single.disagreements + 1e-9
        )

    def test_bit_identical_across_worker_counts(self, monkeypatch):
        _, matrix = planted_instance(n=120, m=6, groups=3, flip=0.2, seed=1)
        monkeypatch.setenv("REPRO_JOBS", "1")
        serial = shard_aggregate(matrix, n_shards=3, rng=7)
        monkeypatch.setenv("REPRO_JOBS", "2")
        forked = shard_aggregate(matrix, n_shards=3, rng=7)
        assert serial.clustering == forked.clustering
        assert forked.jobs == 2
        assert [run.cost for run in serial.shards] == [run.cost for run in forked.shards]
        assert [run.k for run in serial.shards] == [run.k for run in forked.shards]

    def test_deterministic_under_seed(self):
        _, matrix = planted_instance(n=90, m=5, groups=3, flip=0.25, seed=2)
        a = shard_aggregate(matrix, n_shards=4, partition="random", rng=42)
        b = shard_aggregate(matrix, n_shards=4, partition="random", rng=42)
        assert a.clustering == b.clustering

    def test_instance_method_shards_and_random_partition(self):
        truth, matrix = planted_instance(n=80, m=6, groups=3, flip=0.1, seed=3)
        result = shard_aggregate(
            matrix,
            n_shards=2,
            partition="random",
            shard_method="local-search",
            merge="local-search",
            rng=5,
        )
        assert result.clustering == Clustering(truth)
        assert result.merge_method == "local-search"

    def test_aggregate_dispatch_reports_shard_params(self):
        _, matrix = planted_instance(n=60, m=5, groups=3, flip=0.2, seed=4)
        result = aggregate(matrix, method="sharded", n_shards=2, rng=0)
        shard = result.params["shard"]
        assert shard["n_shards"] == 2
        assert len(shard["shards"]) == 2
        assert shard["merge_method"] in ("exact", "local-search", "trivial")
        assert result.disagreements == pytest.approx(
            total_disagreement(matrix, result.clustering)
        )

    def test_aggregate_sharded_composes_with_collapse(self):
        matrix, _, _ = far_atoms_problem()
        result = aggregate(matrix, method="sharded", n_shards=2, collapse=True, rng=0)
        assert result.clustering.n == matrix.shape[0]
        atoms = collapse_duplicates(matrix)
        for atom in range(atoms.n_atoms):
            rows = np.flatnonzero(atoms.inverse == atom)
            assert len(set(result.clustering.labels[rows].tolist())) == 1

    def test_result_report_shapes(self):
        _, matrix = planted_instance(n=40, m=4, groups=2, flip=0.2, seed=5)
        result = shard_aggregate(matrix, n_shards=2, rng=0)
        report = result.to_dict()
        assert report["n_shards"] == 2
        assert report["k"] == result.clustering.k
        assert [run["index"] for run in report["shards"]] == [0, 1]
        assert "atoms" in result.summary()

    def test_validation(self):
        _, matrix = planted_instance(n=20, m=3, groups=2, flip=0.1, seed=6)
        with pytest.raises(ValueError, match="n_shards"):
            shard_aggregate(matrix, n_shards=0)
        with pytest.raises(ValueError, match="weights"):
            shard_aggregate(matrix, weights=np.full(20, 0.5))
        with pytest.raises(ValueError, match="inner"):
            shard_aggregate(matrix, shard_method="telepathy")
        instance = CorrelationInstance.from_label_matrix(matrix)
        with pytest.raises(ValueError):
            aggregate(instance, method="sharded")

    @pytest.mark.parametrize("value", [2.5, 2.0, True, float("nan"), "2"])
    def test_rejects_non_integer_shard_counts(self, value):
        _, matrix = planted_instance(n=20, m=3, groups=2, flip=0.1, seed=6)
        with pytest.raises(ValueError, match="n_shards"):
            shard_aggregate(matrix, n_shards=value)

    def test_accepts_numpy_integer_shard_count(self):
        _, matrix = planted_instance(n=20, m=3, groups=2, flip=0.1, seed=6)
        result = shard_aggregate(matrix, n_shards=np.int64(2), rng=0)
        assert len(result.shards) == 2


class TestShardCli:
    @pytest.fixture
    def votes_csv(self, tmp_path):
        path = tmp_path / "votes.csv"
        generate_votes(n=90, rng=0).to_csv(path)
        return str(path)

    def test_shard_json_report(self, votes_csv, capsys):
        assert main(["shard", votes_csv, "--shards", "3", "--seed", "7", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n_shards"] == 3
        assert len(report["shards"]) == 3
        assert report["seed"] == 7
        assert report["merge_method"] in ("exact", "local-search", "trivial")
        assert report["cost"] == pytest.approx(
            report["disagreements"] / report["dataset"]["attributes"]
        )

    def test_shard_human_output_and_labels(self, votes_csv, tmp_path, capsys):
        out_path = tmp_path / "labels.txt"
        code = main(
            ["shard", votes_csv, "--shards", "2", "--merge", "local-search",
             "--out", str(out_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "shards" in out and "merge" in out and "D(C)" in out
        assert np.loadtxt(out_path, dtype=int).shape == (90,)

    def test_shard_trace_renders_pipeline_spans(self, votes_csv, capsys):
        assert main(["shard", votes_csv, "--shards", "2", "--trace"]) == 0
        out = capsys.readouterr().out
        for name in ("shard.partition", "shard.solve", "shard.merge"):
            assert name in out

    def test_shard_trace_with_json_keeps_stdout_parseable(self, votes_csv, capsys):
        assert main(["shard", votes_csv, "--shards", "2", "--trace", "--json"]) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)  # tree went to stderr, not stdout
        assert report["n_shards"] == 2
        assert "shard.merge" in captured.err


class TestWeightedShardCost:
    """A weighted SAMPLING shard's diagnostic cost is label-native."""

    @staticmethod
    def _atoms():
        _, matrix = planted_instance(n=400, m=5, groups=4, flip=0.3, seed=8)
        matrix[np.random.default_rng(8).random(matrix.shape) < 0.05] = -1
        return collapse_duplicates(matrix)

    def test_cost_matches_the_lazy_instance_cost(self):
        atoms = self._atoms()
        weights = atoms.weights.astype(np.float64)
        plan = plan_shards(atoms.n_atoms, 2)
        config = {
            "shard_method": "sampling",
            "inner": "agglomerative",
            "p": 0.5,
            "weights": weights,
            "backend": "auto",
            "params": {"sample_size": 60},
        }
        children = np.random.default_rng(0).spawn(2)
        for index, indices in enumerate(plan):
            labels, cost, _, _ = _solve_shard((atoms.matrix, plan, children, config), index)
            lazy = CorrelationInstance.lazy_from_label_matrix(
                atoms.matrix[indices], weights=weights[indices]
            )
            assert cost == pytest.approx(lazy.cost(Clustering(labels)), rel=1e-12)

    def test_solving_computes_no_row_block(self):
        atoms = self._atoms()
        with tracing() as trace:
            result = shard_aggregate(
                atoms.matrix,
                n_shards=2,
                weights=atoms.weights.astype(np.float64),
                sample_size=60,
                rng=0,
                n_jobs=1,
            )
        assert len(result.shards) == 2
        assert trace.find("shard:0") and not trace.find("instance.block")
