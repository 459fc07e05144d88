"""Tests for the AGGLOMERATIVE algorithm (repro.algorithms.agglomerative)."""

import importlib
import multiprocessing
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Clustering, aggregate
from repro.core import CorrelationInstance, _native
from repro.core.atoms import collapse_duplicates
from repro.core.kernels import default_dtype
from repro.core.labels import MISSING
from repro.algorithms import agglomerative
from repro.cluster import linkage
from repro.cluster.linkage import RULES, _merge, _start, merge_loops
from repro.datasets import generate_mushrooms
from repro.obs import collecting, get_registry, tracing

from conftest import planted_instance, random_aggregation_instance

# The module itself: the package exports the function under the same name.
agglomerative_module = importlib.import_module("repro.algorithms.agglomerative")


def reference_agglomerative(instance, threshold=0.5, force_k=None):
    """Straightforward O(n^3) re-implementation used as an oracle."""
    X = np.asarray(instance.X, dtype=np.float64)
    n = instance.n
    clusters = [[i] for i in range(n)]
    while len(clusters) > 1:
        best = None
        best_value = np.inf
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                value = X[np.ix_(clusters[i], clusters[j])].mean()
                if value < best_value - 1e-12:
                    best_value = value
                    best = (i, j)
        if force_k is None and best_value >= threshold:
            break
        if force_k is not None and len(clusters) <= force_k:
            break
        i, j = best
        clusters[i] = clusters[i] + clusters[j]
        del clusters[j]
    labels = np.empty(n, dtype=np.int64)
    for cluster_id, members in enumerate(clusters):
        labels[members] = cluster_id
    return Clustering(labels)


class TestBasics:
    def test_figure1_optimum(self, figure1_instance):
        assert agglomerative(figure1_instance) == Clustering([0, 1, 0, 1, 2, 2])

    def test_single_object(self):
        instance = CorrelationInstance.from_distances(np.zeros((1, 1)))
        assert agglomerative(instance).k == 1

    def test_identical_objects_merge_fully(self):
        matrix = np.zeros((10, 3), dtype=np.int32)
        instance = CorrelationInstance.from_label_matrix(matrix)
        assert agglomerative(instance).k == 1

    def test_distinct_objects_stay_apart(self):
        matrix = np.tile(np.arange(8, dtype=np.int32)[:, None], (1, 3))
        instance = CorrelationInstance.from_label_matrix(matrix)
        assert agglomerative(instance).k == 8

    def test_force_k(self, figure1_instance):
        for k in (1, 2, 3, 4, 6):
            assert agglomerative(figure1_instance, force_k=k).k == k

    def test_force_k_out_of_range(self, figure1_instance):
        with pytest.raises(ValueError):
            agglomerative(figure1_instance, force_k=0)
        with pytest.raises(ValueError):
            agglomerative(figure1_instance, force_k=7)

    def test_average_distance_within_clusters_below_half(self):
        """The paper's key property: every produced cluster has average
        pairwise distance at most 1/2 ("the opinion of the majority is
        respected on average")."""
        for seed in range(6):
            _, instance = random_aggregation_instance(n=25, m=5, k=3, seed=seed)
            result = agglomerative(instance)
            X = instance.X
            for members in result.clusters():
                if members.size < 2:
                    continue
                sub = X[np.ix_(members, members)]
                pairs = members.size * (members.size - 1)
                assert sub.sum() / pairs <= 0.5 + 1e-9


def random_float_instance(n: int, seed: int) -> CorrelationInstance:
    """A generic (tie-free) correlation instance with uniform distances."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.05, 0.95, size=(n, n))
    X = (X + X.T) / 2.0
    np.fill_diagonal(X, 0.0)
    return CorrelationInstance.from_distances(X)


class TestAgainstReference:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_cubic_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 16))
        instance = random_float_instance(n, seed + 50)
        ours = agglomerative(instance)
        oracle = reference_agglomerative(instance)
        assert ours == oracle

    @pytest.mark.parametrize("seed", range(5))
    def test_force_k_matches_reference(self, seed):
        instance = random_float_instance(12, seed)
        for k in (2, 4, 6):
            ours = agglomerative(instance, force_k=k)
            oracle = reference_agglomerative(instance, force_k=k)
            assert ours == oracle

    @pytest.mark.parametrize("seed", range(10))
    def test_factor_two_for_three_clusterings(self, seed):
        """Paper §4: for m = 3 AGGLOMERATIVE is a 2-approximation."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 11))
        _, instance = random_aggregation_instance(n=n, m=3, k=3, seed=seed + 700)
        from repro.algorithms import exact_optimum

        _, optimal = exact_optimum(instance)
        cost = instance.cost(agglomerative(instance))
        if optimal == 0:
            assert cost == 0
        else:
            assert cost <= 2.0 * optimal + 1e-9

    def test_threshold_parameter(self, figure1_instance):
        # Threshold 0 forbids all merging; threshold 1.01 merges everything.
        assert agglomerative(figure1_instance, threshold=0.0).k == 6
        assert agglomerative(figure1_instance, threshold=1.01).k == 1


class TestArgumentValidation:
    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -float("inf"), "0.5", None])
    def test_bad_threshold(self, figure1_instance, threshold):
        with pytest.raises(ValueError, match="threshold"):
            agglomerative(figure1_instance, threshold=threshold)

    @pytest.mark.parametrize("force_k", [2.5, 2.0, True, False, "2"])
    def test_bad_force_k(self, figure1_instance, force_k):
        with pytest.raises(ValueError, match="force_k"):
            agglomerative(figure1_instance, force_k=force_k)

    def test_numpy_scalars_accepted(self, figure1_instance):
        expected = agglomerative(figure1_instance, threshold=0.5, force_k=3)
        ours = agglomerative(figure1_instance, threshold=np.float32(0.5), force_k=np.int64(3))
        assert ours == expected

    def test_through_aggregate(self, figure1_clusterings):
        with pytest.raises(ValueError, match="threshold"):
            aggregate(figure1_clusterings, threshold=float("nan"))
        with pytest.raises(ValueError, match="force_k"):
            aggregate(figure1_clusterings, force_k=2.5)
        with pytest.raises(ValueError, match="force_k"):
            aggregate(figure1_clusterings, force_k=True)
        assert aggregate(figure1_clusterings, threshold=0.5, force_k=2).clustering.k == 2


def previous_agglomerative(instance, threshold=0.5, force_k=None):
    """The merge loop over the full ``n x n`` matrix that writes infinity
    into every retired row and column (test-only oracle, kept verbatim).

    Unlike :func:`reference_agglomerative` it shares the production code's
    float arithmetic and first-index tie-breaking, so it is exact on
    tie-heavy and float32 instances too.
    """
    n = instance.n
    if n == 1:
        return Clustering.single_cluster(1)
    D = instance.backend.materialize(default_dtype(n), copy=True)
    np.fill_diagonal(D, np.inf)
    active = np.ones(n, dtype=bool)
    sizes = instance.effective_weights().copy()
    labels = np.arange(n, dtype=np.int64)
    nn_idx = np.argmin(D, axis=1)
    nn_val = D[np.arange(n), nn_idx]
    remaining = n
    target = 1 if force_k is None else force_k
    while remaining > target:
        candidates = np.flatnonzero(active)
        pos = int(np.argmin(nn_val[candidates]))
        i = int(candidates[pos])
        j = int(nn_idx[i])
        value = float(nn_val[i])
        if force_k is None and value >= threshold:
            break

        si, sj = sizes[i], sizes[j]
        merged_row = (si * D[i] + sj * D[j]) / (si + sj)
        D[i] = merged_row
        D[:, i] = merged_row
        D[i, i] = np.inf
        D[j, :] = np.inf
        D[:, j] = np.inf
        sizes[i] = si + sj
        active[j] = False
        labels[labels == j] = i
        remaining -= 1
        if remaining == 1:
            break

        row_i = D[i]
        nn_idx[i] = int(np.argmin(row_i))
        nn_val[i] = row_i[nn_idx[i]]

        stale = np.flatnonzero(active & ((nn_idx == i) | (nn_idx == j)))
        for r in stale:
            if r == i:
                continue
            row = D[r]
            nn_idx[r] = int(np.argmin(row))
            nn_val[r] = row[nn_idx[r]]

        better = active.copy()
        better[i] = False
        improved = np.flatnonzero(better & (D[:, i] < nn_val))
        nn_idx[improved] = i
        nn_val[improved] = D[improved, i]
    return Clustering(labels)


def traced_agglomerative(instance, **params):
    """Run agglomerative() and return its result and merge-span attributes."""
    with tracing() as trace:
        result = agglomerative(instance, **params)
    (merge,) = trace.find("agglomerative.merge")
    return result, merge.attrs


def bit_rows(text: str) -> np.ndarray:
    """A label matrix written as one string of 0/1 digits per row."""
    return np.array([[int(c) for c in row] for row in text.split()], dtype=np.int32)


@st.composite
def duplicate_heavy_cases(draw):
    """A label-built instance with few label values, so rows repeat, and
    the arguments of one agglomerative() call on it."""
    n = draw(st.integers(2, 150))
    m = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = rng.integers(0, draw(st.integers(1, 3)), size=(n, m)).astype(np.int32)
    model = draw(st.sampled_from(["complete", "holes", "average"]))
    p = 0.5
    if model == "holes":
        p = draw(st.sampled_from([0.0, 0.25, 0.5]))
        holes = rng.random((n, m)) < 0.15
        holes[0] = False  # no column entirely missing
        matrix[holes] = MISSING
    weights = None
    if draw(st.booleans()):
        weights = rng.integers(1, 5, size=n).astype(np.float64)
        if draw(st.booleans()):
            weights += rng.random(n)
    instance = CorrelationInstance.from_label_matrix(
        matrix,
        p=p,
        missing="average" if model == "average" else "coin-flip",
        weights=weights,
    )
    threshold = draw(st.sampled_from([0.0, 0.2, 0.5, 0.75]))
    force_k = draw(st.none() | st.integers(1, n))
    return instance, threshold, force_k


def copy_run(buffer, state, merges):
    """Independent copies of one merge loop's arguments, ``D`` at the copied
    buffer's front as the loop requires."""
    buffer = buffer.copy()
    D = buffer[: state.D.size].reshape(state.D.shape)
    state = type(state)(D, *(array.copy() for array in state[1:]))
    return buffer, state, merges.copy()


def assert_same_loop_result(ours, theirs):
    """Two merge loops' ``(state, counts, merges)`` agree bit for bit: the
    active distances, every cache entry, size and slot object, the merge
    lists and the counters."""
    (state, counts, merges), (other, other_counts, other_merges) = ours, theirs
    assert counts == other_counts
    assert merges.tobytes() == other_merges.tobytes()
    for name, ours_array, theirs_array in zip(state._fields[1:], state[1:], other[1:]):
        assert ours_array.dtype == theirs_array.dtype, name
        assert ours_array.tobytes() == theirs_array.tobytes(), name
    active = np.ix_(state.penalty == 0, state.penalty == 0)
    assert state.D[active].tobytes() == other.D[active].tobytes()


def both_loops(run):
    """A merge loop that runs ``run`` and the numpy loop from the same state
    and asserts they agree (see :func:`assert_same_loop_result`)."""

    def merge(buffer, state, merges, rule, target, threshold):
        numpy_buffer, numpy_state, numpy_merges = copy_run(buffer, state, merges)
        expected = _merge(numpy_buffer, numpy_state, numpy_merges, rule, target, threshold)
        result = run(buffer, state, merges, rule, target, threshold)
        assert_same_loop_result((*result, merges), (*expected, numpy_merges))
        return result

    return merge


@pytest.fixture
def both_engines(monkeypatch):
    """Every agglomerative() call runs its merges on the compiled loop and on
    the numpy loop, from the same state, and fails unless they agree bit for
    bit; the compiled loop's result goes on.  Numpy alone where nothing
    compiles (``TestCompiledLoop`` fails then if a compiler is on PATH)."""
    engine = agglomerative_module._merge_engine

    def both(dtype):
        name, run = engine(dtype)
        return (name, run) if run is _merge else (name, both_loops(run))

    monkeypatch.setattr(agglomerative_module, "_merge_engine", both)


def merge_from_start(instance, dtype, run, threshold=0.5, force_k=None, rule="average"):
    """``run`` from the loop's first state on a ``dtype`` working matrix, with
    agglomerative()'s arguments; returns its ``(state, counts, merges)``."""
    n = instance.n
    buffer = instance.backend.materialize(dtype, copy=True).reshape(-1)
    D = buffer.reshape(n, n)
    np.fill_diagonal(D, np.inf)
    merges = np.zeros((n - 1, 3), dtype=np.float64)
    state = _start(D, instance.effective_weights().copy())
    target = 1 if force_k is None else force_k
    stop = threshold if force_k is None else None
    state, counts = run(buffer, state, merges, rule, target, stop)
    return state, counts, merges


def assert_engines_agree(instance, dtype=None, threshold=0.5, force_k=None, rule="average"):
    """The compiled and the numpy loop reach the same state from the same
    start (``dtype`` defaults to agglomerative()'s working dtype)."""
    dtype = default_dtype(instance.n) if dtype is None else dtype
    engine, compiled = agglomerative_module._merge_engine(np.dtype(dtype))
    if engine == "numpy":
        pytest.skip("no compiled merge loop on this platform")
    ours = merge_from_start(instance, dtype, compiled, threshold, force_k, rule)
    theirs = merge_from_start(instance, dtype, _merge, threshold, force_k, rule)
    assert_same_loop_result(ours, theirs)


#: Inputs on which a duplicate still waiting to merge wins a tie (rows,
#: weights, threshold, force_k).
TIE_INPUTS = [
    (
        "11100 10110 10011 11011 11011 00001 11011 10001 01000",
        [3, 2, 1, 3, 3, 2, 2, 1, 2],
        0.2,
        5,
    ),
    (
        "00100 00100 01011 11010 00101 10000 00001 01101 01011 11011 10110 00101"
        " 11110 00101 00001 00101 10110 00111 01111 10101 01110 11101 10100 00000"
        " 00100 10110 00100 11001 11100 11010 11001 10111 01111 10011",
        None,
        0.75,
        9,
    ),
]


def tie_instance(rows, weights):
    weights = None if weights is None else np.array(weights, dtype=np.float64)
    return CorrelationInstance.from_label_matrix(bit_rows(rows), weights=weights)


def mushrooms_rows(n: int, seed: int) -> np.ndarray:
    rows = np.random.default_rng(seed).choice(8124, size=n, replace=False)
    return generate_mushrooms(rng=0).data[rows]


def planted_matrix(n: int, m: int, seed: int) -> np.ndarray:
    return planted_instance(n=n, m=m, groups=6, flip=0.2, seed=seed)[1]


@pytest.mark.usefixtures("both_engines")
class TestAgainstPreviousLoop:
    """Retired-slot masking, compaction, batched repair and the parent
    array reproduce the previous loop's merges exactly, on both engines."""

    @pytest.mark.parametrize("n, seed", [(300, 0), (450, 1), (600, 2)])
    def test_generic_instances_compact_several_times(self, n, seed):
        _, instance = random_aggregation_instance(n=n, m=7, k=12, seed=seed)
        ours, attrs = traced_agglomerative(instance, force_k=3)
        assert attrs["compactions"] >= 2
        assert ours == previous_agglomerative(instance, force_k=3)
        assert agglomerative(instance) == previous_agglomerative(instance)

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_tie_heavy_planted(self, m, seed):
        instance = CorrelationInstance.from_label_matrix(planted_matrix(500, m, seed))
        for force_k in (None, 2, 40):
            expected = previous_agglomerative(instance, force_k=force_k)
            assert agglomerative(instance, force_k=force_k) == expected

    def test_mushrooms_with_missing_labels(self):
        matrix = mushrooms_rows(500, seed=3)
        assert (matrix < 0).any()
        instance = CorrelationInstance.from_label_matrix(matrix)
        assert agglomerative(instance) == previous_agglomerative(instance)
        assert agglomerative(instance, force_k=5) == previous_agglomerative(instance, force_k=5)

    @pytest.mark.parametrize("m", [3, 4])
    def test_weighted_atoms(self, m):
        atoms = collapse_duplicates(planted_matrix(2000, m, seed=m))
        assert atoms.n_atoms > 2 * 64
        instance = CorrelationInstance.from_label_matrix(atoms.matrix, weights=atoms.weights)
        for force_k in (None, 2):
            expected = previous_agglomerative(instance, force_k=force_k)
            assert agglomerative(instance, force_k=force_k) == expected

    def test_force_k_around_a_compaction_point(self):
        # 400 slots compact to 200 on the merge that leaves 200 clusters.
        _, instance = random_aggregation_instance(n=400, m=5, k=10, seed=4)
        for force_k, compactions in ((201, 0), (200, 1), (199, 1)):
            ours, attrs = traced_agglomerative(instance, force_k=force_k)
            assert attrs["compactions"] == compactions
            assert ours == previous_agglomerative(instance, force_k=force_k)

    @pytest.mark.parametrize("threshold", [0.0, 1.01])
    def test_threshold_extremes(self, threshold):
        _, instance = random_aggregation_instance(n=300, m=5, k=8, seed=5)
        ours = agglomerative(instance, threshold=threshold)
        assert ours == previous_agglomerative(instance, threshold=threshold)
        assert ours.k == (300 if threshold == 0.0 else 1)

    @pytest.mark.no_contracts
    def test_float32_working_matrix(self):
        # Above 4096 objects the working matrix is float32; the merged row
        # must be compared after it is stored at that precision.
        matrix = mushrooms_rows(4200, seed=0)
        instance = CorrelationInstance.from_label_matrix(matrix)
        assert default_dtype(instance.n) == np.float32
        assert agglomerative(instance) == previous_agglomerative(instance)

    def test_improved_scan_fires_on_rounding(self):
        # In exact arithmetic average linkage is reducible: a merged cluster
        # is never closer to a row than that row's cached minimum.  Rounding
        # of the Lance-Williams average breaks that here, once.
        instance = CorrelationInstance.from_label_matrix(mushrooms_rows(30, seed=8))
        ours, attrs = traced_agglomerative(instance)
        assert attrs["improved"] >= 1
        assert ours == previous_agglomerative(instance)

    # Duplicate rows, which merge first, at height 0, and break many ties.

    @settings(max_examples=200, deadline=None)
    @given(duplicate_heavy_cases())
    def test_duplicate_heavy_inputs(self, case):
        # Against the loop on a raw copy of the same distances, which has no
        # labels.  (On about 2 in 1000 such inputs previous_agglomerative
        # breaks a tie otherwise: the loop keeps a stale row's equal minimum
        # at the merged slot where the oracle's full argmin finds an earlier
        # one.)
        instance, threshold, force_k = case
        rows = CorrelationInstance(instance.X, weights=instance.weights)
        params = {"threshold": threshold, "force_k": force_k}
        assert agglomerative(instance, **params) == agglomerative(rows, **params)

    @pytest.mark.parametrize("rows, weights, threshold, force_k", TIE_INPUTS)
    def test_pending_duplicate_wins_a_tie(self, rows, weights, threshold, force_k):
        # While a duplicate group merges, a row whose cache is recomputed
        # finds its minimum both at a duplicate still waiting to merge and at
        # a later slot; the duplicate comes first.
        instance = tie_instance(rows, weights)
        ours = agglomerative(instance, threshold=threshold, force_k=force_k)
        assert ours == previous_agglomerative(instance, threshold=threshold, force_k=force_k)

    @pytest.mark.no_contracts
    @pytest.mark.parametrize("weighted", [False, True])
    def test_float32_duplicates(self, weighted):
        matrix = planted_matrix(4200, 2, seed=6)
        weights = None
        if weighted:
            weights = np.random.default_rng(6).integers(1, 4, size=4200).astype(np.float64)
        instance = CorrelationInstance.from_label_matrix(matrix, weights=weights)
        assert default_dtype(instance.n) == np.float32
        assert agglomerative(instance, force_k=7) == previous_agglomerative(instance, force_k=7)

    @pytest.mark.parametrize("p, missing", [(1.0, "coin-flip"), (0.5, "average")])
    def test_zero_distance_without_identical_rows_keeps_the_row_loop(self, p, missing):
        # With a missing entry, p = 1 and "average" put rows that differ at
        # distance 0.
        matrix = planted_matrix(300, 3, seed=2)
        matrix[::7, 1] = MISSING
        instance = CorrelationInstance.from_label_matrix(matrix, p=p, missing=missing)
        assert agglomerative(instance) == previous_agglomerative(instance)

    def test_force_k_above_the_atoms_keeps_the_row_loop(self):
        # Stopping just before, at and just after the last height-0 merge.
        matrix = planted_matrix(300, 2, seed=3)
        atoms = collapse_duplicates(matrix).n_atoms
        instance = CorrelationInstance.from_label_matrix(matrix)
        for force_k in (atoms + 1, atoms, atoms - 1):
            ours = agglomerative(instance, force_k=force_k)
            assert ours.k == force_k
            assert ours == previous_agglomerative(instance, force_k=force_k)

    def test_every_merge_is_counted(self):
        instance = CorrelationInstance.from_label_matrix(planted_matrix(500, 3, seed=1))
        with collecting():
            get_registry().reset()
            with tracing() as trace:
                result = agglomerative(instance)
            merges = get_registry().snapshot()["counters"]["agglomerative.merges"]
        (merge,) = trace.find("agglomerative.merge")
        assert merges == merge.attrs["merges"] == 500 - result.k


class TestEngines:
    """The compiled and the numpy merge loop, from the same state, reach the
    same distances, caches, sizes, slot objects, parents and counters, bit
    for bit.  (Every agglomerative() call of ``TestAgainstPreviousLoop`` and
    ``TestAgainstScipy`` compares them too.)"""

    @settings(max_examples=200, deadline=None)
    @given(duplicate_heavy_cases(), st.sampled_from([np.float32, np.float64]))
    def test_same_state_on_duplicate_heavy_inputs(self, case, dtype):
        # The labels can hide a cache that differs only on a tie; the state
        # cannot.
        instance, threshold, force_k = case
        assert_engines_agree(instance, dtype, threshold, force_k)

    @settings(max_examples=150, deadline=None)
    @given(
        duplicate_heavy_cases(),
        st.sampled_from([np.float32, np.float64]),
        st.sampled_from(RULES),
    )
    def test_same_state_under_every_rule(self, case, dtype, rule):
        # Single, complete and Ward linkage on the same tie-heavy inputs.
        instance, threshold, force_k = case
        assert_engines_agree(instance, dtype, threshold, force_k, rule)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_same_state_on_planted_input(self, dtype, weighted):
        matrix = planted_matrix(600, 2, seed=4)
        weights = None
        if weighted:
            weights = np.random.default_rng(4).integers(1, 4, size=600) + 0.3
        instance = CorrelationInstance.from_label_matrix(matrix, weights=weights)
        for threshold, force_k in ((0.5, None), (0.2, None), (0.5, 3)):
            assert_engines_agree(instance, dtype, threshold, force_k)

    @pytest.mark.parametrize("rows, weights, threshold, force_k", TIE_INPUTS)
    def test_same_state_on_tie_inputs(self, rows, weights, threshold, force_k):
        assert_engines_agree(tie_instance(rows, weights), np.float64, threshold, force_k)

    def test_same_state_where_rounding_improves_a_row(self):
        # The input of test_improved_scan_fires_on_rounding.
        instance = CorrelationInstance.from_label_matrix(mushrooms_rows(30, seed=8))
        assert_engines_agree(instance)
        assert merge_from_start(instance, np.float64, _merge)[1]["improved"] >= 1


@pytest.mark.usefixtures("both_engines")
class TestAgainstScipy:
    """The cut below 1/2 of SciPy's average linkage, on tie-free instances."""

    @pytest.mark.parametrize("n, seed", [(12, 0), (25, 1), (40, 2), (60, 3), (90, 4), (150, 5)])
    def test_cut_below_half_matches_scipy_average_linkage(self, n, seed):
        sch = pytest.importorskip("scipy.cluster.hierarchy")
        from scipy.spatial.distance import squareform

        instance = random_float_instance(n, seed)
        Z = sch.linkage(squareform(instance.X, checks=False), method="average")
        if np.any(np.abs(Z[:, 2] - 0.5) < 1e-9):
            pytest.skip("a merge height lies within 1e-9 of 1/2")
        cut = sch.fcluster(Z, np.nextafter(0.5, 0), criterion="distance")
        ours = agglomerative(instance)
        assert 1 < ours.k < n
        assert ours == Clustering(cut)


class TestAgainstLinkage:
    """AGGLOMERATIVE with ``force_k`` is the average-linkage dendrogram of
    the same distances cut at ``force_k`` clusters: one loop makes both."""

    @pytest.mark.parametrize(
        "instance",
        [
            random_float_instance(60, seed=7),
            CorrelationInstance.from_label_matrix(planted_matrix(90, 3, seed=1)),
            CorrelationInstance.from_label_matrix(mushrooms_rows(70, seed=2)),
        ],
        ids=["uniform", "planted", "mushrooms"],
    )
    def test_force_k_is_the_linkage_cut(self, instance):
        assert default_dtype(instance.n) == np.float64
        dendrogram = linkage(distances=instance.X, method="average")
        for k in range(1, instance.n + 1):
            assert agglomerative(instance, force_k=k) == Clustering(dendrogram.cut(k)), k


def compiled_float64_loop():
    return merge_loops().get(np.dtype(np.float64))


def first_engine_in_fork(barrier, results):
    barrier.wait()
    instance = CorrelationInstance.from_label_matrix(planted_matrix(120, 3, seed=0))
    result, attrs = traced_agglomerative(instance)
    results.put((attrs["engine"], result.labels.tolist()))


class TestCompiledLoop:
    """Building and loading the compiled loop, and falling back to numpy."""

    def test_a_compiler_on_path_means_the_compiled_loop_runs(self):
        # Otherwise every engine comparison above would pass on numpy alone.
        if not any(shutil.which(name) for name in _native.COMPILERS):
            pytest.skip("no C compiler on PATH")
        assert compiled_float64_loop() is not None
        assert merge_loops().get(np.dtype(np.float32)) is not None
        instance = CorrelationInstance.from_label_matrix(planted_matrix(200, 3, seed=0))
        assert traced_agglomerative(instance)[1]["engine"] == "c"

    def test_without_a_compiler_numpy_gives_the_same_result(self, fresh_loader, monkeypatch):
        instance = CorrelationInstance.from_label_matrix(mushrooms_rows(300, seed=5))
        with monkeypatch.context() as patch:
            patch.setattr(_native.shutil, "which", lambda name: None)
            ours, attrs = traced_agglomerative(instance)
        assert attrs["engine"] == "numpy" and not any(fresh_loader.iterdir())
        _native.library.cache_clear()
        compiled, compiled_attrs = traced_agglomerative(instance)
        if compiled_attrs["engine"] == "c":  # built into the fresh cache
            assert ours == compiled and instance.cost(ours) == instance.cost(compiled)
            assert attrs == compiled_attrs | {"engine": "numpy"}

    def test_refuses_arrays_of_another_dtype(self):
        engine, run = agglomerative_module._merge_engine(np.dtype(np.float64))
        if engine == "numpy":
            pytest.skip("no compiled merge loop on this platform")

        def float32_sizes(buffer, state, *args):
            return run(buffer, state._replace(sizes=state.sizes.astype(np.float32)), *args)

        instance = CorrelationInstance.from_label_matrix(planted_matrix(50, 2, seed=0))
        with pytest.raises(ValueError, match="compiled merge loop"):
            merge_from_start(instance, np.float64, float32_sizes)

    @pytest.mark.parametrize("mode", [0o770, 0o707])
    def test_refuses_a_cache_directory_others_can_write(self, fresh_loader, mode):
        if compiled_float64_loop() is None:
            pytest.skip("nothing compiles here")
        (built,) = fresh_loader.iterdir()
        fresh_loader.chmod(mode)
        _native.library.cache_clear()
        assert compiled_float64_loop() is None
        assert list(fresh_loader.iterdir()) == [built]
        fresh_loader.chmod(0o700)
        _native.library.cache_clear()
        assert compiled_float64_loop() is not None

    def test_refuses_an_object_others_can_write(self, fresh_loader):
        if compiled_float64_loop() is None:
            pytest.skip("nothing compiles here")
        (built,) = fresh_loader.iterdir()
        built.chmod(0o722)
        _native.library.cache_clear()
        assert compiled_float64_loop() is None

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
    def test_two_forked_first_calls_both_load(self, fresh_loader):
        if not any(shutil.which(name) for name in _native.COMPILERS):
            pytest.skip("no C compiler on PATH")
        context = multiprocessing.get_context("fork")
        barrier, results = context.Barrier(2), context.Queue()
        workers = [
            context.Process(target=first_engine_in_fork, args=(barrier, results))
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        outcomes = [results.get(timeout=120) for _ in workers]
        for worker in workers:
            worker.join(timeout=60)
            assert worker.exitcode == 0
        assert [engine for engine, _ in outcomes] == ["c", "c"]
        assert outcomes[0][1] == outcomes[1][1]
        assert [path.suffix for path in fresh_loader.iterdir()] == [".so"]

    def test_import_starts_no_compiler(self):
        code = (
            "import subprocess\n"
            "def refuse(*args, **kwargs):\n"
            "    raise AssertionError('a process was started')\n"
            "subprocess.Popen = subprocess.run = refuse\n"
            "import repro, repro.algorithms.agglomerative, repro.algorithms.local_search\n"
            "from repro.core import _native\n"
            "assert _native.library.cache_info().currsize == 0\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)
