"""Tests for hierarchical linkage (repro.cluster.linkage), cross-checked against scipy."""

import numpy as np
import pytest
import scipy.cluster.hierarchy as sch

from repro.core.labels import contingency_table
from repro.cluster import hierarchical, linkage
from repro.cluster.distances import euclidean_matrix, squared_euclidean
from repro.cluster.linkage import merge_roots
from repro.datasets import seven_groups

METHODS = ("single", "complete", "average", "ward")


def random_points(seed, n=40, d=2):
    return np.random.default_rng(seed).normal(size=(n, d))


def partitions_equal(a: np.ndarray, b: np.ndarray) -> bool:
    table = contingency_table(a, b)
    return int((table > 0).sum()) == max(table.shape) and table.shape[0] == table.shape[1]


class TestAgainstScipy:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_flat_cuts_match_scipy(self, method, seed):
        points = random_points(seed)
        Z = sch.linkage(points, method)
        ours = linkage(points, method=method)
        for k in (2, 3, 5, 8):
            theirs = sch.fcluster(Z, k, "maxclust") - 1
            assert partitions_equal(ours.cut(k), theirs), (method, k)

    @pytest.mark.parametrize("method", ("single", "complete", "average"))
    def test_heights_match_scipy(self, method):
        points = random_points(5)
        Z = sch.linkage(points, method)
        ours = linkage(points, method=method)
        assert np.allclose(np.sort(Z[:, 2]), ours.heights(), rtol=1e-9)

    def test_ward_heights_are_squared_scale(self):
        # Our Ward works in squared-Euclidean scale; scipy reports sqrt of
        # a related quantity — only the merge *structure* must agree.
        points = random_points(9)
        Z = sch.linkage(points, "ward")
        ours = linkage(points, method="ward")
        for k in (2, 4, 6):
            theirs = sch.fcluster(Z, k, "maxclust") - 1
            assert partitions_equal(ours.cut(k), theirs)


class TestApi:
    def test_cut_range_validation(self):
        result = linkage(random_points(0, n=10))
        with pytest.raises(ValueError):
            result.cut(0)
        with pytest.raises(ValueError):
            result.cut(11)

    def test_cut_extremes(self):
        result = linkage(random_points(1, n=12))
        assert len(np.unique(result.cut(1))) == 1
        assert len(np.unique(result.cut(12))) == 12

    def test_cut_height_zero_gives_singletons(self):
        result = linkage(random_points(2, n=9))
        assert len(np.unique(result.cut_height(-1.0))) == 9

    def test_cut_height_infinity_gives_one_cluster(self):
        result = linkage(random_points(3, n=9))
        assert len(np.unique(result.cut_height(np.inf))) == 1

    def test_distance_matrix_input(self):
        points = random_points(4, n=15)
        from repro.cluster import euclidean_matrix

        via_points = linkage(points, method="average")
        via_matrix = linkage(distances=euclidean_matrix(points), method="average")
        assert partitions_equal(via_points.cut(4), via_matrix.cut(4))

    def test_ward_requires_points(self):
        with pytest.raises(ValueError):
            linkage(distances=np.zeros((3, 3)), method="ward")

    def test_exactly_one_input(self):
        points = random_points(5, n=5)
        with pytest.raises(ValueError):
            linkage(points, distances=np.zeros((5, 5)))
        with pytest.raises(ValueError):
            linkage()

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            linkage(random_points(0, n=5), method="centroid")

    def test_single_point(self):
        result = linkage(np.zeros((1, 2)))
        assert result.merges.shape == (0, 3)
        assert result.cut(1).tolist() == [0]

    def test_hierarchical_convenience(self):
        points = random_points(6, n=20)
        labels = hierarchical(points, 4, "complete")
        assert len(np.unique(labels)) == 4

    def test_monotone_heights(self):
        # All four linkages are reducible, so the loop never merges below an
        # earlier height, up to the rounding of the Lance-Williams row.
        for method in METHODS:
            for seed in (7, 8, 9):
                heights = linkage(random_points(seed, n=120, d=3), method=method).merges[:, 2]
                assert np.all(np.diff(heights) >= -1e-9 * heights.max()), method


def lance_williams_row(method, d_a, d_b, d_ab, size_a, size_b, sizes):
    """Distance from the merged cluster (a ∪ b) to every other cluster."""
    if method == "single":
        return np.minimum(d_a, d_b)
    if method == "complete":
        return np.maximum(d_a, d_b)
    if method == "average":
        return (size_a * d_a + size_b * d_b) / (size_a + size_b)
    total = size_a + size_b + sizes
    return ((size_a + sizes) * d_a + (size_b + sizes) * d_b - sizes * d_ab) / total


def reference_merges(points: np.ndarray, method: str) -> np.ndarray:
    """The nearest-neighbour-chain algorithm, valid for the four linkages as
    they are reducible, with a merged-away cluster's row and column set to
    infinity after every merge (test-only oracle).  Its merges are in chain
    order, not height order."""
    pts = np.asarray(points, dtype=np.float64)
    if method == "ward":
        D = squared_euclidean(pts, pts)
        np.fill_diagonal(D, 0.0)
    else:
        D = euclidean_matrix(pts)
    n = D.shape[0]
    np.fill_diagonal(D, np.inf)
    active = np.ones(n, dtype=bool)
    sizes = np.ones(n, dtype=np.int64)
    merges = np.empty((n - 1, 3), dtype=np.float64)
    chain: list[int] = []
    merged = 0
    while merged < n - 1:
        if not chain:
            chain.append(int(np.flatnonzero(active)[0]))
        while True:
            a = chain[-1]
            row = np.where(active, D[a], np.inf)
            row[a] = np.inf
            b = int(np.argmin(row))
            if len(chain) >= 2 and row[chain[-2]] <= row[b]:
                b = chain[-2]
            if len(chain) >= 2 and b == chain[-2]:
                height = float(D[a, b])
                merges[merged] = (a, b, height)
                merged += 1
                other = active.copy()
                other[a] = other[b] = False
                idx = np.flatnonzero(other)
                D[a, idx] = lance_williams_row(
                    method, D[a, idx], D[b, idx], height, int(sizes[a]), int(sizes[b]), sizes[idx]
                )
                D[idx, a] = D[a, idx]
                D[a, a] = np.inf
                D[b, :] = np.inf
                D[:, b] = np.inf
                sizes[a] += sizes[b]
                active[b] = False
                chain.pop()
                chain.pop()
                break
            chain.append(b)
    return merges


class TestAgainstNNChain:
    """The global-minimum loop cuts the Figure 3 points as the NN-chain
    did, whose ``k``-cluster cut applied its ``n - k`` lowest merges."""

    @pytest.mark.parametrize("method", METHODS)
    def test_figure3_same_partition_at_every_k(self, method):
        points = seven_groups(rng=0).points
        ours = linkage(points, method=method)
        theirs = reference_merges(points, method)
        by_height = theirs[np.argsort(theirs[:, 2], kind="stable")]
        for k in range(1, ours.n + 1):
            roots = merge_roots(by_height[: ours.n - k], ours.n)
            assert partitions_equal(ours.cut(k), np.unique(roots, return_inverse=True)[1]), k
        assert np.allclose(ours.heights(), np.sort(theirs[:, 2]), rtol=0, atol=1e-9)


class TestInputChecks:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_points(self, bad):
        points = random_points(0, n=6)
        points[2, 1] = bad
        with pytest.raises(ValueError, match="points"):
            linkage(points)

    @pytest.mark.parametrize("method", ["single", "complete", "average"])
    def test_non_finite_distances(self, method):
        D = np.array([[0, np.inf, 2], [np.inf, 0, 2], [2, 2, 0]], dtype=np.float64)
        with pytest.raises(ValueError, match="distances"):
            linkage(distances=D, method=method)
        D[0, 1] = D[1, 0] = np.nan
        with pytest.raises(ValueError, match="distances"):
            linkage(distances=D, method=method)

    def test_asymmetric_distances(self):
        D = euclidean_matrix(random_points(1, n=5))
        D[3, 1] = np.nextafter(D[3, 1], 0)
        with pytest.raises(ValueError, match="distances"):
            linkage(distances=D)

    def test_no_objects(self):
        with pytest.raises(ValueError, match="points"):
            linkage(np.zeros((0, 2)))
        with pytest.raises(ValueError, match="distances"):
            linkage(distances=np.zeros((0, 0)))

    @pytest.mark.parametrize("k", [True, False, 2.5, 2.0, "2"])
    def test_cut_takes_an_integer(self, k):
        with pytest.raises(ValueError, match="k"):
            linkage(random_points(2, n=6)).cut(k)

    def test_numpy_integer_cut(self):
        result = linkage(random_points(3, n=6))
        assert result.cut(np.int64(2)).tolist() == result.cut(2).tolist()

    def test_cut_height_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            linkage(random_points(4, n=6)).cut_height(np.nan)


class TestDistances:
    def test_euclidean_matrix_is_symmetric(self):
        points = seven_groups(rng=0).points
        D = euclidean_matrix(points)
        assert np.array_equal(D, D.T)
        assert np.all(np.diag(D) == 0)
        upper = np.triu_indices(len(points), 1)
        expected = np.sqrt(np.maximum(squared_euclidean(points, points), 0.0))
        assert np.array_equal(D[upper], expected[upper])
