"""Tests for repro.core.partition.Clustering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import Clustering
from repro.core.partition import _canonicalize

label_lists = st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=40)


def previous_canonicalize(labels: np.ndarray) -> np.ndarray:
    """The ``np.unique`` rule ``_canonicalize`` used before counting (oracle)."""
    _, first_index, inverse = np.unique(labels, return_index=True, return_inverse=True)
    order = np.argsort(np.argsort(first_index))
    return order[inverse].astype(np.int32)


#: Label values per dtype: small ones (below n), ones at or above n, and
#: the largest the dtype holds (near 2**62 for int64).
CANONICAL_VALUES = {
    np.int8: st.integers(0, 127),
    np.int16: st.integers(0, 2**15 - 1),
    np.int32: st.integers(0, 2**31 - 1),
    np.int64: st.one_of(st.integers(0, 2**63 - 1), st.integers(2**62 - 8, 2**62 + 8)),
}


@pytest.mark.parametrize("dtype", list(CANONICAL_VALUES))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_canonicalize_equals_the_unique_rule(dtype, data):
    n = data.draw(st.integers(1, 60))
    top = data.draw(st.sampled_from([1, n - 1, n, n + 1, None]))
    values = CANONICAL_VALUES[dtype] if top is None else st.integers(0, max(top, 0))
    labels = data.draw(arrays(dtype, n, elements=values))
    canonical = _canonicalize(labels)
    assert canonical.dtype == np.int32
    assert np.array_equal(canonical, previous_canonicalize(labels))


class TestConstruction:
    def test_canonical_labels_first_appearance(self):
        c = Clustering([5, 5, 9, 9, 2])
        assert list(c.labels) == [0, 0, 1, 1, 2]

    def test_n_and_k(self):
        c = Clustering([0, 1, 1, 2, 2, 2])
        assert c.n == 6
        assert c.k == 3

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Clustering([])

    def test_rejects_negative_labels(self):
        with pytest.raises(ValueError):
            Clustering([0, -1, 1])

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            Clustering(np.array([0.0, 1.0]))

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            Clustering(np.zeros((2, 2), dtype=int))

    def test_labels_are_read_only(self):
        c = Clustering([0, 1])
        with pytest.raises(ValueError):
            c.labels[0] = 1  # repolint: disable=RPR004

    def test_from_clusters(self):
        c = Clustering.from_clusters([[0, 2], [1, 3], [4]])
        assert c.to_sets() == [frozenset({0, 2}), frozenset({1, 3}), frozenset({4})]

    def test_from_clusters_overlap_rejected(self):
        with pytest.raises(ValueError):
            Clustering.from_clusters([[0, 1], [1, 2]])

    def test_from_clusters_gap_rejected(self):
        with pytest.raises(ValueError):
            Clustering.from_clusters([[0], [2]], n=3)

    def test_from_clusters_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            Clustering.from_clusters([[0], []])

    def test_from_clusters_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Clustering.from_clusters([[0, 5]], n=3)

    def test_singletons(self):
        c = Clustering.singletons(4)
        assert c.k == 4
        assert all(size == 1 for size in c.sizes())

    def test_single_cluster(self):
        c = Clustering.single_cluster(4)
        assert c.k == 1
        assert c.sizes()[0] == 4

    def test_random_respects_k_bound(self):
        c = Clustering.random(50, 3, rng=0)
        assert 1 <= c.k <= 3

    def test_random_rejects_bad_k(self):
        with pytest.raises(ValueError):
            Clustering.random(5, 0)


class TestAccessors:
    def test_label_of_matches_labels(self):
        c = Clustering([0, 1, 0, 2])
        assert [c.label_of(i) for i in range(4)] == [0, 1, 0, 2]

    def test_sizes(self):
        c = Clustering([0, 0, 1, 2, 2, 2])
        assert list(c.sizes()) == [2, 1, 3]

    def test_members(self):
        c = Clustering([0, 1, 0, 1])
        assert list(c.members(1)) == [1, 3]

    def test_members_out_of_range(self):
        with pytest.raises(IndexError):
            Clustering([0, 0]).members(1)

    def test_clusters_partition_everything(self):
        c = Clustering.random(30, 4, rng=1)
        union = np.sort(np.concatenate(c.clusters()))
        assert np.array_equal(union, np.arange(30))

    def test_same_cluster(self):
        c = Clustering([0, 0, 1])
        assert c.same_cluster(0, 1)
        assert not c.same_cluster(0, 2)

    def test_len(self):
        assert len(Clustering([0, 1, 1])) == 3

    def test_repr_mentions_shape(self):
        text = repr(Clustering([0, 1, 1]))
        assert "n=3" in text and "k=2" in text


class TestDerived:
    def test_restrict(self):
        c = Clustering([0, 0, 1, 1, 2])
        sub = c.restrict([1, 2, 4])
        assert list(sub.labels) == [0, 1, 2]

    def test_restrict_preserves_coclustering(self):
        c = Clustering([0, 0, 1, 1, 2])
        sub = c.restrict([0, 1, 3])
        assert sub.same_cluster(0, 1)
        assert not sub.same_cluster(0, 2)

    def test_merge_clusters(self):
        c = Clustering([0, 1, 2])
        merged = c.merge_clusters(0, 2)
        assert merged.k == 2
        assert merged.same_cluster(0, 2)

    def test_merge_with_self_rejected(self):
        with pytest.raises(ValueError):
            Clustering([0, 1]).merge_clusters(0, 0)


class TestLattice:
    def test_meet_known(self):
        a = Clustering([0, 0, 1, 1])
        b = Clustering([0, 1, 1, 1])
        assert a.meet(b) == Clustering([0, 1, 2, 2])

    def test_join_known(self):
        a = Clustering([0, 0, 1, 2])
        b = Clustering([0, 1, 1, 2])
        # 0-1 via a, 1-2 via b -> {0,1,2} together; 3 alone.
        assert a.join(b) == Clustering([0, 0, 0, 1])

    def test_meet_refines_both(self):
        rng = np.random.default_rng(0)
        a = Clustering(rng.integers(0, 4, 30))
        b = Clustering(rng.integers(0, 4, 30))
        meet = a.meet(b)
        for u in range(30):
            for v in range(u + 1, 30):
                if meet.same_cluster(u, v):
                    assert a.same_cluster(u, v) and b.same_cluster(u, v)

    def test_join_coarsens_both(self):
        rng = np.random.default_rng(1)
        a = Clustering(rng.integers(0, 5, 30))
        b = Clustering(rng.integers(0, 5, 30))
        join = a.join(b)
        for u in range(30):
            for v in range(u + 1, 30):
                if a.same_cluster(u, v) or b.same_cluster(u, v):
                    assert join.same_cluster(u, v)

    @given(label_lists)
    def test_meet_join_with_self_are_identity(self, labels):
        c = Clustering(labels)
        assert c.meet(c) == c
        assert c.join(c) == c

    def test_meet_with_singletons_is_singletons(self):
        c = Clustering([0, 0, 1])
        assert c.meet(Clustering.singletons(3)) == Clustering.singletons(3)

    def test_join_with_single_cluster_is_single(self):
        c = Clustering([0, 1, 2])
        assert c.join(Clustering.single_cluster(3)) == Clustering.single_cluster(3)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            Clustering([0, 1]).meet(Clustering([0, 1, 2]))
        with pytest.raises(ValueError):
            Clustering([0, 1]).join(Clustering([0, 1, 2]))


class TestEquality:
    def test_equal_up_to_relabeling(self):
        assert Clustering([0, 0, 1]) == Clustering([7, 7, 3])

    def test_unequal_partitions(self):
        assert Clustering([0, 0, 1]) != Clustering([0, 1, 1])

    def test_hash_consistent_with_eq(self):
        a, b = Clustering([2, 2, 5]), Clustering([0, 0, 1])
        assert a == b and hash(a) == hash(b)

    def test_not_equal_other_types(self):
        assert Clustering([0]) != [0]

    @given(label_lists)
    def test_canonicalization_idempotent(self, labels):
        c = Clustering(labels)
        assert Clustering(c.labels) == c

    @given(label_lists, st.permutations(list(range(7))))
    def test_equality_invariant_under_label_permutation(self, labels, perm):
        c = Clustering(labels)
        permuted = Clustering([perm[v] for v in labels])
        assert c == permuted

    @given(label_lists)
    def test_sizes_sum_to_n(self, labels):
        c = Clustering(labels)
        assert int(c.sizes().sum()) == c.n

    @given(label_lists)
    def test_labels_are_dense(self, labels):
        c = Clustering(labels)
        assert set(np.unique(c.labels)) == set(range(c.k))
