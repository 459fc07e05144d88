"""Tests for repro.core.labels (label matrices and contingency tables)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import Clustering
from repro.algorithms.agglomerative import agglomerative
from repro.algorithms.pivot import pivot
from repro.algorithms.sampling import sampling
from repro.core import CorrelationInstance, total_disagreement
from repro.core.objective import ClusterCountTables
from repro.core.labels import (
    MISSING,
    as_label_matrix,
    columns_as_clusterings,
    compact_columns,
    contingency_table,
    validate_label_matrix,
)
from repro.shard import shard_aggregate


class TestAsLabelMatrix:
    def test_from_clusterings(self, figure1_clusterings):
        matrix = as_label_matrix(figure1_clusterings)
        assert matrix.shape == (6, 3)
        assert matrix.dtype == np.int32

    def test_from_raw_arrays_with_missing(self):
        matrix = as_label_matrix([np.array([0, 1, MISSING]), np.array([0, 0, 1])])
        assert matrix[2, 0] == MISSING

    def test_mixed_inputs(self):
        matrix = as_label_matrix([Clustering([0, 1]), [1, 1]])
        assert matrix.shape == (2, 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            as_label_matrix([])

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            as_label_matrix([[0, 1], [0, 1, 2]])

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            as_label_matrix([np.array([0.5, 1.0])])

    def test_labels_beyond_int32_stay_distinct(self):
        # An int32 cast would wrap 2**32 onto 0 and merge the two labels.
        matrix = as_label_matrix([np.array([0, 2**32, 0, 2**32]), np.array([0, 1, 0, 1])])
        assert matrix.dtype == np.int64
        assert matrix[:, 0].tolist() == [0, 2**32, 0, 2**32]


class TestValidate:
    def test_accepts_well_formed(self):
        validate_label_matrix(np.array([[0, 1], [1, MISSING]], dtype=np.int32))

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            validate_label_matrix(np.array([0, 1]))

    def test_rejects_below_missing(self):
        with pytest.raises(ValueError):
            validate_label_matrix(np.array([[0], [-2]]))

    def test_rejects_all_missing_column(self):
        with pytest.raises(ValueError):
            validate_label_matrix(np.array([[MISSING, 0], [MISSING, 1]]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            validate_label_matrix(np.zeros((0, 2), dtype=np.int32))


def previous_validate_label_matrix(matrix: np.ndarray) -> None:
    """The boolean-reduction checks ``validate_label_matrix`` made before (oracle)."""
    if matrix.ndim != 2:
        raise ValueError(f"label matrix must be 2-D, got shape {matrix.shape}")
    if matrix.shape[0] == 0 or matrix.shape[1] == 0:
        raise ValueError("label matrix must have at least one row and one column")
    if not np.issubdtype(matrix.dtype, np.integer):
        raise TypeError(f"label matrix must be integer, got dtype {matrix.dtype}")
    if np.any(matrix < MISSING):
        raise ValueError("label matrix labels must be >= -1 (-1 denotes a missing entry)")
    all_missing = np.all(matrix == MISSING, axis=0)
    if np.any(all_missing):
        bad = np.flatnonzero(all_missing).tolist()
        raise ValueError(f"columns {bad} are entirely missing and carry no information")


def _raised(check, matrix):
    try:
        check(matrix)
    except (TypeError, ValueError) as error:
        return type(error), str(error)
    return None


VALIDATION_CASES = {
    "well-formed": np.array([[0, 1, 2], [1, MISSING, 0], [2, 1, MISSING]]),
    "below-missing": np.array([[0, 1, 2], [1, -2, 0], [2, 1, MISSING]]),
    "all-missing": np.array([[MISSING, 1, MISSING], [MISSING, 0, MISSING], [MISSING, 1, MISSING]]),
    "one-row": np.array([[MISSING, 3]]),
    "one-column": np.array([[MISSING], [MISSING]]),
    "empty": np.zeros((0, 3), dtype=np.int64),
    "1-d": np.array([0, 1]),
    "float": np.array([[0.0, 1.0]]),
}


@pytest.mark.parametrize("case", list(VALIDATION_CASES))
@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64])
@pytest.mark.parametrize("order", ["C", "F"])
def test_validate_raises_the_previous_errors(case, dtype, order):
    matrix = VALIDATION_CASES[case]
    if np.issubdtype(matrix.dtype, np.integer):
        matrix = matrix.astype(dtype)
    matrix = np.asarray(matrix, order=order)
    assert _raised(validate_label_matrix, matrix) == _raised(previous_validate_label_matrix, matrix)


class TestColumnsAsClusterings:
    def test_round_trip(self, figure1_clusterings):
        matrix = as_label_matrix(figure1_clusterings)
        back = columns_as_clusterings(matrix)
        assert back == figure1_clusterings

    def test_missing_rejected(self):
        matrix = np.array([[0, 1], [MISSING, 0]], dtype=np.int32)
        with pytest.raises(ValueError):
            columns_as_clusterings(matrix)


class TestContingency:
    def test_known_table(self):
        a = np.array([0, 0, 1, 1])
        b = np.array([0, 1, 0, 1])
        table = contingency_table(a, b)
        assert table.tolist() == [[1, 1], [1, 1]]

    def test_missing_excluded(self):
        a = np.array([0, 0, MISSING])
        b = np.array([0, 1, 1])
        table = contingency_table(a, b)
        assert int(table.sum()) == 2

    def test_identity(self):
        a = np.array([0, 1, 2, 0])
        table = contingency_table(a, a)
        assert np.array_equal(table, np.diag([2, 1, 1]))

    def test_all_missing_gives_empty(self):
        a = np.full(3, MISSING)
        table = contingency_table(a, np.array([0, 1, 2]))
        assert table.shape == (0, 0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            contingency_table(np.array([0, 1]), np.array([0]))

    @given(
        st.lists(st.integers(0, 4), min_size=2, max_size=30),
        st.lists(st.integers(0, 4), min_size=2, max_size=30),
    )
    def test_total_equals_n(self, a, b):
        size = min(len(a), len(b))
        table = contingency_table(np.array(a[:size]), np.array(b[:size]))
        assert int(table.sum()) == size

    @given(st.lists(st.integers(0, 3), min_size=2, max_size=25))
    def test_row_sums_are_cluster_sizes(self, labels):
        arr = np.array(labels)
        table = contingency_table(arr, np.zeros(len(labels), dtype=int))
        assert np.array_equal(table[:, 0], np.bincount(arr))


class TestCompactColumns:
    def test_renumbers_sparse_labels(self):
        matrix = np.array([[10, 3], [10, 7], [20, 3]], dtype=np.int32)
        compacted = compact_columns(matrix)
        assert compacted[:, 0].tolist() == [0, 0, 1]
        assert compacted[:, 1].tolist() == [0, 1, 0]

    def test_preserves_missing(self):
        matrix = np.array([[5, MISSING], [MISSING, 2], [9, 2]], dtype=np.int32)
        compacted = compact_columns(matrix)
        assert compacted[1, 0] == MISSING
        assert compacted[0, 1] == MISSING

    def test_idempotent(self):
        matrix = np.array([[0, 1], [1, MISSING], [0, 0]], dtype=np.int32)
        once = compact_columns(matrix)
        assert np.array_equal(once, compact_columns(once))


_WEIGHTED = np.random.default_rng(4).integers(0, 3, size=(40, 4)).astype(np.int32)

#: The six library entry points taking per-row multiplicities, keyed by
#: the name of the weights argument and of the entry point.
_WEIGHTED_CALLS = {
    ("weights", "from_label_matrix"): lambda w: CorrelationInstance.from_label_matrix(
        _WEIGHTED, weights=w
    ),
    ("weights", "pivot"): lambda w: pivot(_WEIGHTED, weights=w, rng=0),
    ("weights", "sampling"): lambda w: sampling(_WEIGHTED, agglomerative, weights=w, rng=0),
    ("weights", "shard_aggregate"): lambda w: shard_aggregate(_WEIGHTED, weights=w, rng=0),
    ("weights", "total_disagreement"): lambda w: total_disagreement(
        _WEIGHTED, Clustering(_WEIGHTED[:, 0]), weights=w
    ),
    ("member_weights", "ClusterCountTables"): lambda w: ClusterCountTables(
        _WEIGHTED, np.arange(40), _WEIGHTED[:, 0], member_weights=w
    ),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("entry", list(_WEIGHTED_CALLS), ids="-".join)
def test_non_finite_weights_are_rejected(entry, bad):
    weights = np.ones(40)
    weights[7] = bad
    with pytest.raises(ValueError, match=f"{entry[0]} must be finite"):
        _WEIGHTED_CALLS[entry](weights)
