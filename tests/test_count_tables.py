"""One count-table path (repro.core.kernels) behind D(C), SAMPLING's
assignment masses and the streaming mass update.

The ``previous_*`` functions below are verbatim copies of the per-site
implementations the kernel replaced; they serve as differential oracles.
The huge-label cases check that no count table grows with the label
values: 2**40 and 2**62 labels give the same results as their compacted
codes.  ``ClusterCountTables.assign`` scores each distinct tuple of label
codes once; it must equal the oracle's argmin over every row, and
``_group_rows`` must equal ``np.unique(axis=0)``.  ``distinct_codes``
ranks its keys by counting where a table of every key is small enough;
it must equal ``previous_distinct_codes``, which always sorts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import Clustering, aggregate
from repro.core.atoms import _group_rows
from repro.core.distance import expected_column_distance, pairs_within, total_disagreement
from repro.core.instance import CorrelationInstance
from repro.core.kernels import (
    check_missing_model,
    distinct_codes,
    label_codes,
    label_histogram,
    separation_mass,
)
from repro.core.labels import MISSING, as_label_matrix, compact_columns, validate_label_matrix
from repro.core.objective import ClusterCountTables, MoveEvaluator
from repro.stream import StreamingAggregator

from strategies import node_masses

# ----------------------------------------------------------------------
# Oracles: the previous implementations, verbatim.
# ----------------------------------------------------------------------


def previous_contingency_table(labels_a: np.ndarray, labels_b: np.ndarray) -> np.ndarray:
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("label vectors must be 1-D and of equal length")
    present = (a != MISSING) & (b != MISSING)
    a = a[present]
    b = b[present]
    if a.size == 0:
        return np.zeros((0, 0), dtype=np.int64)
    ka = int(a.max()) + 1
    kb = int(b.max()) + 1
    table = np.zeros(ka * kb, dtype=np.int64)
    np.add.at(table, a.astype(np.int64) * kb + b.astype(np.int64), 1)
    return table.reshape(ka, kb)


def previous_expected_column_distance(
    column: np.ndarray, clustering: Clustering, p: float = 0.5
) -> float:
    check_missing_model(p)
    column = np.asarray(column)
    if column.shape != (clustering.n,):
        raise ValueError("column length must match the clustering size")
    n = clustering.n
    total_pairs = n * (n - 1) // 2

    present = column != MISSING
    concrete = int(present.sum())
    concrete_pairs = concrete * (concrete - 1) // 2
    missing_pairs = total_pairs - concrete_pairs

    table = previous_contingency_table(column, clustering.labels)
    same_col = pairs_within(table.sum(axis=1))
    same_clu_concrete = pairs_within(table.sum(axis=0))
    same_both = pairs_within(table.ravel())
    concrete_disagreements = same_col + same_clu_concrete - 2 * same_both

    same_clu_total = pairs_within(clustering.sizes())
    same_clu_missing = same_clu_total - same_clu_concrete
    diff_clu_missing = missing_pairs - same_clu_missing
    expected_missing = (1.0 - p) * same_clu_missing + p * diff_clu_missing

    return float(concrete_disagreements) + expected_missing


def previous_total_disagreement(inputs, clustering: Clustering, p: float = 0.5) -> float:
    matrix = inputs if isinstance(inputs, np.ndarray) else as_label_matrix(inputs)
    if matrix.shape[0] != clustering.n:
        raise ValueError("label matrix rows must match the clustering size")
    return float(
        sum(
            previous_expected_column_distance(matrix[:, j], clustering, p=p)
            for j in range(matrix.shape[1])
        )
    )


def _previous_weighted_pairs_within(groups: np.ndarray, weights: np.ndarray) -> float:
    sums = np.bincount(groups, weights=weights)
    squares = np.bincount(groups, weights=weights * weights)
    return float((sums * sums - squares).sum() / 2.0)


def previous_weighted_total_disagreement(
    matrix: np.ndarray,
    clustering: Clustering,
    weights: np.ndarray | None = None,
    p: float = 0.5,
) -> float:
    check_missing_model(p)
    matrix = np.asarray(matrix)
    n, m = matrix.shape
    if n != clustering.n:
        raise ValueError("label matrix rows must match the clustering size")
    if weights is None:
        w = np.ones(n, dtype=np.float64)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (n,):
            raise ValueError("weights must give one multiplicity per row")
    total_w = float(w.sum())
    total_sq = float((w * w).sum())
    total_pairs = (total_w * total_w - total_sq) / 2.0
    member = clustering.labels
    same_clu_total = _previous_weighted_pairs_within(member, w)

    total = 0.0
    for j in range(m):
        column = matrix[:, j]
        present = column != MISSING
        wc = w[present]
        present_w = float(wc.sum())
        present_sq = float((wc * wc).sum())
        concrete_pairs = (present_w * present_w - present_sq) / 2.0
        missing_pairs = total_pairs - concrete_pairs

        _, codes = np.unique(column[present], return_inverse=True)
        concrete_member = member[present]
        joint = codes * (int(member.max()) + 1) + concrete_member
        same_col = _previous_weighted_pairs_within(codes, wc)
        same_clu_concrete = _previous_weighted_pairs_within(concrete_member, wc)
        same_both = _previous_weighted_pairs_within(joint, wc)
        concrete_disagreements = same_col + same_clu_concrete - 2.0 * same_both

        same_clu_missing = same_clu_total - same_clu_concrete
        diff_clu_missing = missing_pairs - same_clu_missing
        total += concrete_disagreements + (1.0 - p) * same_clu_missing + p * diff_clu_missing
    return total


class PreviousClusterCountTables:
    def __init__(
        self,
        matrix: np.ndarray,
        member_rows: np.ndarray,
        member_labels: np.ndarray,
        p: float = 0.5,
        member_weights: np.ndarray | None = None,
    ) -> None:
        validate_label_matrix(matrix)
        member_rows = np.asarray(member_rows, dtype=np.int64)
        member_labels = np.asarray(member_labels, dtype=np.int64)
        if member_rows.shape != member_labels.shape or member_rows.ndim != 1:
            raise ValueError("member_rows and member_labels must be 1-D and aligned")
        if member_rows.size == 0:
            raise ValueError("cluster tables need at least one member row")
        check_missing_model(p)
        if member_weights is None:
            weights = np.ones(member_rows.size, dtype=np.float64)
        else:
            weights = np.asarray(member_weights, dtype=np.float64)
            if weights.shape != member_rows.shape:
                raise ValueError("member_weights must align with member_rows")
            if np.any(weights < 1):
                raise ValueError("member_weights must be >= 1")
        self._matrix = matrix
        self._m = matrix.shape[1]
        self._p = p
        self._k = int(member_labels.max()) + 1
        self._sizes = np.zeros(self._k, dtype=np.float64)
        np.add.at(self._sizes, member_labels, weights)
        if np.any(self._sizes == 0):
            raise ValueError("member_labels must use every label in 0..k-1")
        self._counts: list[np.ndarray] = []
        self._concrete = np.zeros((self._m, self._k), dtype=np.float64)
        sub = matrix[member_rows]
        for j in range(self._m):
            arity = max(int(matrix[:, j].max()) + 1, 1)
            table = label_histogram(member_labels, sub[:, j], self._k, arity, weights)
            self._counts.append(table)
            self._concrete[j] = table.sum(axis=1)

    def masses(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        block = self._matrix[rows]  # (b, m)
        b = rows.size
        one_minus_p = 1.0 - self._p
        total = np.zeros((b, self._k), dtype=np.float64)
        for j in range(self._m):
            values = block[:, j]
            present = values != MISSING
            table = self._counts[j]
            concrete = self._concrete[j]  # (k,)
            contribution = np.empty((b, self._k), dtype=np.float64)
            contribution[~present] = one_minus_p * self._sizes
            if present.any():
                vals = values[present]
                matches = table[:, vals].T  # (b_present, k)
                contribution[present] = (concrete - matches) + one_minus_p * (
                    self._sizes - concrete
                )
            total += contribution
        total /= self._m
        return total


def previous_assign(tables: PreviousClusterCountTables, rows: np.ndarray) -> np.ndarray:
    """The argmin rule over every row's scores, singleton (0) on a loss."""
    scores = 2.0 * tables.masses(rows) - tables._sizes[None, :]
    best = np.argmin(scores, axis=1)
    out = best.astype(np.int64)
    out[scores[np.arange(best.size), best] > 0.0] = -1
    return out


def previous_distinct_codes(code_columns, rows=slice(None)):
    """``distinct_codes`` with every ranking done by ``np.unique``."""
    codes, arity = code_columns[0]
    key = codes[rows].astype(np.int64)
    key += 1
    bound = arity + 1
    for codes, arity in code_columns[1:]:
        radix = arity + 1
        if bound * radix >= 1 << 62:
            ranks, key = np.unique(key, return_inverse=True)
            bound = ranks.size
        key *= radix
        key += codes[rows]
        key += 1
        bound *= radix
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return first, inverse.reshape(-1)


def previous_apply_stream_update(
    self: MoveEvaluator, column: np.ndarray, p: float, scale: float, factor: float
) -> None:
    if self._instance.weights is not None:
        raise RuntimeError("streaming mass updates require unit node weights")
    if np.any(self._labels < 0):
        raise RuntimeError("streaming mass updates require every object attached")
    labels = self._labels
    k = self._sizes.size
    present = column != MISSING
    one_minus_p = 1.0 - p
    sizes = np.bincount(labels, minlength=k).astype(np.float64)
    contrib = np.empty((self.n, k), dtype=np.float64)
    if present.any():
        values = column[present]
        counts = label_histogram(labels, column, k, int(values.max()) + 1)
        concrete = counts.sum(axis=1)
        contrib[present] = (concrete[None, :] - counts[:, values].T) + one_minus_p * (
            sizes - concrete
        )[None, :]
    contrib[~present] = one_minus_p * sizes
    missing_rows = np.flatnonzero(~present)
    contrib[missing_rows, labels[missing_rows]] -= one_minus_p
    masses = node_masses(self)
    masses *= scale
    masses += factor * contrib


# ----------------------------------------------------------------------
# The grid.
# ----------------------------------------------------------------------

PS = (0.0, 0.3, 0.5, 1.0)
MISSING_RATES = (0.0, 0.2)
SIZES = (1, 2, 300)
COLUMNS = (1, 4)
CLUSTERS = (1, 3)


def bits(value) -> bytes:
    """Exact float64 bit pattern (distinguishes -0.0 and 0.0)."""
    return np.asarray(value, dtype=np.float64).tobytes()


def grid_case(n: int, m: int, k: int, missing_rate: float, seed: int):
    """``(matrix, clustering, integer weights)``.  With ``m > 1`` the last
    column's labels run past ``n`` (the compacting branch of label_codes);
    every column keeps at least one concrete entry."""
    rng = np.random.default_rng(seed)
    matrix = rng.integers(0, 4, size=(n, m)).astype(np.int64)
    if m > 1:
        matrix[:, -1] = matrix[:, -1] * 1000 + 7
    matrix[rng.random((n, m)) < missing_rate] = MISSING
    for j in np.flatnonzero(np.all(matrix == MISSING, axis=0)):
        matrix[int(rng.integers(n)), j] = 0
    clustering = Clustering(rng.integers(0, k, size=n))
    weights = rng.integers(1, 6, size=n).astype(np.float64)
    return matrix, clustering, weights


def grid():
    seed = 0
    for n in SIZES:
        for m in COLUMNS:
            for k in CLUSTERS:
                for missing_rate in MISSING_RATES:
                    seed += 1
                    case_id = f"n{n}-m{m}-k{k}-miss{missing_rate}"
                    yield pytest.param(n, m, k, missing_rate, seed, id=case_id)


@pytest.mark.parametrize("n, m, k, missing_rate, seed", list(grid()))
class TestAgainstPreviousCountTables:
    @pytest.mark.parametrize("p", PS)
    def test_total_disagreement_unit_weights_bitwise(self, n, m, k, missing_rate, seed, p):
        matrix, clustering, _ = grid_case(n, m, k, missing_rate, seed)
        expected = bits(previous_total_disagreement(matrix, clustering, p=p))
        assert bits(total_disagreement(matrix, clustering, p=p)) == expected
        assert bits(total_disagreement(matrix, clustering, p=p, weights=np.ones(n))) == expected
        for j in range(m):
            assert bits(expected_column_distance(matrix[:, j], clustering, p=p)) == bits(
                previous_expected_column_distance(matrix[:, j], clustering, p=p)
            )

    @pytest.mark.parametrize("p", PS)
    def test_weighted_total_disagreement(self, n, m, k, missing_rate, seed, p):
        matrix, clustering, weights = grid_case(n, m, k, missing_rate, seed)
        for w in (None, weights):
            new = total_disagreement(matrix, clustering, p=p, weights=w)
            old = previous_weighted_total_disagreement(matrix, clustering, weights=w, p=p)
            if p == 0.5:
                assert bits(new) == bits(old)
            else:
                assert new == pytest.approx(old, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("p", PS)
    def test_masses_bitwise(self, n, m, k, missing_rate, seed, p):
        matrix, clustering, weights = grid_case(n, m, k, missing_rate, seed)
        rng = np.random.default_rng(seed)
        members = np.sort(rng.choice(n, size=max(1, n // 2), replace=False))
        member_labels = Clustering(clustering.labels[members]).labels
        rows = np.arange(n)
        for member_weights in (None, weights[members]):
            new = ClusterCountTables(matrix, members, member_labels, p, member_weights)
            old = PreviousClusterCountTables(matrix, members, member_labels, p, member_weights)
            assert new.sizes.tobytes() == old._sizes.tobytes()
            assert new.masses(rows).tobytes() == old.masses(rows).tobytes()
            assert new.masses(rows[::-1]).tobytes() == old.masses(rows[::-1]).tobytes()

    @pytest.mark.parametrize("p", PS)
    def test_assign_matches_previous_argmin(self, n, m, k, missing_rate, seed, p):
        matrix, clustering, weights = grid_case(n, m, k, missing_rate, seed)
        rng = np.random.default_rng(seed)
        members = np.sort(rng.choice(n, size=max(1, n // 2), replace=False))
        member_labels = Clustering(clustering.labels[members]).labels
        rows = rng.permutation(n)
        for member_weights in (None, weights[members]):
            new = ClusterCountTables(matrix, members, member_labels, p, member_weights)
            old = PreviousClusterCountTables(matrix, members, member_labels, p, member_weights)
            assert np.array_equal(new.assign(rows), previous_assign(old, rows))

    @pytest.mark.parametrize("p", PS)
    def test_apply_stream_update_bitwise(self, n, m, k, missing_rate, seed, p):
        matrix, clustering, _ = grid_case(n, m, k, missing_rate, seed)
        instance = CorrelationInstance.from_label_matrix(matrix[:, :-1] if m > 1 else matrix, p=p)
        column = matrix[:, -1]
        # A gap slot (label k unused) and a plain start.
        gapped = np.where(clustering.labels == 0, 0, clustering.labels + 1)
        for initial in (clustering.labels, gapped):
            new = MoveEvaluator(instance, initial)
            old = MoveEvaluator(instance, initial)
            new.apply_stream_update(column, p, 0.75, 0.25)
            previous_apply_stream_update(old, column, p, 0.75, 0.25)
            assert node_masses(new).tobytes() == node_masses(old).tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_total_disagreement_bitwise_at_larger_n(seed):
    # Large enough that re-associating the per-column sum changes last bits.
    matrix, clustering, _ = grid_case(2000, 6, 5, 0.05, seed)
    for p in (0.3, 0.123):
        assert bits(total_disagreement(matrix, clustering, p=p)) == bits(
            previous_total_disagreement(matrix, clustering, p=p)
        )


def test_all_missing_column_matches_previous():
    matrix, clustering, weights = grid_case(300, 4, 3, 0.2, seed=99)
    matrix[:, 1] = MISSING
    for p in PS:
        assert bits(total_disagreement(matrix, clustering, p=p)) == bits(
            previous_total_disagreement(matrix, clustering, p=p)
        )
        assert total_disagreement(matrix, clustering, p=p, weights=weights) == pytest.approx(
            previous_weighted_total_disagreement(matrix, clustering, weights=weights, p=p),
            rel=1e-12,
        )


def reranking_case(seed: int) -> np.ndarray:
    """A 26-column matrix whose code tuples overflow a 62-bit mixed-radix
    key (arity 7 per column): many duplicate rows, 10% holes, and one
    column of labels above the row count (label_codes' np.unique branch)."""
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 7, size=(60, 26))
    matrix = base[rng.integers(0, 60, size=500)]
    matrix[rng.random(matrix.shape) < 0.1] = MISSING
    matrix[:, 3] = np.where(matrix[:, 3] == MISSING, MISSING, matrix[:, 3] * 1000 + 5)
    return matrix


@pytest.mark.parametrize("case", ["grid", "all-missing-members", "reranked-key"])
def test_tables_on_any_row_set_match_previous(case):
    """masses byte-equal and assign equal to the oracle on rows in any
    order, with repeats, sample members included, and on no rows."""
    rng = np.random.default_rng(7)
    if case == "reranked-key":
        matrix = reranking_case(seed=3)
        arities = [label_codes(column)[1] for column in matrix.T]
        assert np.prod([a + 1 for a in arities], dtype=float) > 2.0**62
    else:  # the last column's labels run past n
        matrix, _, _ = grid_case(400, 4, 3, 0.2, seed=11)
    n = matrix.shape[0]
    members = np.sort(rng.choice(n, size=80, replace=False))
    if case == "all-missing-members":
        matrix[members, 2] = MISSING  # concrete elsewhere: zero counts, arity > 0
    member_labels = Clustering(rng.integers(0, 6, size=members.size)).labels
    weights = rng.integers(1, 4, size=members.size).astype(np.float64)
    rows = np.concatenate([rng.integers(0, n, size=700), members[::-1], np.arange(n)])
    for p in (0.5, 0.3, 0.25):
        for member_weights in (None, weights):
            new = ClusterCountTables(matrix, members, member_labels, p, member_weights)
            old = PreviousClusterCountTables(matrix, members, member_labels, p, member_weights)
            for subset in (rows, rows[::-1], rows[:0], members):
                assert new.masses(subset).tobytes() == old.masses(subset).tobytes()
                assert np.array_equal(new.assign(subset), previous_assign(old, subset))


def test_all_missing_column_has_a_one_row_lookup_table():
    codes, arity = label_codes(np.full(5, MISSING))
    groups = np.array([0, 1, 1, 0, 2])
    counts = label_histogram(groups, codes, 3, arity)
    sizes = np.bincount(groups).astype(np.float64)
    table = separation_mass(np.arange(MISSING, arity), counts, counts.sum(axis=1), sizes, 0.3)
    assert table.shape == (1, 3)
    per_row = separation_mass(codes, counts, counts.sum(axis=1), sizes, 0.3)
    assert table[codes + 1].tobytes() == per_row.tobytes()


LABEL_VALUES = {
    np.int32: [MISSING, 0, 1, 2, 5, 2**31 - 1],
    np.int64: [MISSING, 0, 1, 3, 2**31 - 1, 2**40, 2**62],
}


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_group_rows_equals_unique_rows(dtype, data):
    n = data.draw(st.integers(1, 40))
    m = data.draw(st.integers(1, 30))
    matrix = data.draw(
        arrays(dtype, (n, m), elements=st.sampled_from(LABEL_VALUES[dtype]))
    )
    if data.draw(st.booleans()):  # many duplicates
        matrix = matrix[data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))]
    unique, inverse, counts = np.unique(
        matrix, axis=0, return_inverse=True, return_counts=True
    )
    atoms = _group_rows(matrix)
    assert atoms.matrix.dtype == matrix.dtype
    assert np.array_equal(atoms.matrix, unique)
    assert np.array_equal(atoms.inverse, inverse.reshape(-1))
    assert np.array_equal(atoms.weights, counts)


def test_group_rows_with_a_reranked_key_equals_unique_rows():
    matrix = reranking_case(seed=4)
    unique, inverse, counts = np.unique(
        matrix, axis=0, return_inverse=True, return_counts=True
    )
    atoms = _group_rows(matrix)
    assert np.array_equal(atoms.matrix, unique)
    assert np.array_equal(atoms.inverse, inverse.reshape(-1))
    assert np.array_equal(atoms.weights, counts)


def distinct_case(n: int, m: int, arity: int, seed: int) -> np.ndarray:
    """Duplicate-heavy labels below ``arity`` with 10% holes."""
    rng = np.random.default_rng(seed)
    base = rng.integers(0, arity, size=(max(1, n // 8), m))
    matrix = base[rng.integers(0, base.shape[0], size=n)]
    matrix[rng.random(matrix.shape) < 0.1] = MISSING
    return matrix


def assert_distinct_codes_match(matrix: np.ndarray, rows) -> None:
    columns = [label_codes(column) for column in matrix.T]
    first, inverse = distinct_codes(columns, rows)
    old_first, old_inverse = previous_distinct_codes(columns, rows)
    assert first.dtype == old_first.dtype and inverse.dtype == old_inverse.dtype
    assert np.array_equal(first, old_first)
    assert np.array_equal(inverse, old_inverse)


@pytest.mark.parametrize(
    "n, m, arity",
    [
        (500, 3, 5),  # bound 216, below the 2**16 floor: counts
        (3000, 6, 9),  # bound 10**6 above 4 * 3000 rows: sorts
        (50000, 5, 10),  # bound 11**5 above the floor, below 4 * rows: counts
    ],
)
def test_distinct_codes_equals_the_unique_rule(n, m, arity):
    matrix = distinct_case(n, m, arity, seed=n)
    rng = np.random.default_rng(1)
    assert_distinct_codes_match(matrix, slice(None))
    scattered = rng.integers(0, n, size=n // 2)  # unsorted, with repeats
    assert_distinct_codes_match(matrix, scattered)
    assert_distinct_codes_match(matrix, scattered[:1])
    assert_distinct_codes_match(matrix, scattered[:0])


@pytest.mark.parametrize("m", [26, 22])
def test_distinct_codes_with_a_reranked_key_equals_the_unique_rule(m):
    # Radix 8 per column: the key re-ranks (by sorting) at column 20.  With
    # 26 columns the final bound, rows * 8**6, sorts; with 22 it is rows * 64,
    # under the table floor, and counts.
    matrix = reranking_case(seed=5)[:, :m]
    for rows in (slice(None), np.arange(matrix.shape[0])[::-3], np.arange(40), np.arange(0)):
        assert_distinct_codes_match(matrix, rows)


def test_distinct_codes_with_an_all_missing_column_equals_the_unique_rule():
    matrix = distinct_case(2000, 4, 6, seed=9)
    matrix[:, 1] = MISSING  # arity 0: the column adds nothing to the key
    for rows in (slice(None), np.arange(1999, -1, -7), np.array([3])):
        assert_distinct_codes_match(matrix, rows)


def test_assign_with_many_clusters_matches_previous():
    """k >= 300: ``_place`` scores 2**15 // k rows per chunk, so the
    distinct rows span many chunks; weights and missing labels on."""
    rng = np.random.default_rng(23)
    matrix = distinct_case(6000, 5, 12, seed=23)
    matrix[:, 4] = np.where(matrix[:, 4] == MISSING, MISSING, matrix[:, 4] * 997 + 3)
    members = np.sort(rng.choice(6000, size=1200, replace=False))
    member_labels = Clustering(np.arange(members.size) % 320).labels
    weights = rng.integers(1, 5, size=members.size).astype(np.float64)
    rows = np.concatenate([np.arange(6000), rng.integers(0, 6000, size=500)])
    for p in (0.5, 0.3):
        for member_weights in (None, weights):
            new = ClusterCountTables(matrix, members, member_labels, p, member_weights)
            old = PreviousClusterCountTables(matrix, members, member_labels, p, member_weights)
            assert new.k == 320
            first, _ = new.distinct(rows)
            assert first.size > 4 * ((1 << 15) // new.k)
            assert np.array_equal(new.assign(rows), previous_assign(old, rows))
            assert new.masses(rows).tobytes() == old.masses(rows).tobytes()


class TestLabelCodes:
    def test_raw_labels_below_the_column_length(self):
        column = np.array([3, MISSING, 0, 3])
        codes, arity = label_codes(column)
        assert codes is column
        assert arity == 4

    def test_compacts_labels_at_or_beyond_the_column_length(self):
        column = np.array([2**62, MISSING, 5, 2**62], dtype=np.int64)
        codes, arity = label_codes(column)
        assert codes.tolist() == [1, MISSING, 0, 1]
        assert arity == 2

    def test_all_missing_column_has_no_width(self):
        codes, arity = label_codes(np.full(3, MISSING))
        assert arity == 0
        assert label_histogram(np.zeros(3, dtype=np.int64), codes, 1, arity).shape == (1, 0)


# ----------------------------------------------------------------------
# Huge labels end to end.
# ----------------------------------------------------------------------


def huge_label_matrix(n: int, seed: int) -> np.ndarray:
    """Four noisy copies of a planted 4-group partition with 5% holes;
    column 0 says 2**40 for group 1, column 1 says 2**62 for group 2."""
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, 4, size=n)
    columns = [np.where(rng.random(n) < 0.1, rng.integers(0, 4, size=n), truth) for _ in range(4)]
    matrix = np.column_stack(columns).astype(np.int64)
    matrix[rng.random(matrix.shape) < 0.05] = MISSING
    matrix[matrix[:, 0] == 1, 0] = 2**40
    matrix[matrix[:, 1] == 2, 1] = 2**62
    return matrix


@pytest.mark.parametrize(
    "method, n, params",
    [
        ("agglomerative", 300, {}),
        ("pivot", 300, {"rng": 3, "repeats": 3}),
        ("sampling", 20000, {"rng": 3}),
    ],
)
def test_aggregate_huge_labels_match_compacted(method, n, params):
    matrix = huge_label_matrix(n, seed=1)
    result = aggregate(matrix, method=method, **params)
    expected = aggregate(compact_columns(matrix), method=method, **params)
    assert result.clustering == expected.clustering
    assert bits(result.disagreements) == bits(expected.disagreements)


def test_streaming_huge_labels_match_compacted(monkeypatch):
    warm_updates = []
    apply = MoveEvaluator.apply_stream_update

    def counting(self, column, p, scale, factor):
        warm_updates.append(column)
        apply(self, column, p, scale, factor)

    monkeypatch.setattr(MoveEvaluator, "apply_stream_update", counting)
    matrix = huge_label_matrix(200, seed=2)
    compact = compact_columns(matrix)
    huge, small = StreamingAggregator(200, rng=0), StreamingAggregator(200, rng=0)
    for j in range(matrix.shape[1]):
        first, second = huge.observe(matrix[:, j]), small.observe(compact[:, j])
        assert bits(first.cost) == bits(second.cost)
    assert len(warm_updates) == 2 * (matrix.shape[1] - 1)
    assert huge.consensus == small.consensus
    assert bits(total_disagreement(matrix, huge.consensus)) == bits(
        total_disagreement(compact, small.consensus)
    )


def test_int64_labels_keep_their_objective():
    # 0 and 2**32 are distinct labels: [0, 1, 0, 1] agrees with both inputs.
    result = aggregate([np.array([0, 2**32, 0, 2**32]), np.array([0, 1, 0, 1])])
    assert result.clustering == Clustering([0, 1, 0, 1])
    assert result.disagreements == 0.0
