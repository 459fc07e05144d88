"""Pair-distance backend tests: lazy/dense bit-identity, LRU cache, selection.

The lazy backend's contract is *bitwise* equality with the dense build —
every row block, gather, blocked reduction and downstream algorithm output
must match exactly (not within tolerance), because both paths accumulate
each element over the ``m`` label columns in the same order and walk the
same :func:`repro.core.backend.reduction_block_rows` grid.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CorrelationInstance, DenseBackend, LazyLabelBackend
from repro.core.aggregate import aggregate
from repro.core.backend import (
    DEFAULT_LAZY_THRESHOLD,
    LAZY_THRESHOLD_ENV_VAR,
    lazy_threshold,
    reduction_block_rows,
    resolve_backend,
)
from repro.core.kernels import distance_block
from repro.core.objective import MoveEvaluator
from repro.parallel.build import attach_instance, share_instance
from repro.parallel.portfolio import portfolio


def label_matrix(
    n: int, m: int = 6, k: int = 5, missing_frac: float = 0.0, seed: int = 0
) -> np.ndarray:
    """A random ``(n, m)`` label matrix, optionally with missing entries."""
    rng = np.random.default_rng(seed)
    matrix = rng.integers(0, k, size=(n, m)).astype(np.int64)
    if missing_frac:
        matrix[rng.random((n, m)) < missing_frac] = -1
    return matrix


def backend_pair(
    matrix: np.ndarray, **kwargs
) -> tuple[DenseBackend, LazyLabelBackend]:
    """A dense and a lazy backend over the same label matrix."""
    dense = CorrelationInstance.from_label_matrix(matrix, **kwargs).backend
    lazy = LazyLabelBackend(matrix, **kwargs)
    return dense, lazy


# ---------------------------------------------------------------------------
# Storage primitives: bitwise equality against the dense build
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("missing", ["coin-flip", "average"])
@pytest.mark.parametrize("missing_frac", [0.0, 0.3])
def test_primitives_bitwise_equal_dense(dtype, missing, missing_frac) -> None:
    matrix = label_matrix(57, missing_frac=missing_frac, seed=1)
    dense, lazy = backend_pair(matrix, dtype=dtype, missing=missing)
    X = dense.dense()

    assert lazy.dtype == np.dtype(dtype)
    assert lazy.n == dense.n == 57
    assert np.array_equal(lazy.materialize(), X)
    for start, stop in [(0, 10), (10, 57), (3, 4), (0, 57)]:
        assert np.array_equal(lazy.row_block(start, stop), X[start:stop])
    for u in (0, 7, 56):
        assert np.array_equal(lazy.row(u), X[u])
    idx = np.array([3, 0, 41, 3, 56])
    assert np.array_equal(lazy.gather(7, idx), X[7, idx])
    rows = np.array([0, 5, 17])
    assert np.array_equal(lazy.gather_block(rows, idx), X[np.ix_(rows, idx)])
    assert np.array_equal(lazy.columns(idx), X[:, idx])


def test_primitives_off_center_coin_flip() -> None:
    matrix = label_matrix(40, missing_frac=0.4, seed=2)
    dense, lazy = backend_pair(matrix, p=0.3)
    assert np.array_equal(lazy.materialize(), dense.dense())


def test_take_is_bitwise_equal_and_keeps_parent_dtype() -> None:
    matrix = label_matrix(48, seed=3)
    dense, lazy = backend_pair(matrix, dtype=np.float32)
    idx = np.array([40, 2, 2, 31, 7])
    assert np.array_equal(lazy.take(idx).materialize(), dense.take(idx).dense())
    # A float32 parent keeps float32 sub-backends even though the subset
    # is far below the small-n float64 default.
    assert lazy.take(idx).dtype == np.float32


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("p", [0.5, 0.3])
@pytest.mark.parametrize("missing", ["coin-flip", "average"])
def test_distance_block_matches_dense_gather(missing, p, dtype) -> None:
    matrix = label_matrix(30, missing_frac=0.5, seed=4)
    X = CorrelationInstance.from_label_matrix(matrix, p=p, dtype=dtype, missing=missing).X
    rows = np.array([0, 9, 9, 29])
    cols = np.array([29, 0, 3])
    kernel = {"p": p, "dtype": dtype, "missing": missing}
    block = distance_block(matrix, rows, cols, **kernel)
    assert block.dtype == np.dtype(dtype)
    assert np.array_equal(block, X[np.ix_(rows, cols)])
    # Slices and index arrays select the same entries bit for bit.
    assert np.array_equal(distance_block(matrix, slice(5, 12), **kernel), X[5:12])
    assert np.array_equal(distance_block(matrix, rows, slice(None), **kernel), X[rows])
    assert np.array_equal(distance_block(matrix, slice(None), cols, **kernel), X[:, cols])


def test_distance_block_zeroes_the_diagonal_rule() -> None:
    matrix = label_matrix(12, missing_frac=0.5, seed=5)
    rows = np.array([4, 7])
    block = distance_block(matrix, rows, rows)
    assert block[0, 0] == 0.0 and block[1, 1] == 0.0


# ---------------------------------------------------------------------------
# Blocked reductions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_reductions_bitwise_equal_dense(dtype) -> None:
    matrix = label_matrix(73, missing_frac=0.2, seed=6)
    dense, lazy = backend_pair(matrix, dtype=dtype)
    rng = np.random.default_rng(7)
    w = rng.random(73)
    labels = rng.integers(0, 4, size=73)

    assert np.array_equal(lazy.matvec(w), dense.matvec(w))
    assert lazy.total_mass() == dense.total_mass()
    assert lazy.cost(labels) == dense.cost(labels)
    assert lazy.cost(labels, w) == dense.cost(labels, w)
    assert lazy.lower_bound() == dense.lower_bound()
    assert lazy.lower_bound(w) == dense.lower_bound(w)
    assert lazy.argmax_entry() == dense.argmax_entry()


def test_reductions_span_multiple_grid_blocks() -> None:
    # Force a multi-block reduction grid on a small instance.
    matrix = label_matrix(50, seed=8)
    dense, lazy = backend_pair(matrix)
    lazy = LazyLabelBackend(matrix, block_rows=7)
    assert np.array_equal(lazy.materialize(), dense.dense())
    assert lazy.total_mass() == dense.total_mass()


def test_argmax_entry_matches_flat_argmax_semantics() -> None:
    matrix = label_matrix(41, seed=9)
    dense, lazy = backend_pair(matrix)
    X = dense.dense()
    expected = divmod(int(np.argmax(X)), X.shape[0])
    assert dense.argmax_entry() == expected
    assert lazy.argmax_entry() == expected


def test_argmax_entry_all_zero_matrix() -> None:
    # Identical rows => X == 0 everywhere; first occurrence is (0, 0).
    matrix = np.zeros((9, 3), dtype=np.int64)
    assert LazyLabelBackend(matrix).argmax_entry() == (0, 0)


def test_matvec_matches_historical_dense_product() -> None:
    matrix = label_matrix(33, seed=10)
    dense, _ = backend_pair(matrix, dtype=np.float32)
    X = dense.dense()
    w = np.random.default_rng(11).random(33)
    assert np.array_equal(dense.matvec(w), X.astype(np.float64) @ w)


def test_reduction_block_rows_grid_is_deterministic() -> None:
    assert reduction_block_rows(10) == 2048
    assert reduction_block_rows(1 << 22) == 64
    assert reduction_block_rows(0) == 2048
    # The grid depends only on n — both backends share it by construction.
    assert reduction_block_rows(50_000) == (1 << 22) // 50_000


# ---------------------------------------------------------------------------
# LRU block cache
# ---------------------------------------------------------------------------


def test_lru_cache_hits_and_eviction_recompute_identically() -> None:
    matrix = label_matrix(40, seed=12)
    reference = LazyLabelBackend(matrix, block_rows=8, cache_blocks=0).materialize()
    lazy = LazyLabelBackend(matrix, block_rows=8, cache_blocks=2)

    first = lazy.row_block(0, 8)
    assert lazy.cached_block_indices() == (0,)
    # A repeated grid-aligned request is served from cache (same object).
    assert lazy.row_block(0, 8) is first

    lazy.row_block(8, 16)
    lazy.row_block(16, 24)  # evicts block 0 (capacity 2, LRU order)
    assert lazy.cached_block_indices() == (1, 2)
    # Evicted blocks recompute bitwise identically.
    assert np.array_equal(lazy.row_block(0, 8), reference[0:8])

    # A cache hit refreshes recency: touch block 2, then load block 0;
    # block 1 is now the LRU entry and gets evicted.
    lazy.row_block(16, 24)
    lazy.row_block(0, 8)
    assert lazy.cached_block_indices() == (2, 0)


def test_row_served_from_cached_block() -> None:
    matrix = label_matrix(30, seed=13)
    lazy = LazyLabelBackend(matrix, block_rows=10, cache_blocks=2)
    block = lazy.row_block(10, 20)
    row = lazy.row(14)
    assert row.base is block or np.shares_memory(row, block)
    assert np.array_equal(row, block[4])


def test_unaligned_row_blocks_bypass_the_cache() -> None:
    matrix = label_matrix(30, seed=14)
    lazy = LazyLabelBackend(matrix, block_rows=10, cache_blocks=4)
    lazy.row_block(5, 15)
    assert lazy.cached_block_indices() == ()
    # The final ragged grid block is still cacheable.
    lazy.row_block(20, 30)
    assert lazy.cached_block_indices() == (2,)


def test_cache_disabled_with_zero_capacity() -> None:
    matrix = label_matrix(20, seed=15)
    lazy = LazyLabelBackend(matrix, block_rows=10, cache_blocks=0)
    lazy.row_block(0, 10)
    assert lazy.cached_block_indices() == ()


# ---------------------------------------------------------------------------
# Backend selection and the instance surface
# ---------------------------------------------------------------------------


def test_resolve_backend_threshold(monkeypatch) -> None:
    monkeypatch.delenv(LAZY_THRESHOLD_ENV_VAR, raising=False)
    assert lazy_threshold() == DEFAULT_LAZY_THRESHOLD
    assert resolve_backend("auto", DEFAULT_LAZY_THRESHOLD) == "dense"
    assert resolve_backend("auto", DEFAULT_LAZY_THRESHOLD + 1) == "lazy"
    assert resolve_backend("dense", 10**9) == "dense"
    assert resolve_backend("lazy", 2) == "lazy"
    monkeypatch.setenv(LAZY_THRESHOLD_ENV_VAR, "100")
    assert resolve_backend("auto", 101) == "lazy"
    assert resolve_backend("auto", 100) == "dense"


def test_lazy_threshold_rejects_bad_values(monkeypatch) -> None:
    monkeypatch.setenv(LAZY_THRESHOLD_ENV_VAR, "many")
    with pytest.raises(ValueError, match="must be an integer"):
        lazy_threshold()
    monkeypatch.setenv(LAZY_THRESHOLD_ENV_VAR, "-1")
    with pytest.raises(ValueError, match=">= 0"):
        lazy_threshold()


def test_resolve_backend_rejects_unknown_names() -> None:
    with pytest.raises(ValueError, match="backend must be"):
        resolve_backend("sparse", 10)


def test_from_label_matrix_auto_flips_to_lazy(monkeypatch) -> None:
    matrix = label_matrix(64, seed=16)
    monkeypatch.setenv(LAZY_THRESHOLD_ENV_VAR, "32")
    auto = CorrelationInstance.from_label_matrix(matrix, backend="auto")
    assert auto.backend.name == "lazy"
    monkeypatch.setenv(LAZY_THRESHOLD_ENV_VAR, "64")
    assert CorrelationInstance.from_label_matrix(matrix, backend="auto").backend.name == "dense"
    # The default stays dense for direct users regardless of size rules.
    assert CorrelationInstance.from_label_matrix(matrix).backend.name == "dense"


def test_lazy_instance_X_raises_with_guidance() -> None:
    instance = CorrelationInstance.lazy_from_label_matrix(label_matrix(10, seed=17))
    with pytest.raises(RuntimeError, match="backend='dense'"):
        instance.X  # repolint not applicable: tests may poke the matrix


def test_instance_requires_matrix_or_backend() -> None:
    with pytest.raises(ValueError, match="distance matrix or a backend"):
        CorrelationInstance()
    with pytest.raises(ValueError, match="mutually exclusive"):
        CorrelationInstance(np.zeros((2, 2)), backend=DenseBackend(np.zeros((2, 2))))


def test_instance_cost_and_lower_bound_identical_across_backends() -> None:
    matrix = label_matrix(66, missing_frac=0.1, seed=18)
    dense = CorrelationInstance.from_label_matrix(matrix)
    lazy = CorrelationInstance.lazy_from_label_matrix(matrix)
    labels = np.random.default_rng(19).integers(0, 5, size=66)
    assert dense.cost(labels) == lazy.cost(labels)
    assert dense.lower_bound() == lazy.lower_bound()
    assert dense.disagreements(labels) == lazy.disagreements(labels)


def test_weighted_atom_instances_identical_across_backends() -> None:
    matrix = label_matrix(44, seed=20)
    weights = np.random.default_rng(21).integers(1, 5, size=44).astype(np.float64)
    dense = CorrelationInstance.from_label_matrix(matrix, weights=weights)
    lazy = CorrelationInstance.lazy_from_label_matrix(matrix, weights=weights)
    labels = np.random.default_rng(22).integers(0, 3, size=44)
    assert dense.cost(labels) == lazy.cost(labels)
    assert dense.lower_bound() == lazy.lower_bound()


def test_subinstance_preserves_backend_flavor() -> None:
    matrix = label_matrix(36, seed=23)
    dense = CorrelationInstance.from_label_matrix(matrix)
    lazy = CorrelationInstance.lazy_from_label_matrix(matrix)
    idx = np.array([1, 5, 8, 30])
    assert dense.subinstance(idx).backend.name == "dense"
    sub = lazy.subinstance(idx)
    assert sub.backend.name == "lazy"
    assert np.array_equal(sub.backend.materialize(), dense.subinstance(idx).X)


def test_effective_weights_is_cached() -> None:
    instance = CorrelationInstance.from_label_matrix(label_matrix(12, seed=24))
    first = instance.effective_weights()
    assert instance.effective_weights() is first
    weighted = CorrelationInstance.from_label_matrix(
        label_matrix(12, seed=24), weights=np.full(12, 2.0)
    )
    assert weighted.effective_weights() is weighted.weights


# ---------------------------------------------------------------------------
# MoveEvaluator and algorithm outputs: bit-identical clusterings
# ---------------------------------------------------------------------------


def test_move_evaluator_masses_identical_across_backends() -> None:
    matrix = label_matrix(47, missing_frac=0.2, seed=25)
    dense = CorrelationInstance.from_label_matrix(matrix)
    lazy = CorrelationInstance.lazy_from_label_matrix(matrix)
    initial = np.random.default_rng(26).integers(0, 4, size=47)
    for labels in (initial, np.arange(47)):
        a = MoveEvaluator(dense, labels)
        b = MoveEvaluator(lazy, labels)
        assert np.array_equal(a._mass, b._mass)
        assert a.total_cost_fast() == pytest.approx(b.total_cost_fast(), rel=1e-12)
        a.detach(3)
        b.detach(3)
        a.attach(3, int(labels[5]) if labels is initial else 5)
        b.attach(3, int(labels[5]) if labels is initial else 5)
        assert np.array_equal(a._mass, b._mass)


ALGORITHMS = ["balls", "agglomerative", "furthest", "local-search", "annealing", "genetic"]


@pytest.mark.parametrize("method", ALGORITHMS)
@pytest.mark.parametrize("missing_frac", [0.0, 0.25])
def test_algorithms_bit_identical_across_backends(method, missing_frac) -> None:
    matrix = label_matrix(52, missing_frac=missing_frac, seed=27)
    kwargs = {"rng": 5} if method in ("local-search", "annealing", "genetic") else {}
    dense = aggregate(matrix, method=method, backend="dense", **kwargs)
    lazy = aggregate(matrix, method=method, backend="lazy", **kwargs)
    assert np.array_equal(dense.clustering.labels, lazy.clustering.labels)
    assert dense.cost == lazy.cost


def test_sampling_bit_identical_across_backends() -> None:
    matrix = label_matrix(90, missing_frac=0.1, seed=28)
    kwargs = dict(method="sampling", sample_size=25, rng=9)
    dense = aggregate(matrix, backend="dense", **kwargs)
    lazy = aggregate(matrix, backend="lazy", **kwargs)
    assert np.array_equal(dense.clustering.labels, lazy.clustering.labels)


def test_exact_bit_identical_across_backends() -> None:
    matrix = label_matrix(9, k=3, seed=29)
    dense = aggregate(matrix, method="exact", backend="dense")
    lazy = aggregate(matrix, method="exact", backend="lazy")
    assert np.array_equal(dense.clustering.labels, lazy.clustering.labels)


def test_collapsed_atoms_bit_identical_across_backends() -> None:
    # Duplicate rows -> weighted atom instance; the lazy path must agree.
    base = label_matrix(20, k=3, m=4, seed=30)
    matrix = np.vstack([base, base[:10]])
    dense = aggregate(matrix, method="balls", collapse=True, backend="dense")
    lazy = aggregate(matrix, method="balls", collapse=True, backend="lazy")
    assert np.array_equal(dense.clustering.labels, lazy.clustering.labels)


# ---------------------------------------------------------------------------
# Shared-memory fan-out and the parallel portfolio
# ---------------------------------------------------------------------------


def test_share_instance_ships_labels_not_the_matrix() -> None:
    matrix = label_matrix(31, missing_frac=0.2, seed=31)
    lazy = CorrelationInstance.lazy_from_label_matrix(matrix, p=0.4)
    with share_instance(lazy) as payload:
        assert payload["kind"] == "lazy"
        assert payload["descriptor"][1] == matrix.shape  # (n, m), not (n, n)
        rebuilt, shared = attach_instance(payload)
        try:
            assert rebuilt.backend.name == "lazy"
            assert rebuilt.backend.p == 0.4
            assert np.array_equal(
                rebuilt.backend.materialize(), lazy.backend.materialize()
            )
        finally:
            shared.close()


def test_share_instance_dense_round_trip() -> None:
    matrix = label_matrix(18, seed=32)
    dense = CorrelationInstance.from_label_matrix(matrix)
    with share_instance(dense) as payload:
        assert payload["kind"] == "dense"
        rebuilt, shared = attach_instance(payload)
        try:
            assert np.array_equal(rebuilt.X, dense.X)
        finally:
            shared.close()


@pytest.mark.parametrize("jobs", [1, 2])
def test_portfolio_lazy_backend_bit_identical(jobs) -> None:
    matrix = label_matrix(45, missing_frac=0.15, seed=33)
    dense = portfolio(matrix, n_jobs=1, rng=3, backend="dense")
    lazy = portfolio(matrix, n_jobs=jobs, rng=3, backend="lazy")
    assert lazy.best_method == dense.best_method
    assert lazy.cost == dense.cost
    assert np.array_equal(lazy.best.labels, dense.best.labels)


def test_sampling_with_worker_env_matches_serial(monkeypatch) -> None:
    matrix = label_matrix(70, seed=34)
    serial = aggregate(matrix, method="sampling", sample_size=20, rng=4, backend="lazy")
    monkeypatch.setenv("REPRO_JOBS", "2")
    parallel = aggregate(
        matrix, method="sampling", sample_size=20, rng=4, n_jobs=None, backend="lazy"
    )
    assert np.array_equal(serial.clustering.labels, parallel.clustering.labels)
