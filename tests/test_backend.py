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
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.backend as backend_module
from repro.core import CorrelationInstance, DenseBackend, LazyLabelBackend
from repro.core.aggregate import aggregate
from repro.core.backend import (
    DEFAULT_LAZY_THRESHOLD,
    LAZY_THRESHOLD_ENV_VAR,
    grid_blocks,
    lazy_threshold,
    reduction_block_rows,
    resolve_backend,
)
from repro.core.instance import disagreement_fractions
from repro.core.kernels import distance_block
from repro.core.objective import MoveEvaluator
from repro.obs import tracing
from repro.parallel.portfolio import portfolio
from repro.stream.instance import IncrementalCorrelationInstance

from strategies import node_masses


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


def shrink_grid(monkeypatch, cache_blocks: int | None = None) -> None:
    """Drop the row grid to its 64-row floor (150+ rows span several blocks).

    ``cache_blocks`` also resizes the lazy backend's LRU cache.
    """
    monkeypatch.setattr(backend_module, "_BLOCK_ENTRIES", 1)
    if cache_blocks is not None:
        monkeypatch.setattr(backend_module, "CACHE_BLOCKS", cache_blocks)


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


def test_reductions_span_multiple_grid_blocks(monkeypatch) -> None:
    shrink_grid(monkeypatch)
    matrix = label_matrix(150, seed=8)
    dense, lazy = backend_pair(matrix)
    assert len(list(lazy.blocks())) == 3
    assert np.array_equal(lazy.materialize(), dense.dense())
    assert lazy.total_mass() == dense.total_mass()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("missing", ["coin-flip", "average"])
def test_every_tiling_of_x_matches_one_block_build(monkeypatch, dtype, missing) -> None:
    """The dense, lazy and streamed X on a multi-block grid equal one kernel call."""
    matrix = label_matrix(150, m=5, missing_frac=0.2, seed=21)
    kwargs = {"p": 0.3, "dtype": dtype, "missing": missing}
    one_block = distance_block(matrix, slice(None), **kwargs)
    shrink_grid(monkeypatch)
    assert list(grid_blocks(150)) == [(0, 64), (64, 128), (128, 150)]

    assert np.array_equal(disagreement_fractions(matrix, **kwargs), one_block)

    lazy = LazyLabelBackend(matrix, **kwargs)
    dense = DenseBackend(one_block)
    assert np.array_equal(lazy.materialize(), one_block)
    w = np.random.default_rng(22).random(150)
    labels = np.random.default_rng(23).integers(0, 4, size=150)
    assert np.array_equal(lazy.matvec(w), dense.matvec(w))
    assert lazy.total_mass() == dense.total_mass()
    assert lazy.cost(labels) == dense.cost(labels)
    assert lazy.cost(labels, w) == dense.cost(labels, w)
    assert lazy.lower_bound() == dense.lower_bound()
    assert lazy.lower_bound(w) == dense.lower_bound(w)
    assert lazy.argmax_entry() == dense.argmax_entry()

    stream = IncrementalCorrelationInstance(150, p=0.3, missing=missing, dtype=dtype)
    for j in range(matrix.shape[1]):
        stream.observe(matrix[:, j])
    assert np.array_equal(stream.distances(), one_block)


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(min_value=150, max_value=260),
    m=st.integers(min_value=1, max_value=5),
    k=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
    missing_frac=st.sampled_from([0.0, 0.25]),
    p=st.sampled_from([0.5, 0.2]),
    missing=st.sampled_from(["coin-flip", "average"]),
    dtype=st.sampled_from([np.float64, np.float32]),
)
@example(n=200, m=4, k=3, seed=5, missing_frac=0.3, p=0.2, missing="coin-flip", dtype=np.float64)
def test_dense_build_on_a_shrunken_grid_matches_one_block(
    n, m, k, seed, missing_frac, p, missing, dtype
) -> None:
    """Any row tiling of the dense build gives the bits of one kernel call."""
    matrix = label_matrix(n, m=m, k=k, missing_frac=missing_frac, seed=seed)
    kwargs = {"p": p, "dtype": dtype, "missing": missing}
    one_block = distance_block(matrix, slice(None), **kwargs)
    with pytest.MonkeyPatch.context() as patch:
        shrink_grid(patch)
        assert len(list(grid_blocks(n))) >= 3
        tiled = disagreement_fractions(matrix, **kwargs)
    assert tiled.dtype == one_block.dtype
    assert np.array_equal(tiled, one_block)


def test_disagreement_fractions_rejects_bad_parameters() -> None:
    matrix = label_matrix(6, m=2, k=2)
    with pytest.raises(ValueError, match="missing"):
        disagreement_fractions(matrix, missing="nope")
    with pytest.raises(ValueError, match="probability"):
        disagreement_fractions(matrix, p=1.5)


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
# Label-native reductions: the blocked pass's bits without its blocks
# ---------------------------------------------------------------------------


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=160),
    m=st.sampled_from([1, 2, 4, 8]),
    k=st.integers(min_value=1, max_value=4),
    p=st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 3 / 256]),
    missing_frac=st.sampled_from([0.0, 0.3]),
    duplicates=st.booleans(),
    weighted=st.booleans(),
    dtype=st.sampled_from([np.float64, np.float32]),
    shrink=st.booleans(),
    seed=st.integers(min_value=0, max_value=10_000),
)
@example(
    n=150, m=2, k=2, p=0.5, missing_frac=0.3, duplicates=True, weighted=True,
    dtype=np.float32, shrink=True, seed=0,
)
def test_label_native_reductions_equal_the_blocked_pass(
    n, m, k, p, missing_frac, duplicates, weighted, dtype, shrink, seed
) -> None:
    """Under the exactness rule each override has the base class's bits."""
    rng = np.random.default_rng(seed)
    matrix = label_matrix(n, m=m, k=k, missing_frac=missing_frac, seed=seed)
    if duplicates:
        matrix = matrix[rng.integers(0, max(1, n // 4), size=n)]
    matrix[0] = rng.integers(0, k, size=m)  # no entirely missing column
    weights = rng.integers(0, 4, size=n).astype(np.float64) if weighted else None
    w = np.ones(n) if weights is None else weights
    base = backend_module.PairDistanceBackend
    with pytest.MonkeyPatch.context() as patch:
        if shrink:
            shrink_grid(patch)
        lazy = LazyLabelBackend(matrix, p=p, dtype=dtype)
        native = [lazy.matvec(w), lazy.lower_bound(weights)]
        assert lazy.cached_block_indices() == ()
        oracle = LazyLabelBackend(matrix, p=p, dtype=dtype)
        blocked = [base.matvec(oracle, w), base.lower_bound(oracle, weights)]
    for value, reference in zip(native, blocked):
        assert same_bits(value, reference)


def two_temporary_lower_bound(backend, weights=None) -> float:
    """The blocked bound as ``np.minimum(rows, 1 - rows)``, two temporaries a block."""
    w = None if weights is None else np.asarray(weights, dtype=np.float64)
    total = 0.0
    for start, stop in backend.blocks():
        rows = backend.row_block(start, stop)
        one = rows.dtype.type(1.0)
        per_pair = np.minimum(rows, one - rows).astype(np.float64, copy=False)
        if w is None:
            total += float(per_pair.sum(dtype=np.float64))
        else:
            total += float(w[start:stop] @ (per_pair @ w))
    return total / 2.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("shrink", [False, True])
def test_blocked_lower_bound_keeps_the_two_temporary_bits(
    monkeypatch, dtype, weighted, shrink
) -> None:
    if shrink:
        shrink_grid(monkeypatch)
    rng = np.random.default_rng(7)
    matrix = label_matrix(150, m=5, missing_frac=0.2, seed=7)
    weights = rng.integers(1, 5, size=150).astype(np.float64) if weighted else None
    base = backend_module.PairDistanceBackend
    for backend in backend_pair(matrix, p=0.3, dtype=dtype):
        expected = two_temporary_lower_bound(backend, weights)
        assert same_bits(base.lower_bound(backend, weights), expected)
        assert same_bits(backend.lower_bound(weights), expected)


@pytest.mark.parametrize("case", ["m=3", "p=0.3", "average", "float w"])
def test_reductions_outside_the_exactness_rule_take_the_blocked_pass(monkeypatch, case) -> None:
    shrink_grid(monkeypatch)
    matrix = label_matrix(150, m=3 if case == "m=3" else 4, k=3, missing_frac=0.2, seed=31)
    matrix = np.vstack([matrix, matrix[:40]])  # duplicate rows, for the lower bound
    kwargs = {"p": 0.3 if case == "p=0.3" else 0.5}
    kwargs["missing"] = "average" if case == "average" else "coin-flip"
    rng = np.random.default_rng(32)
    w = rng.random(190) if case == "float w" else np.ones(190)
    dense, _ = backend_pair(matrix, **kwargs)
    reductions = (
        lambda backend: backend.matvec(w),
        lambda backend: backend.lower_bound(w),
    )
    for reduction in reductions:
        lazy = LazyLabelBackend(matrix, **kwargs)
        with tracing() as trace:
            value = reduction(lazy)
        assert len(trace.find("instance.block")) == len(list(lazy.blocks())) == 3
        assert same_bits(value, reduction(dense))


def test_label_native_reductions_compute_no_grid_block(monkeypatch) -> None:
    shrink_grid(monkeypatch)
    matrix = label_matrix(300, m=2, k=3, missing_frac=0.05, seed=41)
    distinct = np.unique(matrix, axis=0).shape[0]
    lazy = LazyLabelBackend(matrix)
    assert len(list(lazy.blocks())) == 5
    with tracing() as trace:
        lazy.matvec(np.ones(300))
        assert trace.find("instance.block") == []
        lazy.lower_bound()
    assert lazy.cached_block_indices() == ()
    # The one kernel call left is the distinct rows' pass.
    (atom_pass,) = trace.find("instance.block")
    assert atom_pass.attrs["rows"] == distinct < 64


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_lower_bound_leaves_sum_to_the_block_sum(monkeypatch, dtype) -> None:
    """Small leaves split a block many times, mixed magnitudes make the order show."""
    monkeypatch.setattr(backend_module, "_LEAF_ENTRIES", 200)
    rng = np.random.default_rng(3)
    for n in (37, 130, 411):
        X = rng.random((n, n)) * 10.0 ** rng.integers(-6, 1, size=(n, n))
        X = ((X + X.T) / 2).astype(dtype)
        np.fill_diagonal(X, 0)
        backend = DenseBackend(X)
        assert same_bits(backend.lower_bound(), two_temporary_lower_bound(backend))
        # Not C-contiguous: the sum runs over the memory order, as numpy's does.
        fortran = DenseBackend(np.asfortranarray(X))
        assert same_bits(fortran.lower_bound(), two_temporary_lower_bound(fortran))


def test_lower_bound_holds_no_reference_to_X() -> None:
    """The leaf walk leaves no reference cycle: X goes with its last reference."""
    import gc
    import weakref

    gc.disable()  # a cycle would keep X until the next collection
    try:
        X = disagreement_fractions(label_matrix(300, seed=54))
        alive = weakref.ref(X)
        assert DenseBackend(X).lower_bound() > 0.0
        del X
        assert alive() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# materialize: the lazy build, the dense hand-over and the memory guard
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_lazy_materialize_is_the_build_and_leaves_the_cache_alone(monkeypatch, dtype) -> None:
    shrink_grid(monkeypatch)
    matrix = label_matrix(200, missing_frac=0.2, seed=51)
    dense, lazy = backend_pair(matrix, p=0.3, dtype=dtype)
    with tracing() as trace:
        X = lazy.materialize()
    assert lazy.cached_block_indices() == ()
    assert trace.find("instance.block") == []
    assert X.dtype == dtype and X.tobytes() == dense.dense().tobytes()
    wide = lazy.materialize(np.float64)
    assert wide.tobytes() == dense.materialize(np.float64).tobytes()


def test_dense_hand_over_gives_X_once_then_raises() -> None:
    matrix = label_matrix(80, seed=52)
    backend = CorrelationInstance.from_label_matrix(matrix).backend
    X = backend.dense()
    # Without the hand-over a copy is a copy.
    assert backend.materialize(copy=True) is not X
    backend.hand_over()
    assert backend.materialize(np.float32, copy=True) is not X  # another dtype copies
    assert backend.materialize() is X  # a read, not a take
    assert backend.materialize(copy=True) is X
    assert (backend.n, backend.dtype) == (80, np.float64)
    reads = (
        backend.dense,
        backend.materialize,
        lambda: backend.row(0),
        lambda: backend.row_block(0, 5),
        lambda: backend.gather_block([0], [1]),
        lambda: backend.columns([0]),
        lambda: backend.take([0, 1]),
        backend.lower_bound,
        lambda: backend.matvec(np.ones(80)),
    )
    for read in reads:
        with pytest.raises(RuntimeError, match="handed its matrix over"):
            read()


def test_memory_guard_raises_before_allocating(monkeypatch) -> None:
    """An (n, n) X larger than physical memory is a ValueError, not an OOM kill."""
    matrix = label_matrix(50, seed=53)
    monkeypatch.setattr(backend_module, "_physical_memory", lambda: 50 * 50 * 8 - 1)
    message = r"\(50, 50\) float64 distance matrix needs 20,000 bytes.*'sampling', 'pivot' and 'sharded'"
    with pytest.raises(ValueError, match=message):
        disagreement_fractions(matrix)
    with pytest.raises(ValueError, match=message):
        LazyLabelBackend(matrix).materialize()
    with pytest.raises(ValueError, match=message):
        aggregate(matrix, backend="lazy")
    # A float32 X of the same n fits, and so does the default path's hand-over.
    assert disagreement_fractions(matrix, dtype=np.float32).dtype == np.float32
    monkeypatch.setattr(backend_module, "_physical_memory", lambda: 50 * 50 * 8)
    assert aggregate(matrix).clustering.n == 50
    monkeypatch.setattr(backend_module, "_physical_memory", lambda: 50 * 50 * 4)
    dense = CorrelationInstance.from_label_matrix(matrix, dtype=np.float32).backend
    with pytest.raises(ValueError, match="float64 distance matrix needs 20,000 bytes"):
        dense.materialize(np.float64, copy=True)
    monkeypatch.setattr(backend_module, "_physical_memory", lambda: None)
    assert disagreement_fractions(matrix).shape == (50, 50)


# ---------------------------------------------------------------------------
# LRU block cache
# ---------------------------------------------------------------------------


def test_lru_cache_hits_and_eviction_recompute_identically(monkeypatch) -> None:
    shrink_grid(monkeypatch, cache_blocks=2)
    matrix = label_matrix(200, seed=12)
    reference = disagreement_fractions(matrix)
    lazy = LazyLabelBackend(matrix)

    first = lazy.row_block(0, 64)
    assert lazy.cached_block_indices() == (0,)
    # A repeated grid-aligned request is served from cache (same object).
    assert lazy.row_block(0, 64) is first

    lazy.row_block(64, 128)
    lazy.row_block(128, 192)  # evicts block 0 (capacity 2, LRU order)
    assert lazy.cached_block_indices() == (1, 2)
    # Evicted blocks recompute bitwise identically.
    assert np.array_equal(lazy.row_block(0, 64), reference[0:64])

    # A cache hit refreshes recency: touch block 2, then load block 0;
    # block 1 is now the LRU entry and gets evicted.
    lazy.row_block(128, 192)
    lazy.row_block(0, 64)
    assert lazy.cached_block_indices() == (2, 0)


def test_row_served_from_cached_block(monkeypatch) -> None:
    shrink_grid(monkeypatch, cache_blocks=2)
    matrix = label_matrix(150, seed=13)
    lazy = LazyLabelBackend(matrix)
    block = lazy.row_block(64, 128)
    row = lazy.row(70)
    assert row.base is block or np.shares_memory(row, block)
    assert np.array_equal(row, block[6])


def test_unaligned_row_blocks_bypass_the_cache(monkeypatch) -> None:
    shrink_grid(monkeypatch, cache_blocks=4)
    matrix = label_matrix(150, seed=14)
    lazy = LazyLabelBackend(matrix)
    lazy.row_block(5, 69)
    assert lazy.cached_block_indices() == ()
    # The final ragged grid block is still cacheable.
    lazy.row_block(128, 150)
    assert lazy.cached_block_indices() == (2,)


def test_cache_disabled_with_zero_capacity(monkeypatch) -> None:
    shrink_grid(monkeypatch, cache_blocks=0)
    matrix = label_matrix(150, seed=15)
    lazy = LazyLabelBackend(matrix)
    lazy.row_block(0, 64)
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
        assert np.array_equal(node_masses(a), node_masses(b))
        assert a.total_cost_fast() == pytest.approx(b.total_cost_fast(), rel=1e-12)
        a.detach(3)
        b.detach(3)
        a.attach(3, int(labels[5]) if labels is initial else 5)
        b.attach(3, int(labels[5]) if labels is initial else 5)
        assert np.array_equal(node_masses(a), node_masses(b))


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
# Forked workers on the lazy backend
# ---------------------------------------------------------------------------


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
