"""The label→distance kernel's two forms agree bit for bit (repro.core.kernels).

A fresh block with enough rows per one-hot code comes from one one-hot
product; ``out=`` (the accumulating path) always takes the per-column
compare loop.  Both must give the same bits for every input the product
accepts, and the product must decline the inputs where it would not be
exact or cheaper.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.kernels import MISSING, distance_block, separation_sums

SRC = Path(__file__).resolve().parents[1] / "src"

#: Most codes per label column drawn below.
ARITY = 6
#: Enough rows and columns for the product path at that arity.
SIZE = ARITY * kernels._PRODUCT_ROWS_PER_CODE


def loop_sums(matrix, rows, cols, p, dtype, missing):
    """The compare loop, reached through the accumulating ``out=`` path."""
    shape = (len(matrix[rows]), len(matrix[cols]))
    out = (
        np.zeros(shape, dtype=dtype),
        np.zeros(shape, dtype=dtype) if missing == "average" else None,
    )
    return separation_sums(matrix, rows, cols, p, dtype, missing, out=out)


def assert_same_bits(fresh, accumulated):
    for got, want in zip(fresh, accumulated):
        if want is None:
            assert got is None
            continue
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@st.composite
def label_matrices(draw):
    n = draw(st.integers(SIZE, SIZE + 40))
    m = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = rng.integers(0, draw(st.integers(1, ARITY)), size=(n, m))
    matrix[rng.random((n, m)) < draw(st.sampled_from([0.0, 0.2]))] = MISSING
    if draw(st.booleans()):  # huge sparse labels: label_codes' np.unique branch
        column = matrix[:, 0]
        matrix[:, 0] = np.where(column == MISSING, MISSING, (column + 1) * 10**12)
    if m > 1 and draw(st.booleans()):
        matrix[:, -1] = MISSING
    return matrix


@st.composite
def index_sets(draw, n):
    """A slice, an index array, or an index array with repeats, of at least SIZE entries."""
    kind = draw(st.sampled_from(["slice", "array", "repeats"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "slice":
        start = draw(st.integers(0, n - SIZE))
        return slice(start, draw(st.integers(start + SIZE, n)))
    if kind == "array":
        return rng.permutation(n)[: draw(st.integers(SIZE, n))]
    return rng.integers(0, n, size=draw(st.integers(SIZE, n + 20)))


class TestProductMatchesLoop:
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        matrix=label_matrices(),
        p=st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
        dtype=st.sampled_from([np.float32, np.float64]),
        missing=st.sampled_from(["coin-flip", "average"]),
    )
    def test_bitwise_equal(self, data, matrix, p, dtype, missing):
        rows = data.draw(index_sets(len(matrix)))
        cols = data.draw(index_sets(len(matrix)))
        assert kernels._product_sums(matrix[rows], matrix[cols], p, np.dtype(dtype), missing)
        assert_same_bits(
            separation_sums(matrix, rows, cols, p, dtype, missing),
            loop_sums(matrix, rows, cols, p, dtype, missing),
        )

    @pytest.mark.parametrize("missing", ["coin-flip", "average"])
    def test_single_column(self, missing):
        matrix = np.random.default_rng(0).integers(-1, 3, size=(SIZE + 5, 1))
        assert_same_bits(
            separation_sums(matrix, missing=missing, dtype=np.float32),
            loop_sums(matrix, slice(None), slice(None), 0.5, np.float32, missing),
        )

    def test_all_missing_column(self):
        matrix = np.random.default_rng(1).integers(0, 3, size=(SIZE + 5, 3))
        matrix[:, 1] = MISSING
        for missing in ("coin-flip", "average"):
            assert_same_bits(
                separation_sums(matrix, missing=missing),
                loop_sums(matrix, slice(None), slice(None), 0.5, np.float64, missing),
            )

    def test_distance_block_matches_loop(self):
        matrix = np.random.default_rng(2).integers(-1, 4, size=(SIZE + 10, 4))
        rows = np.arange(SIZE)
        block = distance_block(matrix, rows)
        separation, _ = loop_sums(matrix, rows, slice(None), 0.5, np.float64, "coin-flip")
        want = separation / 4
        want[rows, rows] = 0.0
        assert block.tobytes() == want.tobytes()


class TestProductDeclines:
    """Inputs where the product would not be exact or cheaper keep the loop."""

    def check(self, matrix, p=0.5, dtype=np.float64, missing="coin-flip", rows=slice(None)):
        assert kernels._product_sums(matrix[rows], matrix, p, np.dtype(dtype), missing) is None
        assert_same_bits(
            separation_sums(matrix, rows, slice(None), p, dtype, missing),
            loop_sums(matrix, rows, slice(None), p, dtype, missing),
        )

    def test_near_unique_column(self):
        n = 2 * SIZE
        matrix = np.arange(n)[:, None]  # arity n: never 12 rows per code
        self.check(matrix, rows=slice(0, SIZE))

    def test_wide_columns(self):
        n = 400  # enough rows per code; only the width rule declines
        matrix = np.stack([np.arange(n) % 60, np.arange(n) % 2], axis=1)
        self.check(matrix)

    def test_non_dyadic_p(self):
        matrix = np.random.default_rng(3).integers(-1, 3, size=(SIZE + 5, 3))
        self.check(matrix, p=0.3, dtype=np.float32)

    def test_few_rows(self):
        matrix = np.random.default_rng(4).integers(0, 3, size=(SIZE + 5, 3))
        self.check(matrix, rows=slice(0, 3 * kernels._PRODUCT_ROWS_PER_CODE - 1))

    def test_labels_below_missing(self):
        matrix = np.random.default_rng(5).integers(-1, 3, size=(SIZE + 5, 3))
        matrix[::7, 0] = -7
        self.check(matrix, missing="average")

    def test_float_labels(self):
        matrix = np.random.default_rng(6).integers(0, 3, size=(SIZE + 5, 3)) + 0.5
        self.check(matrix)


def test_forked_shard_builds_after_blas_threads_started():
    """Forked shard workers run the product after the parent's BLAS pool started.

    Two BLAS threads per process, a parent matmul before the fork; every
    AGGLOMERATIVE shard builds its instance through the one-hot product,
    and two shard workers must finish and match the serial run bit for bit.
    """
    script = textwrap.dedent(
        f"""
        import numpy as np
        from repro.shard import shard_aggregate

        a = np.ones((400, 400))
        a @ a
        rng = np.random.default_rng(0)
        matrix = rng.integers(0, {ARITY}, size=(4 * {SIZE}, 8)).astype(np.int32)
        matrix[rng.random(matrix.shape) < 0.05] = -1
        kwargs = dict(n_shards=2, shard_method="agglomerative", rng=0)
        serial = shard_aggregate(matrix, n_jobs=1, **kwargs)
        forked = shard_aggregate(matrix, n_jobs=2, **kwargs)
        labels = serial.clustering.labels
        print(forked.jobs, labels.tobytes() == forked.clustering.labels.tobytes())
        """
    )
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": str(SRC)}
    env.pop("REPRO_JOBS", None)
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "2 True"


@pytest.mark.parametrize("missing_frac", [0.0, 0.2])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("groups_dtype", [np.int32, np.int64])
def test_label_histogram_matches_the_masked_count(missing_frac, weighted, groups_dtype):
    """With or without missing entries, the table has the bits of a count
    over the masked copies of the column."""
    rng = np.random.default_rng(3)
    n, k, arity = 5000, 40, 7
    groups = rng.integers(0, k, size=n).astype(groups_dtype)
    values = rng.integers(0, arity, size=n)
    values[rng.random(n) < missing_frac] = MISSING
    weights = rng.uniform(0.5, 3.0, size=n) if weighted else None
    present = values != MISSING
    flat = groups[present].astype(np.int64) * arity + values[present]
    expected = np.bincount(
        flat, weights=None if weights is None else weights[present], minlength=k * arity
    ).astype(np.float64)
    table = kernels.label_histogram(groups, values, k, arity, weights)
    assert table.shape == (k, arity) and table.dtype == np.float64
    assert table.tobytes() == expected.reshape(k, arity).tobytes()


class TestWritesInPlace:
    """``distance_block(out=...)`` writes the fresh block's bits into a view."""

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        matrix=label_matrices(),
        p=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
        dtype=st.sampled_from([np.float32, np.float64]),
        missing=st.sampled_from(["coin-flip", "average"]),
        product=st.booleans(),
        strided=st.booleans(),
    )
    def test_view_gets_the_fresh_bits(
        self, data, matrix, p, dtype, missing, product, strided
    ):
        rows = data.draw(index_sets(len(matrix)))
        cols = data.draw(index_sets(len(matrix)))
        shape = (len(matrix[rows]), len(matrix[cols]))
        with pytest.MonkeyPatch.context() as patch:
            if not product:  # no block has enough rows per code: the compare loop
                patch.setattr(kernels, "_PRODUCT_ROWS_PER_CODE", 10**9)
            takes_product = kernels._product_sums(
                matrix[rows], matrix[cols], p, np.dtype(dtype), missing
            )
            assert (takes_product is not None) == product
            fresh = distance_block(matrix, rows, cols, p, dtype, missing)
            # A view inside a larger array, strided or a run of whole rows.
            big = np.full((shape[0] + 3, shape[1] + (5 if strided else 0)), np.nan, dtype=dtype)
            out = big[1 : 1 + shape[0], 2 : 2 + shape[1]] if strided else big[1 : 1 + shape[0]]
            got = distance_block(matrix, rows, cols, p, dtype, missing, out=out)
        assert got is out
        assert out.tobytes() == fresh.tobytes()
        outside = np.ones(big.shape, dtype=bool)
        outside[1 : 1 + shape[0], (2 if strided else 0) : (2 if strided else 0) + shape[1]] = False
        assert np.isnan(big[outside]).all()
