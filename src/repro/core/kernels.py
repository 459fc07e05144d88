"""The label→distance kernel: ``X[u, v]`` straight from the label columns.

§2 of the paper: ``X[u, v]`` is the fraction of the ``m`` input
clusterings that separate ``u`` and ``v``.  A missing label (``-1``)
follows the ``"coin-flip"`` model (the pair counts as co-clustered with
probability ``p``, contributing ``1 - p`` over a denominator of ``m``) or
the ``"average"`` model (only clusterings concrete on both objects count;
a pair with none gets 0.5).

This is the one module that compares label columns pairwise.  A fresh
block with at least a dozen rows and columns per one-hot code of a label
column is one BLAS product of one-hot encodings of the labels.  A thinner
block or a single row, an accumulating update (one streamed column at a
time), a coin-flip ``p`` that is not a multiple of ``2**-8``, non-integer
or below-``-1`` labels and near-unique columns take the per-column
compare loop.  The product runs only where every partial sum is an
integer, or an integer multiple of the dyadic ``p``, far below the
significand: exact in float32 and float64, so equal to the loop, which
adds each entry's terms in column order whatever the tile.  Any tiling
of ``X`` — row blocks, gathers, worker fan-outs, BLAS blocking and
thread counts — is therefore bitwise identical.  :func:`_exact_reductions`
carries the same argument from entries to weighted sums over ``X``: where
it holds, the lazy backend's reductions come from count tables with the
bits of a pass over every row block.

It is also the one module that turns a label column into a count table:
:func:`label_codes` is the single indexing rule, :func:`label_histogram`
the weighted group-by-label table, and :func:`separation_mass` the
coin-flip mass of rows against groups read off such a table — behind
D(C), SAMPLING's assignment phase and the streaming mass updates.
:func:`distinct_codes` groups rows by their tuple of codes, so work that
depends only on a row's labels runs once per distinct row.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MISSING",
    "check_missing_model",
    "default_dtype",
    "distance_block",
    "distinct_codes",
    "label_codes",
    "label_histogram",
    "normalize",
    "separation_mass",
    "separation_sums",
]

#: Sentinel used in label matrices for "this clustering has no opinion".
MISSING = -1

_ALL = slice(None)


def check_missing_model(p: float, missing: str = "coin-flip") -> None:
    """Raise ``ValueError`` unless ``missing`` is a §2 model and ``p`` a probability."""
    if missing not in ("coin-flip", "average"):
        raise ValueError(f"missing must be 'coin-flip' or 'average', got {missing!r}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be a probability, got {p}")


def default_dtype(n: int) -> np.dtype:
    """Distance dtype for ``n`` objects: float64 up to 4096, float32 beyond."""
    return np.dtype(np.float64 if n <= 4096 else np.float32)


def separation_sums(
    matrix: np.ndarray,
    rows: slice | np.ndarray = _ALL,
    cols: slice | np.ndarray = _ALL,
    p: float = 0.5,
    dtype: np.dtype | type = np.float64,
    missing: str = "coin-flip",
    out: tuple[np.ndarray, np.ndarray | None] | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Un-normalized ``(separation, comparable)`` of ``matrix[rows]`` against ``matrix[cols]``.

    ``rows`` and ``cols`` are each a slice or an index array.  Per label
    column a pair adds 1 to ``separation`` when its labels are concrete
    and differ, and ``1 - p`` when one is missing under ``"coin-flip"``;
    under ``"average"`` it adds 1 to ``comparable`` when both are concrete
    (``comparable`` is ``None`` otherwise).  ``out`` accumulates into the
    given arrays instead of fresh zeros.  The diagonal is not special.

    A fresh multi-row block whose sums are exact in ``dtype`` comes from
    one one-hot product (:func:`_product_sums`); everything else, ``out``
    included, from the per-column compare loop.  Both give the same bits.
    """
    np_dtype = np.dtype(dtype)
    row_labels = matrix[rows]
    col_labels = matrix[cols]
    if out is None:
        sums = _product_sums(row_labels, col_labels, p, np_dtype, missing)
        if sums is not None:
            return sums
    return _compare_sums(row_labels, col_labels, p, np_dtype, missing, out)


#: Rows (and columns) per one-hot code of a label column the product
#: needs, ``min(r, c) * m >= 12 * W``: with fewer, encoding both sides
#: costs more than comparing them (crossover 4-13 against 8192 columns,
#: one core).
_PRODUCT_ROWS_PER_CODE = 12
#: Widest one-hot encoding, in codes per label column, the product takes
#: (crossover 30-40): near-unique columns keep the compare loop.
_PRODUCT_MAX_WIDTH = 24
#: The product takes a coin-flip ``p`` only when ``p * _DYADIC`` is an
#: integer, so every partial sum is an integer multiple of ``1 / _DYADIC``.
_DYADIC = 256
#: Units of ``1 / (_DYADIC * m)`` a weighted sum over ``X`` (of
#: ``1 / _DYADIC`` for ``D(C)``) may reach under :func:`_exact_objective`:
#: 8x below float64's ``2**53``, the headroom for the few such sums the
#: reductions add and subtract.
_EXACT_UNITS = 1 << 50


def _exact_objective(
    matrix: np.ndarray, p: float, missing: str, weights: np.ndarray | None = None
) -> bool:
    """Whether :func:`~repro.core.distance.total_disagreement` of ``matrix`` is exact in float64.

    True under coin-flip with ``p * _DYADIC`` an integer, ``m * _DYADIC``
    below ``2**24``, integer labels and integral non-negative ``weights``
    (``None`` means ones) with ``(sum w)**2 * m * _DYADIC < _EXACT_UNITS``.
    Every table entry, pair mass and per-column term of ``D(C)`` is then a
    multiple of ``1 / _DYADIC`` well inside float64's significand, so
    ``D(C)`` is the exact expected disagreement count, equal to
    ``m * d(C)`` in real arithmetic.  Each entry of ``X`` is ``s / m``
    with the separation sum ``s`` exact in float32 and float64, rounded
    once by the division.
    """
    n, m = matrix.shape
    if (
        missing != "coin-flip"
        or (p * _DYADIC) % 1.0 != 0.0
        or m < 1
        or m * _DYADIC >= 1 << 24  # float32's significand
        or not np.issubdtype(matrix.dtype, np.integer)
    ):
        return False
    if weights is None:
        total = float(n)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if not (np.all(np.isfinite(w)) and np.all(w >= 0.0) and np.all(w == np.floor(w))):
            return False
        total = float(w.sum())
    return total * total * m * _DYADIC < _EXACT_UNITS


def _exact_reductions(
    matrix: np.ndarray, p: float, missing: str, weights: np.ndarray | None = None
) -> bool:
    """Whether every weighted sum over the ``X`` of ``matrix`` is exact in float32 and float64.

    :func:`_exact_objective` with ``m`` a power of two.  Every entry
    ``X[u, v]`` is then ``s / m`` with
    ``s`` a multiple of ``1 / _DYADIC`` — exact in either dtype, as is
    ``1 - X[u, v]`` — and every product ``w_u X[u, v] w_v`` and every
    partial sum of a row or of all pairs is a multiple of
    ``1 / (_DYADIC * m)`` well inside float64's significand.  Any
    summation order, the blocked pass over row blocks or a pass over
    count tables or distinct rows, gives the same bits.
    """
    m = matrix.shape[1]
    return m >= 1 and not m & (m - 1) and _exact_objective(matrix, p, missing, weights)


def _product_sums(
    row_labels: np.ndarray,
    col_labels: np.ndarray,
    p: float,
    dtype: np.dtype,
    missing: str,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None] | None:
    """The compare loop's sums from one BLAS product, or ``None`` where that is not exact or cheaper.

    Over the union of both row sets each label column becomes a one-hot
    block ``E_j`` (over :func:`label_codes`), so the pairs agreeing at
    column ``j`` are ``E_j E_j^T``; ``P`` marks the concrete entries of
    the ``k`` columns with a missing one.  With ``A = [E | P | 1]`` on the
    rows and ``B = [-E | q P | base]`` on the columns — ``q = p`` and
    ``base = m - p k`` under coin-flip, ``q = 1`` and ``base = m - k``
    under ``"average"``, whose ``comparable`` is ``[P | 1] [P | base]^T``
    — the separation is ``A B^T`` (both stored transposed, one object per
    column).  Every partial sum is an integer or an integer multiple of
    the dyadic ``p``, of magnitude at most ``3 m``, so it is exact in
    float32 and float64 under any BLAS blocking or thread count: the
    loop's sums, bit for bit.  ``out`` receives the separation in place.
    """
    r, m = row_labels.shape
    c = col_labels.shape[0]
    coin_flip = missing == "coin-flip"
    if (
        min(r, c) < _PRODUCT_ROWS_PER_CODE
        or m == 0
        or 3 * m * _DYADIC >= 1 << 24  # float32's significand
        or not np.issubdtype(row_labels.dtype, np.integer)
        or (coin_flip and (p * _DYADIC) % 1.0 != 0.0)
    ):
        return None
    union = np.concatenate([row_labels.T, col_labels.T], axis=1)
    if union.min() < MISSING:
        return None
    encoded = [label_codes(column) for column in union]
    arities = np.array([arity for _, arity in encoded], dtype=np.int64)
    width = int(arities.sum())
    if width > _PRODUCT_MAX_WIDTH * m or min(r, c) * m < _PRODUCT_ROWS_PER_CODE * width:
        return None
    present = union != MISSING
    gaps = np.flatnonzero(~present.all(axis=1))
    q, base = (p, m - p * gaps.size) if coin_flip else (1.0, m - gaps.size)
    # [E | P | 1]^T over the union: one row per code, gap column and the
    # constant, one column per object.  flat[j, u] is object u's entry for
    # its code at label column j.
    flat = np.stack([codes for codes, _ in encoded], dtype=np.int64)
    flat += (np.cumsum(arities) - arities)[:, None]
    flat *= r + c
    flat += np.arange(r + c)
    onehot = np.zeros((width + gaps.size + 1, r + c), dtype=dtype)
    onehot.reshape(-1)[flat[present]] = 1
    onehot[width:-1] = present[gaps]
    onehot[-1] = 1
    scale = np.full(onehot.shape[0], -1.0, dtype=dtype)
    scale[width:-1] = q
    scale[-1] = base
    A, B = onehot[:, :r], onehot[:, r:]
    B *= scale[:, None]
    separation = np.matmul(A.T, B, out=out)
    if coin_flip:
        return separation, None
    return separation, A[width:].T @ B[width:]


def _compare_sums(
    row_labels: np.ndarray,
    col_labels: np.ndarray,
    p: float,
    dtype: np.dtype,
    missing: str,
    out: tuple[np.ndarray, np.ndarray | None] | None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """:func:`separation_sums` one label column at a time, in column order."""
    row_labels = np.ascontiguousarray(row_labels.T)
    col_labels = np.ascontiguousarray(col_labels.T)
    shape = (row_labels.shape[1], col_labels.shape[1])
    if out is None:
        separation = np.zeros(shape, dtype=dtype)
        comparable = np.zeros(shape, dtype=dtype) if missing == "average" else None
    else:
        separation, comparable = out
    fill = dtype.type(1.0 - p)
    # Each column adds its 0/1 "concretely different" mask; coin-flip
    # missing pairs (0 in the mask) then get 1 - p.  s + 0 == s exactly, so
    # every entry still takes each column's term in one rounding step.
    different = np.empty(shape, dtype=bool)
    both_present = np.empty(shape if comparable is not None else (0, 0), dtype=bool)
    for row_part, col_part in zip(row_labels, col_labels):
        np.not_equal(row_part[:, None], col_part[None, :], out=different)
        row_missing = row_part == MISSING
        col_missing = col_part == MISSING
        any_missing = bool(row_missing.any() or col_missing.any())
        if any_missing:
            different[row_missing] = False
            different[:, col_missing] = False
        separation += different
        if comparable is not None:
            if any_missing:
                np.logical_and(~row_missing[:, None], ~col_missing[None, :], out=both_present)
                comparable += both_present
            else:
                comparable += dtype.type(1.0)
        elif any_missing:
            separation[row_missing] += fill
            separation[np.ix_(~row_missing, col_missing)] += fill
    return separation, comparable


def normalize(
    separation: np.ndarray, denominator: float | np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Distances: separation sums over the column count (or decayed weight)
    or, under ``"average"``, the per-pair ``comparable`` counts (0.5 where 0)."""
    if isinstance(denominator, np.ndarray):
        with np.errstate(invalid="ignore", divide="ignore"):
            result = np.divide(separation, denominator, out=out)
        result[denominator == 0] = result.dtype.type(0.5)
        return result
    return np.divide(separation, separation.dtype.type(denominator), out=out)


def distance_block(
    matrix: np.ndarray,
    rows: slice | np.ndarray = _ALL,
    cols: slice | np.ndarray = _ALL,
    p: float = 0.5,
    dtype: np.dtype | type = np.float64,
    missing: str = "coin-flip",
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``X[rows, cols]`` of the label matrix, with ``X[u, u] = 0``.

    ``out``, an array of the block's shape and ``dtype``, receives the
    block in place: the dense build hands each grid block its rows of
    ``X``.  The product writes into it, the compare loop zero-fills it and
    accumulates, so it holds the fresh block's bits.
    """
    np_dtype = np.dtype(dtype)
    row_labels = matrix[rows]
    col_labels = matrix[cols]
    sums = _product_sums(row_labels, col_labels, p, np_dtype, missing, out)
    if sums is None:
        target = None
        if out is not None:
            out.fill(0)
            target = (out, np.zeros_like(out) if missing == "average" else None)
        sums = _compare_sums(row_labels, col_labels, p, np_dtype, missing, target)
    separation, comparable = sums
    denominator = matrix.shape[1] if comparable is None else comparable
    block = normalize(separation, denominator, out=separation)
    row_ids = _object_ids(rows, matrix.shape[0])
    if isinstance(cols, slice) and cols == _ALL:
        block[np.arange(row_ids.size), row_ids] = block.dtype.type(0.0)
    else:
        col_ids = _object_ids(cols, matrix.shape[0])
        block[row_ids[:, None] == col_ids[None, :]] = block.dtype.type(0.0)
    return block


def _object_ids(index: slice | np.ndarray, n: int) -> np.ndarray:
    return np.arange(*index.indices(n)) if isinstance(index, slice) else index


def label_codes(column: np.ndarray) -> tuple[np.ndarray, int]:
    """``(codes, arity)``: count-table indices of one label column and the table width.

    The one indexing rule of every count table: the raw labels when the
    column's largest label is below its length, ``np.unique`` inverse
    codes of the concrete labels otherwise (``MISSING`` stays in place).
    Either way ``arity`` is at most the column length, so no table grows
    with the label values; an all-missing column has arity 0.
    """
    top = int(column.max()) if column.size else MISSING
    if top < column.size:
        return column, top + 1
    present = column != MISSING
    uniq, inverse = np.unique(column[present], return_inverse=True)
    codes = np.full(column.shape, MISSING, dtype=np.int64)
    codes[present] = inverse.reshape(-1)  # numpy 2.0.x returns (c, 1)
    return codes, int(uniq.size)


def label_histogram(
    groups: np.ndarray,
    values: np.ndarray,
    k: int,
    arity: int,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Float64 ``(k, arity)`` table: summed ``weights`` (default 1) of the
    objects in group ``g`` with concrete label ``v``, in object order."""
    present = values != MISSING
    if not present.all():  # copy the column only when entries are missing
        groups, values = groups[present], values[present]
        weights = None if weights is None else weights[present]
    flat = groups.astype(np.int64, copy=False) * arity + values
    counts = np.bincount(flat, weights=weights, minlength=k * arity)
    return counts.astype(np.float64, copy=False).reshape(k, arity)


def separation_mass(
    codes: np.ndarray,
    counts: np.ndarray,
    concrete: np.ndarray,
    sizes: np.ndarray,
    p: float,
) -> np.ndarray:
    """Float64 ``(rows, k)`` coin-flip separation mass of each row against each group.

    One label column under the §2 coin-flip model: ``codes`` are the
    rows' :func:`label_codes`, ``counts`` the groups' :func:`label_histogram`
    over the same codes, ``concrete`` its row sums and ``sizes`` the
    groups' total weights, missing members included.  Entry ``[v, g]``
    sums, over the members ``u`` of ``g``, ``w_u`` when both labels are
    concrete and differ and ``(1 - p) * w_u`` when either is missing.  A
    missing row also pays the coin flip against itself when it belongs
    to ``g``; callers that pin ``X[v, v] = 0`` subtract that term.
    """
    one_minus_p = 1.0 - p
    present = codes != MISSING
    mass = np.empty((codes.size, sizes.size), dtype=np.float64)
    mass[~present] = one_minus_p * sizes
    if present.any():
        # Concrete v: one per concretely-differing member, a coin flip per
        # member missing at this column.
        mass[present] = (concrete - counts[:, codes[present]].T) + one_minus_p * (
            sizes - concrete
        )
    return mass


#: A mixed-radix key of :func:`distinct_codes` is re-ranked before a
#: multiply would reach this, far from int64's ``2**63``.
_KEY_LIMIT = 1 << 62
#: Keys below ``max(_TABLE_ROWS * rows, _TABLE_FLOOR)`` are ranked by
#: counting over a table of every possible key; larger bounds sort.
_TABLE_ROWS = 4
_TABLE_FLOOR = 1 << 16


def _ranks(key: np.ndarray, bound: int) -> tuple[np.ndarray, int]:
    """``(inverse, count)``: ``np.unique``'s inverse ranks and distinct count
    of keys in ``0..bound-1``.

    Counting over a table of all ``bound`` keys when it is at most
    proportional to the number of keys, ``np.unique`` above that.
    """
    if bound > max(_TABLE_ROWS * key.size, _TABLE_FLOOR):
        uniq, inverse = np.unique(key, return_inverse=True)
        return inverse.reshape(-1), int(uniq.size)  # 1-D on every numpy 2.x
    seen = np.zeros(bound, dtype=bool)
    seen[key] = True
    ranks = np.cumsum(seen)
    ranks -= 1
    return ranks[key], int(ranks[-1]) + 1 if bound else 0  # bound 0: no keys


def distinct_codes(
    code_columns: list[tuple[np.ndarray, int]], rows: slice | np.ndarray = _ALL
) -> tuple[np.ndarray, np.ndarray]:
    """``(first, inverse)``: the distinct tuples of label codes over ``rows``.

    ``code_columns`` holds one :func:`label_codes` pair ``(codes, arity)``
    per label column.  Each row's tuple becomes one int64 mixed-radix key
    of ``codes + 1`` with radix ``arity + 1``; before a multiply would
    reach ``2**62`` the key is re-ranked, so it never overflows.  Both
    re-ranking and the final ranking count over a table of every key
    when its bound is at most proportional to the rows, and sort only
    above that.  Ranking keeps the lexicographic order of the tuples,
    and :func:`label_codes` keeps the order of the labels, so the
    distinct tuples come out in ``np.unique(matrix, axis=0)``'s row
    order.  ``first[t]`` is the position in ``rows`` of tuple ``t``'s
    first row and ``inverse[i]`` the tuple of position ``i``: exactly
    ``np.unique(key, return_index=True, return_inverse=True)``'s.
    """
    codes, arity = code_columns[0]
    key = codes[rows].astype(np.int64)
    key += 1
    bound = arity + 1  # every key is below this
    for codes, arity in code_columns[1:]:
        radix = arity + 1
        if bound * radix >= _KEY_LIMIT:
            key, bound = _ranks(key, bound)
        key *= radix
        key += codes[rows]
        key += 1
        bound *= radix
    inverse, count = _ranks(key, bound)
    first = np.full(count, key.size, dtype=np.int64)
    np.minimum.at(first, inverse, np.arange(key.size))
    return first, inverse
