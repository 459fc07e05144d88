"""AGGLOMERATIVE — bottom-up average-linkage correlation clustering (§4).

Every node starts as a singleton; the pair of clusters with the smallest
*average* inter-cluster distance is merged as long as that average is below
1/2.  When no pair of clusters has average distance < 1/2, merging any pair
would increase the correlation cost, so the algorithm stops.  The produced
clusters have the property that the average distance between any two member
nodes is at most 1/2 — "the opinion of the majority is respected on
average" — and for ``m = 3`` input clusterings the result is a
2-approximation.

The implementation keeps the cluster-to-cluster average-distance matrix
and a nearest-neighbour cache per cluster.  Average linkage obeys the
Lance–Williams recurrence

    d(A ∪ B, C) = (|A| d(A,C) + |B| d(B,C)) / (|A| + |B|)

so each merge costs one row (and column) update plus cache repair, over
the *slots* of the matrix still in use.  The loop runs compiled
(``_merge.c``, built on first use by :mod:`._native`) where a C compiler is
found, and as the numpy loop :func:`_merge` otherwise; the two make the
same float operations in the same order, so their merges, caches and
counters are equal bit for bit, and the ``agglomerative.merge`` span
records the ``engine`` that ran (``"c"`` or ``"numpy"``).  One merge:

* A retired cluster's row and column are never overwritten.  A per-slot
  ``penalty`` (0 for active slots, +inf for retired ones) is added to every
  row before its ``argmin``; ``x + 0 == x`` exactly, so the distances and
  the first-index tie-breaking are those of a matrix whose retired entries
  were set to infinity.
* The merged row is the Lance–Williams average computed in float64 and
  rounded once to the working dtype; column ``i`` mirrors the stored row.
* The rows whose cached neighbour was one of the merged pair are stale.
  One whose distance to the merged cluster equals its cached minimum keeps
  that minimum, now at the merged slot; every other stale row is
  recomputed with one ``argmin`` (counted as ``repairs``).  A cache holds
  *a* slot at the row's minimum, not always the first: after a keep, or
  after a move below, an earlier slot can sit at the same distance, and a
  full ``argmin`` would find that one instead.
* Any other row now closer to the merged cluster than its cached minimum
  moves to it.  In exact arithmetic average linkage never does that, but
  the rounded average can land an ulp below a row's minimum, and it does
  on real inputs (the span's ``improved`` attribute counts those rows).
* When the active clusters fall to half the slots, their submatrix is
  gathered into the leading block of the same buffer, and the cache, sizes
  and slot ids follow.  Compaction keeps the relative order of the slots,
  so ties still break towards the same cluster, and every later step works
  on at most twice as many slots as there are clusters.
* Membership is a parent array over the objects, written once per merge
  and resolved to labels at the end.

The merges, their order and the output are those of the textbook loop over
an ``n x n`` matrix.  Time is ``O(n^2)`` in practice; memory is one working
copy of ``X`` (float64 up to 4096 objects, float32 above) plus ``O(n)``
vectors, with no second matrix-sized buffer.

If the user insists on a fixed number of clusters (as the paper notes in
§2), pass ``force_k``: merging then continues past the 1/2 threshold until
``force_k`` clusters remain.
"""

from __future__ import annotations

import functools
import math
import numbers
from typing import Any, Callable, NamedTuple

import numpy as np

from ..core.instance import CorrelationInstance
from ..core.kernels import default_dtype
from ..core.partition import Clustering
from ..obs.metrics import inc
from ..obs.profile import phase
from ..registry import register_method
from ._native import merge_loops

__all__ = ["agglomerative"]

# Below this many slots the matrix is small enough that compacting it again
# costs more than it saves.
_COMPACT_MIN_SLOTS = 64
# Rows gathered per call when compacting.
_COMPACT_CHUNK = 64


def _check_count(name: str, value: int | None, n: int | None = None) -> None:
    """Reject a cluster-count argument unless it is ``None`` or an integer in ``1..n``.

    A bool, a float or any other non-integer raises, as does a count
    below 1 or above ``n`` (no upper limit when ``n`` is ``None``); numpy
    integers pass.  Shared with FURTHEST's ``max_k`` and ``force_k``.
    """
    if value is None:
        return
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer or None, got {value!r}")
    if value < 1 or (n is not None and value > n):
        allowed = "a positive integer" if n is None else f"in 1..{n}"
        raise ValueError(f"{name} must be {allowed}, got {value}")


def _gather(buffer: np.ndarray, D: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """``D[keep][:, keep]``, gathered into the front of ``buffer`` and returned.

    The rows go ``_COMPACT_CHUNK`` at a time in slot order.  A chunk is
    read whole before it is written, and its rows ``new .. stop - 1`` end
    before the next chunk's first row ``keep[stop]`` starts, as
    ``keep[stop] >= stop`` and ``keep`` is shorter than ``D``.
    """
    size = keep.size
    for new in range(0, size, _COMPACT_CHUNK):
        chunk = keep[new : new + _COMPACT_CHUNK, None]
        buffer[new * size : (new + chunk.size) * size] = D[chunk, keep].reshape(-1)
    return buffer[: size * size].reshape(size, size)


class _Slots(NamedTuple):
    """The merge loop's state over the matrix slots in use."""

    #: Cluster-to-cluster average distances, a view of the front of the buffer.
    D: np.ndarray
    #: 0 for an active slot, +inf for a retired one.
    penalty: np.ndarray
    #: Each slot's cluster weight.
    sizes: np.ndarray
    #: An object of the cluster in each slot.
    slot_obj: np.ndarray
    #: Nearest-neighbour cache: a slot at the row's minimum, not always the
    #: first (-1 for a retired slot), and that minimum (+inf when retired).
    nn_idx: np.ndarray
    nn_val: np.ndarray


def _start(D: np.ndarray, sizes: np.ndarray) -> _Slots:
    """The loop's state before its first merge: every slot active, each
    row's cache at its first nearest slot."""
    n = D.shape[0]
    nn_idx = np.argmin(D, axis=1).astype(np.int64, copy=False)
    nn_val = D[np.arange(n), nn_idx]
    penalty = np.zeros(n, dtype=D.dtype)
    return _Slots(D, penalty, sizes, np.arange(n, dtype=np.int64), nn_idx, nn_val)


def _merge(
    buffer: np.ndarray,
    state: _Slots,
    parent: np.ndarray,
    target: int,
    threshold: float | None,
) -> tuple[_Slots, dict[str, int]]:
    """Merge the closest pair of clusters until ``target`` remain.

    The loop also stops at the first closest pair at ``threshold`` or more,
    unless ``threshold`` is ``None``.  ``state`` is what :func:`_start`
    returns; ``parent`` is updated in place.  Returns the state after the
    last merge and the counts of cache ``repairs``, ``improved`` rows and
    ``compactions``.
    """
    D, penalty, sizes, slot_obj, nn_idx, nn_val = state
    remaining = int(np.count_nonzero(penalty == 0))
    repairs = 0
    improved = 0
    compactions = 0
    # Scratch rows over the slots in use (re-sliced at each compaction): the
    # Lance-Williams terms in float64, as a float64 size times a float32 row
    # is float64; row i and a repaired row with the penalty added; and two
    # stale masks.
    slots = penalty.size
    terms = np.empty((2, slots), dtype=np.float64)
    rows = np.empty((2, slots), dtype=D.dtype)
    masks = np.empty((2, slots), dtype=bool)
    term_i, term_j = terms
    row_i, row_r = rows
    mask_i, mask_j = masks
    while remaining > target:
        # i is the first slot with the smallest cached distance; its
        # neighbour j has that distance too, so j comes after i.
        i = int(nn_val.argmin())
        j = int(nn_idx[i])
        if threshold is not None and float(nn_val[i]) >= threshold:
            break

        # Merge j into i with the average-linkage Lance-Williams update,
        # (si * D[i] + sj * D[j]) / (si + sj) in float64, rounded once
        # into the stored row.
        si, sj = sizes[i], sizes[j]
        np.multiply(D[i], si, out=term_i)
        np.multiply(D[j], sj, out=term_j)
        np.add(term_i, term_j, out=term_i)
        np.divide(term_i, si + sj, out=D[i])
        D[i, i] = np.inf
        # Column i mirrors the stored (possibly float32) row.
        D[:, i] = D[i]
        sizes[i] = si + sj
        penalty[j] = np.inf
        nn_val[j] = np.inf
        nn_idx[j] = -1
        parent[slot_obj[j]] = slot_obj[i]
        remaining -= 1
        if remaining == 1:
            break

        # Repair the nearest-neighbour cache.  Only rows whose cached
        # neighbour was i or j can have lost it (row i among them, as its
        # neighbour was j); every other row can only have *improved*
        # towards i.  A stale row whose distance to the merged cluster
        # equals its cached minimum keeps that minimum, now at i, even if an
        # earlier slot is at the same distance.  The other stale rows are
        # recomputed one by one.
        np.add(D[i], penalty, out=row_i)
        np.equal(nn_idx, i, out=mask_i)
        np.equal(nn_idx, j, out=mask_j)
        np.logical_or(mask_i, mask_j, out=mask_i)
        for r in mask_i.nonzero()[0].tolist():
            if row_i[r] == nn_val[r]:
                nn_idx[r] = i
                continue
            np.add(D[r], penalty, out=row_r)
            best = int(row_r.argmin())
            nn_idx[r] = best
            nn_val[r] = row_r[best]
            repairs += 1

        np.less(row_i, nn_val, out=mask_i)
        closer = mask_i.nonzero()[0]
        if closer.size:
            nn_idx[closer] = i
            nn_val[closer] = row_i[closer]
            improved += closer.size

        slots = penalty.size
        if remaining <= slots // 2 and slots > _COMPACT_MIN_SLOTS:
            keep = np.flatnonzero(penalty == 0)
            D = _gather(buffer, D, keep)
            # Active rows' neighbours are active, so all are found in keep.
            nn_idx = np.searchsorted(keep, nn_idx[keep])
            nn_val = nn_val[keep]
            sizes = sizes[keep]
            slot_obj = slot_obj[keep]
            penalty = np.zeros(remaining, dtype=D.dtype)
            term_i, term_j = terms[:, :remaining]
            row_i, row_r = rows[:, :remaining]
            mask_i, mask_j = masks[:, :remaining]
            compactions += 1
    counts = {"repairs": repairs, "improved": improved, "compactions": compactions}
    return _Slots(D, penalty, sizes, slot_obj, nn_idx, nn_val), counts


def _merge_compiled(
    loop: Any,
    buffer: np.ndarray,
    state: _Slots,
    parent: np.ndarray,
    target: int,
    threshold: float | None,
) -> tuple[_Slots, dict[str, int]]:
    """:func:`_merge` run by the compiled ``loop`` (``_merge.c``), in place.

    ``state.D`` must be the front of ``buffer``.  The loop compacts into the
    front of every array; the state returned views those fronts.
    """
    slots = state.penalty.size
    real = state.D.dtype
    dtypes = (real, real, np.float64, np.int64, np.int64, real, np.int64)
    inputs = (buffer, *state[1:], parent)
    at_front = state.D.ctypes.data == buffer.ctypes.data and state.D.shape == (slots, slots)
    if not at_front or any(
        array.dtype != dtype or not array.flags.c_contiguous or array.size < slots
        for array, dtype in zip((state.D, *inputs), (real, *dtypes))
    ):
        raise ValueError("the compiled merge loop takes the C-ordered arrays of _start")
    scratch = np.empty(2 * slots, dtype=np.int64)
    counts = np.zeros(3, dtype=np.int64)
    arrays = [array.ctypes.data for array in (*inputs, scratch, counts)]
    stop = threshold is not None
    slots = loop(*arrays[:7], slots, target, stop, float(threshold or 0), *arrays[7:])
    D = buffer[: slots * slots].reshape(slots, slots)
    state = _Slots(D, *(array[:slots] for array in state[1:]))
    return state, dict(zip(("repairs", "improved", "compactions"), counts.tolist()))


def _merge_engine(dtype: np.dtype) -> tuple[str, Callable[..., tuple[_Slots, dict[str, int]]]]:
    """The merge loop for a ``dtype`` working matrix and its name: the
    compiled loop where it loads, :func:`_merge` otherwise."""
    loop = merge_loops().get(dtype)
    if loop is None:
        return "numpy", _merge
    return "c", functools.partial(_merge_compiled, loop)


@register_method("agglomerative", kind="instance", supports_weights=True)
def agglomerative(
    instance: CorrelationInstance,
    threshold: float = 0.5,
    force_k: int | None = None,
) -> Clustering:
    """Run average-linkage agglomeration on a correlation instance.

    Parameters
    ----------
    instance:
        Pairwise distances in [0, 1].
    threshold:
        Merge while the closest pair's average distance is strictly below
        this value (1/2 in the paper).  Must be a finite real number.
    force_k:
        If given, ignore the threshold-based stop and merge (in the same
        closest-first order) until exactly ``force_k`` clusters remain.
        Must be an integer (not a bool) in ``1..n``.
    """
    n = instance.n
    if (
        isinstance(threshold, bool)
        or not isinstance(threshold, numbers.Real)
        or not math.isfinite(threshold)
    ):
        raise ValueError(f"threshold must be a finite real number, got {threshold!r}")
    _check_count("force_k", force_k, n)
    if n == 1:
        return Clustering.single_cluster(1)

    with phase("agglomerative.init", n=n):
        # Working copy: float64 for exactness on small instances, float32 to
        # halve memory at paper scale.  Average linkage mutates the full
        # cluster-distance matrix, so even a lazy instance materializes here.
        # D is always a C-ordered view of the front of ``buffer``.
        buffer = instance.backend.materialize(default_dtype(n), copy=True).reshape(-1)
        D = buffer.reshape(n, n)
        np.fill_diagonal(D, np.inf)

        # On weighted (atom) instances each node starts as a cluster of its
        # duplicate multiplicity; average linkage then matches the expanded
        # instance (whose duplicates would merge first at height 0).
        sizes = instance.effective_weights().copy()
        # parent[obj] is the object whose cluster absorbed obj's (itself
        # while a root).
        parent = np.arange(n, dtype=np.int64)
        state = _start(D, sizes)

    target = 1 if force_k is None else force_k
    with phase("agglomerative.merge", n=n) as merge_span:
        engine, run = _merge_engine(D.dtype)
        state, counts = run(buffer, state, parent, target, threshold if force_k is None else None)
        remaining = int(np.count_nonzero(state.penalty == 0))
        merges = n - remaining
        merge_span.set(engine=engine, merges=merges, clusters=remaining, **counts)
    inc("agglomerative.merges", merges)
    # Pointer jumping: every object ends at the root of its merge tree.
    while True:
        grand = parent[parent]
        if np.array_equal(grand, parent):
            break
        parent = grand
    return Clustering(parent)
