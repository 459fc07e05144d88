"""Agglomerative hierarchical clustering: one Lance–Williams merge loop.

This substrate stands in for Matlab's ``linkage`` in the paper's Figure 3
experiment (single, complete, average (UPGMA) and Ward linkage over
Euclidean points or any precomputed distance matrix), and its loop is the
one AGGLOMERATIVE (§4) runs.  For Ward the working distances are *squared*
Euclidean (the recurrence is exact in that scale), and so are its heights.

The loop merges the closest pair of clusters, keeping the cluster distance
matrix and a nearest-neighbour cache per cluster.  Merging ``j`` into
``i`` at height ``h`` rewrites row ``i`` with the linkage's Lance–Williams
rule for every other cluster ``k``:

* single: ``min(d_i, d_j)``; complete: ``max(d_i, d_j)``;
* average: ``(s_i d_i + s_j d_j) / (s_i + s_j)``;
* Ward: ``((s_i + s_k) d_i + (s_j + s_k) d_j - s_k h) / (s_i + s_j + s_k)``.

The loop runs compiled (``_merge.c``, built on first use by :mod:`repro.core._native`)
where a C compiler is found, and as the numpy loop :func:`_merge`
otherwise; the two make the same float operations in the same order, so
their merges, caches and counters are equal bit for bit.  One merge:

* A retired cluster's row and column are never overwritten.  A per-slot
  ``penalty`` (0 for active slots, +inf for retired ones) is added to every
  row before its ``argmin``; ``x + 0 == x`` exactly, so the distances and
  the first-index tie-breaking are those of a matrix whose retired entries
  were set to infinity.
* The merged row is computed in float64 and rounded once to the working
  dtype; column ``i`` mirrors the stored row.
* The rows whose cached neighbour was one of the merged pair are stale.
  One whose distance to the merged cluster equals its cached minimum keeps
  that minimum, now at the merged slot; every other stale row is
  recomputed with one ``argmin`` (counted as ``repairs``).  A cache holds
  *a* slot at the row's minimum, not always the first: after a keep, or
  after a move below, an earlier slot can sit at the same distance, and a
  full ``argmin`` would find that one instead.
* Any other row now closer to the merged cluster than its cached minimum
  moves to it.  The four linkages are reducible, so in exact arithmetic no
  row does that, but a rounded average can land an ulp below a row's
  minimum, and it does on real inputs (``improved`` counts those rows).
* When the active clusters fall to half the slots, their submatrix is
  gathered into the leading block of the same buffer, and the cache, sizes
  and slot ids follow.  Compaction keeps the relative order of the slots,
  so ties still break towards the same cluster, and every later step works
  on at most twice as many slots as there are clusters.
* The merge is recorded as ``(slot_obj[i], slot_obj[j], h)``: an object of
  each cluster and the height.  The slots keep their order and ``j`` comes
  after ``i`` (its cached minimum is ``h`` too, and ``i`` is the first slot
  at the smallest one), so the first object recorded is the smallest of
  the merged cluster.

The merges and their order are those of the textbook loop over an
``n x n`` matrix.  Time is ``O(n^2)`` in practice; memory is one working
copy of the distances plus ``O(n)`` vectors.
"""

from __future__ import annotations

import ctypes
import functools
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from ..core import _native
from .distances import euclidean_matrix, squared_euclidean_matrix

__all__ = ["LinkageResult", "linkage", "hierarchical"]

#: The Lance–Williams rules, in the compiled loop's numbering.
RULES = ("single", "complete", "average", "ward")
# Below this many slots the matrix is small enough that compacting it again
# costs more than it saves.
_COMPACT_MIN_SLOTS = 64
# Rows gathered per call when compacting.
_COMPACT_CHUNK = 64


def _check_count(name: str, value: int | None, n: int | None = None) -> None:
    """Reject a cluster-count argument unless it is ``None`` or an integer in ``1..n``.

    A bool, a float or any other non-integer raises, as does a count
    below 1 or above ``n`` (no upper limit when ``n`` is ``None``); numpy
    integers pass.  Shared with AGGLOMERATIVE's and FURTHEST's counts.
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

    #: Cluster-to-cluster distances, a view of the front of the buffer.
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
    merges: np.ndarray,
    rule: str,
    target: int,
    threshold: float | None,
) -> tuple[_Slots, dict[str, int]]:
    """Merge the closest pair of clusters under ``rule`` until ``target`` remain.

    The loop also stops at the first closest pair at ``threshold`` or more,
    unless ``threshold`` is ``None``.  ``state`` is what :func:`_start`
    returns; the merges are written in order from the first row of the
    ``(·, 3)`` float64 array ``merges``.  Returns the state after the last
    merge and the counts of cache ``repairs``, ``improved`` rows and
    ``compactions``.
    """
    D, penalty, sizes, slot_obj, nn_idx, nn_val = state
    remaining = int(np.count_nonzero(penalty == 0))
    done = repairs = improved = compactions = 0
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
        height = float(nn_val[i])
        if threshold is not None and height >= threshold:
            break
        merges[done] = (slot_obj[i], slot_obj[j], height)
        done += 1

        # Merge j into i: the rule's row in float64, rounded once into the
        # stored row (single and complete only pick entries).
        si, sj = sizes[i], sizes[j]
        if rule == "single":
            np.minimum(D[i], D[j], out=D[i])
        elif rule == "complete":
            np.maximum(D[i], D[j], out=D[i])
        elif rule == "average":
            np.multiply(D[i], si, out=term_i)
            np.multiply(D[j], sj, out=term_j)
            np.add(term_i, term_j, out=term_i)
            np.divide(term_i, si + sj, out=D[i])
        else:
            np.add(sizes, si, out=term_i)
            np.multiply(term_i, D[i], out=term_i)
            np.add(sizes, sj, out=term_j)
            np.multiply(term_j, D[j], out=term_j)
            np.add(term_i, term_j, out=term_i)
            np.multiply(sizes, height, out=term_j)
            np.subtract(term_i, term_j, out=term_i)
            np.add(sizes, si + sj, out=term_j)
            np.divide(term_i, term_j, out=D[i])
        D[i, i] = np.inf
        # Column i mirrors the stored (possibly float32) row.
        D[:, i] = D[i]
        sizes[i] = si + sj
        penalty[j] = np.inf
        nn_val[j] = np.inf
        nn_idx[j] = -1
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
    merges: np.ndarray,
    rule: str,
    target: int,
    threshold: float | None,
) -> tuple[_Slots, dict[str, int]]:
    """:func:`_merge` run by the compiled ``loop`` (``_merge.c``), in place.

    ``state.D`` must be the front of ``buffer``.  The loop compacts into the
    front of every array; the state returned views those fronts.
    """
    slots = state.penalty.size
    real = state.D.dtype
    dtypes = (real, real, np.float64, np.int64, np.int64, real, np.float64)
    inputs = (buffer, *state[1:], merges)
    at_front = state.D.ctypes.data == buffer.ctypes.data and state.D.shape == (slots, slots)
    if not at_front or merges.size < 3 * (slots - 1) or any(
        array.dtype != dtype or not array.flags.c_contiguous or array.size < slots
        for array, dtype in zip((state.D, *inputs), (real, *dtypes))
    ):
        raise ValueError("the compiled merge loop takes the C-ordered arrays of _start")
    scratch = np.empty(2 * slots, dtype=np.int64)
    counts = np.zeros(3, dtype=np.int64)
    arrays = [array.ctypes.data for array in (*inputs, scratch, counts)]
    stop = threshold is not None
    flags = (RULES.index(rule), stop, float(threshold or 0))
    slots = loop(*arrays[:7], slots, target, *flags, *arrays[7:])
    D = buffer[: slots * slots].reshape(slots, slots)
    state = _Slots(D, *(array[:slots] for array in state[1:]))
    return state, dict(zip(("repairs", "improved", "compactions"), counts.tolist()))


def merge_loops() -> dict[np.dtype, Any]:
    """The compiled merge loops (``_merge.c``) by working dtype; empty if
    none loads.

    A loop takes the six arrays of a merge state and the merge list
    (pointers), then ``slots``, ``target``, the rule's index, whether to
    stop at ``threshold``, ``threshold``, an int64 scratch of ``2 * slots``
    entries and three int64 counts, and returns the slots in use at the end.
    """
    arrays, count, flag = [ctypes.c_void_p] * 7, ctypes.c_int64, ctypes.c_int
    argtypes = [*arrays, count, count, flag, flag, ctypes.c_double, *arrays[:2]]
    return _native.loops(Path(__file__).with_name("_merge.c"), "linkage_merge", argtypes, count)


def _merge_engine(dtype: np.dtype) -> tuple[str, Callable[..., tuple[_Slots, dict[str, int]]]]:
    """The merge loop for a ``dtype`` working matrix and its name: the
    compiled loop where it loads, :func:`_merge` otherwise."""
    loop = merge_loops().get(dtype)
    if loop is None:
        return "numpy", _merge
    return "c", functools.partial(_merge_compiled, loop)


def merge_roots(merges: np.ndarray, n: int) -> np.ndarray:
    """Each object's cluster after ``merges`` (rows of a merge list, in any
    order), named by one object of it: the smallest, on the loop's lists."""
    parent = np.arange(n, dtype=np.int64)
    parent[merges[:, 1].astype(np.int64)] = merges[:, 0]
    # Pointer jumping: every object ends at the root of its merge tree.
    while True:
        grand = parent[parent]
        if np.array_equal(grand, parent):
            return parent
        parent = grand


@dataclass
class LinkageResult:
    """A dendrogram: ``n - 1`` merges of leaf-representative pairs.

    ``merges[step] = (rep_a, rep_b, height)`` records that at the given
    height the clusters containing leaves ``rep_a`` and ``rep_b`` merged,
    in the order the loop made the merges.
    """

    merges: np.ndarray
    n: int
    method: str

    def cut(self, k: int) -> np.ndarray:
        """Labels of the ``k``-cluster flat clustering: the first ``n - k`` merges."""
        _check_count("k", k, self.n)
        return self._labels(self.merges[: self.n - k])

    def cut_height(self, height: float) -> np.ndarray:
        """Labels after applying every merge with height <= ``height``."""
        if math.isnan(height):
            raise ValueError("height must not be NaN")
        return self._labels(self.merges[self.merges[:, 2] <= height])

    def heights(self) -> np.ndarray:
        """Merge heights in ascending order."""
        return np.sort(self.merges[:, 2])

    def _labels(self, merges: np.ndarray) -> np.ndarray:
        """Clusters numbered by their smallest object."""
        return np.unique(merge_roots(merges, self.n), return_inverse=True)[1]


def _checked(name: str, values: Any) -> np.ndarray:
    """``values`` as a float64 matrix, rejected unless 2-D, non-empty and finite."""
    matrix = np.array(values, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] == 0 or not np.isfinite(matrix).all():
        raise ValueError(f"{name} must be a non-empty finite 2-D array")
    return matrix


def linkage(
    points: np.ndarray | None = None,
    method: str = "average",
    distances: np.ndarray | None = None,
) -> LinkageResult:
    """Build the full dendrogram of the data under the given linkage.

    Provide either ``points`` (an ``(n, d)`` matrix; Euclidean geometry) or
    a precomputed symmetric ``distances`` matrix.  Ward requires points
    (its recurrence is only exact for squared Euclidean distances).
    """
    if method not in RULES:
        raise ValueError(f"unknown linkage method {method!r}; use one of {RULES}")
    if (points is None) == (distances is None):
        raise ValueError("provide exactly one of points or distances")
    if distances is not None:
        if method == "ward":
            raise ValueError("ward linkage requires points, not a distance matrix")
        D = _checked("distances", distances)
        if not np.array_equal(D, D.T):
            raise ValueError("distances must be a symmetric square matrix")
    else:
        pts = _checked("points", points)
        D = squared_euclidean_matrix(pts) if method == "ward" else euclidean_matrix(pts)
    n = D.shape[0]
    merges = np.empty((n - 1, 3), dtype=np.float64)
    if n > 1:
        np.fill_diagonal(D, np.inf)
        buffer = D.reshape(-1)
        run = _merge_engine(D.dtype)[1]
        run(buffer, _start(D, np.ones(n, dtype=np.float64)), merges, method, 1, None)
    return LinkageResult(merges, n, method)


def hierarchical(
    points: np.ndarray,
    k: int,
    method: str = "average",
) -> np.ndarray:
    """Convenience wrapper: flat ``k``-cluster labels of ``points``."""
    return linkage(points, method=method).cut(k)
