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

so each merge costs one vectorized row (and column) update plus cache
repair, over the *slots* of the matrix still in use.  Each step writes
into preallocated scratch rows (``out=``), so a merge allocates no row:

* A retired cluster's row and column are never overwritten.  A per-slot
  ``penalty`` (0 for active slots, +inf for retired ones) is added to every
  row before its ``argmin``; ``x + 0 == x`` exactly, so the distances and
  the first-index tie-breaking are those of a matrix whose retired entries
  were set to infinity.
* The rows whose cached neighbour was one of the merged pair are
  recomputed one by one, each with one ``argmin`` — except those whose
  distance to the merged cluster still equals their cached minimum (ties,
  mostly duplicates at distance 0): their neighbour simply becomes the
  merged cluster, as a full ``argmin`` would find.
* Any other row now closer to the merged cluster than its cached minimum
  moves to it.  In exact arithmetic average linkage never does that, but
  the rounded average can land an ulp below a row's minimum, and it does
  on real inputs (the span's ``improved`` attribute counts those rows).
* The strided write of the merged column is the largest single cost left,
  about 40% of the loop on 2000 mushrooms rows; every other step is a
  contiguous row operation.
* When the active clusters fall to half the slots, their submatrix is
  gathered, 64 rows at a time, into the leading block of the same buffer,
  and the cache, sizes and slot ids follow.  Compaction keeps the relative
  order of the slots, so ties still break towards the same cluster, and
  every later step works on at most twice as many slots as there are
  clusters.
* Membership is a parent array over the objects, written once per merge
  and resolved to labels at the end.

On a label-built instance the loop starts on atom slots.  Rows with equal
label tuples and no missing label (a duplicate group) are at distance 0
from each other and from nothing else, so the row loop merges each group
into its first row, group by group in order of first row, before any other
merge.  Those height-0 merges are replayed instead of run:

* The duplicates are retired at once through ``penalty``, and the atom
  submatrix is gathered as above when it fills at most half the slots.
* A group's row takes the loop's steps ``v = (s v + w y) / (s + w)`` in
  float64 with their rounding to the working dtype, each member in row
  order, ``y`` being the row when the group's turn starts; an entry's path
  depends only on its starting value, so large groups step the row's
  distinct values.  Row and column are written once, after the last step.
* Every other row's cache follows the loop's stale, keep and ``improved``
  rules after each step, including a recomputed minimum that ties at a
  duplicate still waiting to merge, which can come before a later atom.
  Only the rows that point at the group on a changing path, or that a step
  brings below their cached minimum, can change; they are stepped through
  a four-state transition table against their best atom outside the group.

The replay gives the row loop's caches, merges and labels bit for bit.  It
does not apply on raw instances, where zero distance does not mean an
identical row (``p = 1`` or ``"average"`` with a missing entry), with
``force_k`` above the number of atoms, or with ``threshold <= 0`` and no
``force_k``; there every merge runs row by row.

The merges, their order and the output are those of the textbook loop over
an ``n x n`` matrix.  Time is ``O(n^2)`` in practice; memory is one working
copy of ``X`` (float64 up to 4096 objects, float32 above) plus ``O(n)``
vectors, with no second matrix-sized buffer.

If the user insists on a fixed number of clusters (as the paper notes in
§2), pass ``force_k``: merging then continues past the 1/2 threshold until
``force_k`` clusters remain.
"""

from __future__ import annotations

import math
import numbers
from typing import NamedTuple

import numpy as np

from ..core.instance import CorrelationInstance
from ..core.kernels import MISSING, default_dtype, distinct_codes, label_codes
from ..core.partition import Clustering
from ..obs.metrics import inc
from ..obs.profile import phase
from ..registry import register_method

__all__ = ["agglomerative"]

# Below this many slots the matrix is small enough that compacting it again
# costs more than it saves.
_COMPACT_MIN_SLOTS = 64
# Rows gathered per call when compacting.
_COMPACT_CHUNK = 64
# Duplicate groups with more merges than this find their path over the
# distinct values of their row, which bounds the path to (merges x distinct
# values) entries.  Up to here the path over every entry is at most 8 rows,
# and it is faster: on 470-slot rows of planted input with about 10
# distinct values, 22 against 56 us at one merge and 75 against 107 us at
# eight; the two cost the same from about 48 merges on.
_FEW_MERGES = 8
# Bound on the (merges x rows) temporaries of one _follow call.
_FOLLOW_BLOCK = 1 << 16


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


def _worth_compacting(remaining: int, slots: int) -> bool:
    """Whether ``remaining`` active clusters are few enough to compact ``slots`` slots."""
    return remaining <= slots // 2 and slots > _COMPACT_MIN_SLOTS


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
    #: Nearest-neighbour cache: the first slot at the row's minimum (-1 for
    #: a retired slot) and that minimum (+inf for a retired slot).
    nn_idx: np.ndarray
    nn_val: np.ndarray


def _height0_firsts(
    instance: CorrelationInstance, threshold: float, force_k: int | None
) -> np.ndarray:
    """``first[u]``: the row of ``u``'s duplicate group that absorbs it at height 0.

    A duplicate group is a set of rows with equal label tuples and no
    missing label; exactly those pairs are at distance 0, and the row
    loop merges each group into its first row before any other merge.
    Every row is its own group (``first[u] = u``) where that replay does
    not apply: on raw instances, when zero distance does not mean an
    identical row (``p = 1`` or ``"average"`` with a missing entry), and
    when the loop stops before its height-0 merges end (``force_k`` above
    the number of groups, or ``threshold <= 0`` without ``force_k``).
    """
    rows = np.arange(instance.n, dtype=np.int64)
    source = instance.label_source
    if source is None or (force_k is None and threshold <= 0):
        return rows
    matrix = source.matrix
    incomplete = (matrix == MISSING).any(axis=1)
    if incomplete.any() and (source.missing == "average" or source.p == 1.0):
        return rows
    first, inverse = distinct_codes([label_codes(column) for column in matrix.T])
    first = first[inverse]
    first[incomplete] = rows[incomplete]
    if force_k is not None and force_k > np.count_nonzero(first == rows):
        return rows
    return first


def _start(
    buffer: np.ndarray,
    D: np.ndarray,
    sizes: np.ndarray,
    parent: np.ndarray,
    firsts: np.ndarray,
) -> _Slots:
    """The row loop's state after its height-0 merges, computed on atom slots.

    ``firsts`` is :func:`_height0_firsts`.  The rows it absorbs are retired
    at once through ``penalty``, the atom submatrix is gathered when it
    fills at most half the slots, and :func:`_absorb` replays each group's
    merges, group by group in order of first row as the row loop does.
    ``parent`` is updated in place.
    """
    n = firsts.size
    absorbed = np.flatnonzero(firsts != np.arange(n))
    # The row loop's order: by group, each group's rows in row order.
    absorbed = absorbed[np.argsort(firsts[absorbed], kind="stable")]
    weights = sizes[absorbed]
    parent[absorbed] = firsts[absorbed]
    penalty = np.zeros(n, dtype=D.dtype)
    penalty[absorbed] = np.inf
    slot_obj = np.arange(n, dtype=np.int64)
    if _worth_compacting(n - absorbed.size, n):
        slot_obj = np.flatnonzero(penalty == 0)
        D = _gather(buffer, D, slot_obj)
        penalty = np.zeros(slot_obj.size, dtype=D.dtype)
        sizes = sizes[slot_obj]
    # Nearest-neighbour cache: nn_val[s] = min_t D[s, t], nn_idx[s] =
    # argmin.  A retired slot has nn_val inf and nn_idx -1.  A duplicate
    # is never the first of equal distances, as its group's first row
    # comes before it, so only that first row's argmin can be retired.
    nn_idx = np.argmin(D, axis=1)
    nn_val = D[np.arange(penalty.size), nn_idx]
    nn_idx[penalty != 0] = -1
    nn_val[penalty != 0] = np.inf
    # Until its turn a group's first row is at distance 0 from its next
    # duplicate; no other row's merge changes that cache.
    groups, starts = np.unique(firsts[absorbed], return_index=True)
    slots = np.searchsorted(slot_obj, groups)
    nn_idx[slots] = -1
    nn_val[slots] = 0
    bounds = np.append(starts, absorbed.size).tolist()
    for first, g, start, stop in zip(groups.tolist(), slots.tolist(), bounds, bounds[1:]):
        group = slice(start, stop)
        _absorb(
            D, penalty, sizes, slot_obj, nn_idx, nn_val, first, g, absorbed[group], weights[group]
        )
    return _Slots(D, penalty, sizes, slot_obj, nn_idx, nn_val)


def _absorb(
    D: np.ndarray,
    penalty: np.ndarray,
    sizes: np.ndarray,
    slot_obj: np.ndarray,
    nn_idx: np.ndarray,
    nn_val: np.ndarray,
    first: int,
    g: int,
    members: np.ndarray,
    weights: np.ndarray,
) -> None:
    """Replay the row loop's merges of ``members`` (rows) into slot ``g`` (row ``first``).

    Before the group's turn every member's row equals ``y = D[g]``.  Each
    merge sets ``v = (s * v + w * y) / (s + w)`` in float64, rounded to
    ``D``'s dtype, so an entry's path depends on its starting value only:
    ``path[t, e]`` is the value after ``t + 1`` merges of an entry that
    started at ``values[e]`` (the distinct values of ``y`` on large groups,
    all of ``y`` on small ones).  Row and column ``g`` are written once.

    Only two kinds of row have a cache the loop would change: those that
    point at ``g`` on a changing path, and those that some step brings
    below their cached minimum.  :func:`_follow` steps them through the
    group's merges; every other cache stays as it is.
    """
    if members.size > _FEW_MERGES:
        values, where = np.unique(D[g], return_inverse=True)
    else:
        values, where = D[g].copy(), np.arange(D.shape[0])
    path = np.empty((members.size, values.size), dtype=D.dtype)
    scaled = np.empty(values.size, dtype=np.float64)
    added = np.empty(values.size, dtype=np.float64)
    current = values
    size = sizes[g]
    for step, weight in enumerate(weights):
        np.multiply(current, size, out=scaled)
        np.multiply(values, weight, out=added)
        np.add(scaled, added, out=scaled)
        np.divide(scaled, size + weight, out=path[step])
        current = path[step]
        size = size + weight
    sizes[g] = size

    moved = (path != values).any(axis=0)
    if moved.any():
        lowest = path.min(axis=0)[where] < nn_val
        rows = np.flatnonzero((lowest | (moved[where] & (nn_idx == g))) & (penalty == 0))
        block = max(1, _FOLLOW_BLOCK // members.size)
        for start in range(0, rows.size, block):
            chunk = rows[start : start + block]
            chunk_path = path[:, where[chunk]]
            _follow(D, penalty, slot_obj, nn_idx, nn_val, first, g, members, chunk_path, chunk)
        np.take(path[-1], where, out=D[g])
        D[g, g] = np.inf
        D[:, g] = D[g]
    row = D[g] + penalty
    nn_idx[g] = row.argmin()
    nn_val[g] = row[nn_idx[g]]


# A followed row's cache during a group's turn: the atom it held before
# the turn, the best atom outside the group, the group's first row, or the
# next member still to merge.
_AT_CACHED, _AT_BEST, _AT_FIRST, _AT_NEXT = range(4)


def _transition_table() -> np.ndarray:
    """``table[state, event]``: a followed row's cache after one merge.

    ``event = 12 * closer + 6 * still + 3 * still_next + redo``: whether
    the new distance ``v`` to the first row is below the best atom's, is
    unchanged, equals ``y``, and where a recomputed cache lands (0 best
    atom, 1 first row, 2 next member).  A row at an atom moves to the
    first row when ``v`` is below it (the ``improved`` rule).  A row at the
    first row, or at the member just merged, is stale: it keeps its
    minimum, now at the first row, when ``v`` equals it, and is recomputed
    otherwise.
    """
    event = np.arange(24)
    closer, still, still_next = event // 12, event // 6 % 2, event // 3 % 2
    redo = _AT_BEST + event % 3
    return np.stack(
        [
            np.where(closer, _AT_FIRST, _AT_CACHED),
            np.where(closer, _AT_FIRST, _AT_BEST),
            np.where(still, _AT_FIRST, redo),
            np.where(still_next, _AT_FIRST, redo),
        ]
    ).astype(np.intp)


_TRANSITIONS = _transition_table()


def _follow(
    D: np.ndarray,
    penalty: np.ndarray,
    slot_obj: np.ndarray,
    nn_idx: np.ndarray,
    nn_val: np.ndarray,
    first: int,
    g: int,
    members: np.ndarray,
    path: np.ndarray,
    rows: np.ndarray,
) -> None:
    """Step ``rows``' caches through the merges of :func:`_absorb`.

    ``path[t, r]`` is row ``rows[r]``'s distance to ``g`` after ``t + 1``
    merges.  Outside the group a row's distances stay fixed during the
    turn, so its best atom there, the first slot of smallest distance, is
    found once.  A recomputed cache takes the first of the best atom,
    ``g`` and the next member still to merge, in row order, at the
    smallest distance: that member sits at ``y``, the distance before the
    turn, and can win a tie against a later atom.  The minimum itself is
    always the smallest distance, so only the cache's slot is followed.
    """
    best_slot = np.empty(rows.size, dtype=np.int64)
    best_val = np.empty(rows.size, dtype=D.dtype)
    for start in range(0, rows.size, _COMPACT_CHUNK):
        chunk = D[rows[start : start + _COMPACT_CHUNK]] + penalty
        chunk[:, g] = np.inf
        best = chunk.argmin(axis=1)
        best_slot[start : start + best.size] = best
        best_val[start : start + best.size] = chunk[np.arange(best.size), best]
    y = D[g, rows]
    previous = np.vstack([y, path[:-1]])
    # The recomputed minimum: the next member still waits at y until the
    # last merge.
    low = np.minimum(path, best_val)
    np.minimum(low[:-1], y, out=low[:-1])
    next_key = np.append(members[1:], np.iinfo(np.int64).max)[:, None]
    at_best = best_val == low
    key = np.where(at_best, slot_obj[best_slot], np.iinfo(np.int64).max)
    to_first = (path == low) & (first < key)
    np.copyto(key, first, where=to_first)
    to_next = (y == low) & (next_key < key)
    event = np.where(to_next, 2, to_first.astype(np.intp))
    event += 12 * (path < best_val) + 6 * (path == previous) + 3 * (path == y)

    state = np.where(nn_idx[rows] == g, _AT_FIRST, _AT_CACHED)
    for step_event in event:
        state = _TRANSITIONS[state, step_event]
    nn_idx[rows] = np.where(
        state == _AT_CACHED, nn_idx[rows], np.where(state == _AT_BEST, best_slot, g)
    )
    nn_val[rows] = np.minimum(path[-1], best_val)


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
        # equals its cached minimum keeps that minimum, now first reached
        # at i: every slot before its old neighbour (i or j, and i < j)
        # was farther.  The other stale rows are recomputed one by one.
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
        if _worth_compacting(remaining, slots):
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

    with phase("agglomerative.init", n=n) as init_span:
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
        firsts = _height0_firsts(instance, threshold, force_k)
        state = _start(buffer, D, sizes, parent, firsts)
        remaining = int(np.count_nonzero(state.penalty == 0))
        init_span.set(atoms=remaining, replayed=n - remaining)

    target = 1 if force_k is None else force_k
    with phase("agglomerative.merge", n=n) as merge_span:
        state, counts = _merge(
            buffer, state, parent, target, threshold if force_k is None else None
        )
        remaining = int(np.count_nonzero(state.penalty == 0))
        merges = n - remaining
        merge_span.set(merges=merges, clusters=remaining, **counts)
    inc("agglomerative.merges", merges)
    # Pointer jumping: every object ends at the root of its merge tree.
    while True:
        grand = parent[parent]
        if np.array_equal(grand, parent):
            break
        parent = grand
    return Clustering(parent)
