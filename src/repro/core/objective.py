"""Incremental objective bookkeeping for move-based algorithms.

Two pieces of machinery live here:

* :class:`MoveEvaluator` — given a :class:`~repro.core.instance.CorrelationInstance`,
  maintains for every object ``v`` and cluster ``C_i`` the mass
  ``M(v, C_i) = sum_{u in C_i} X_vu`` (Section 4, LOCALSEARCH).  With it,
  the cost of placing ``v`` into ``C_i`` is

      d(v, C_i) = M(v, C_i) + sum_{j != i} (|C_j| - M(v, C_j))

  and the cost of opening a singleton is ``sum_j (|C_j| - M(v, C_j))``, so
  each candidate move is evaluated in O(1) after O(n) maintenance per move.

* :class:`ClusterCountTables` — the same quantities computed from a raw
  label matrix through per-cluster attribute-value counts, *without ever
  materializing X*.  This powers the linear-time assignment phase of the
  SAMPLING algorithm on datasets far too large for an explicit distance
  matrix.
"""

from __future__ import annotations

import numpy as np

from .instance import CorrelationInstance
from .kernels import MISSING, check_missing_model, label_codes, label_histogram, separation_mass
from .labels import check_weights, validate_label_matrix
from .partition import Clustering

__all__ = ["MoveEvaluator", "ClusterCountTables"]


class MoveEvaluator:
    """Mutable clustering state with O(1) single-node move evaluation.

    The evaluator keeps cluster membership in *slots*, the rows of a
    slot-major ``(slots, n)`` mass matrix, so a move writes one contiguous
    row; empty slots are recycled when clusters vanish and new slots are
    appended when singletons are opened.  Use :meth:`clustering` to read
    the current partition back out.
    """

    _GROWTH = 8  # extra slots allocated when the mass matrix is enlarged
    #: Scores per block of :meth:`candidate_movers` (1 MiB of float64).
    _SCAN_ENTRIES = 1 << 17

    def __init__(self, instance: CorrelationInstance, initial: Clustering | np.ndarray) -> None:
        labels = initial.labels if isinstance(initial, Clustering) else np.asarray(initial)
        if labels.shape != (instance.n,):
            raise ValueError("initial labels must cover every object of the instance")
        self._instance = instance
        backend = instance.backend
        # A float64 dense X is aliased (the streaming engine refreshes that
        # buffer in place); any other X — lazy, or dense float32, which a
        # float64 alias would duplicate — is read in float64 row blocks.
        self._X: np.ndarray | None = (
            backend.dense()
            if backend.name == "dense" and backend.dtype == np.float64
            else None
        )
        self._node_weights = instance.effective_weights()
        n = instance.n
        k = int(labels.max()) + 1
        self._labels = labels.astype(np.int64).copy()
        # "Sizes" are total multiplicities; masses are weighted column sums,
        # so all score formulas below hold verbatim on atom instances.
        # _mass[slot, v] = M(v, slot).
        self._sizes = np.bincount(self._labels, weights=self._node_weights, minlength=k)
        self._mass = np.zeros((k, n), dtype=np.float64)
        weights = None if instance.weights is None else self._node_weights
        # All singletons in index order (the cold start): slot u holds
        # M(v, {u}) = w_u · X[v, u], column u of X scaled by w_u.  A
        # label-built X, and every lazy one, is bitwise symmetric, so that
        # column is row u.
        singleton_start = k == n and np.array_equal(self._labels, np.arange(n))
        if self._X is not None:
            if singleton_start:
                columns = self._X if instance.label_source is not None else self._X.T
                if weights is None:
                    np.copyto(self._mass, columns)
                else:
                    np.multiply(columns, weights[:, None], out=self._mass)
            else:
                weighted_X = self._X if weights is None else self._X * weights[None, :]
                for slot in range(k):
                    members = np.flatnonzero(self._labels == slot)
                    if members.size:
                        self._mass[slot] = weighted_X[:, members].sum(axis=1)
        else:
            # Blocked path: same formulas, one row block at a time.  The
            # per-row axis-1 reductions are independent of the row tiling,
            # so the masses are bitwise identical to the dense init.
            members_by_slot = (
                None
                if singleton_start
                else [np.flatnonzero(self._labels == slot) for slot in range(k)]
            )
            for start, stop in backend.blocks():
                if singleton_start and instance.label_source is None:
                    # A user-given X is symmetric only to rounding: column u.
                    rows = backend.columns(np.arange(start, stop)).T
                else:
                    rows = backend.row_block(start, stop)
                rows = rows.astype(np.float64, copy=False)
                if members_by_slot is None:
                    if weights is None:
                        self._mass[start:stop] = rows
                    else:
                        np.multiply(rows, weights[start:stop, None], out=self._mass[start:stop])
                else:
                    if weights is not None:
                        rows = rows * weights[None, :]
                    for slot, members in enumerate(members_by_slot):
                        if members.size:
                            self._mass[slot, start:stop] = rows[:, members].sum(axis=1)
        self._free_slots = [slot for slot in range(k) if self._sizes[slot] == 0]

    def _row(self, v: int) -> np.ndarray:
        """Row ``v`` of X in float64 (do not mutate)."""
        if self._X is not None:
            return self._X[v]
        return self._instance.backend.row(v).astype(np.float64, copy=False)

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        return int(self._labels.size)

    def slot_of(self, v: int) -> int:
        """Current slot (cluster column) of object ``v``; -1 if detached."""
        return int(self._labels[v])

    def active_slots(self) -> np.ndarray:
        return np.flatnonzero(self._sizes > 0)

    def current_labels(self) -> np.ndarray:
        """A copy of the raw slot labels (``-1`` for a detached object)."""
        return self._labels.copy()

    def clustering(self) -> Clustering:
        """The current partition (all objects must be attached)."""
        if np.any(self._labels < 0):
            raise RuntimeError("cannot export a clustering while an object is detached")
        return Clustering(self._labels)

    def total_cost(self) -> float:
        """Correlation cost of the current partition (recomputed from scratch)."""
        return self._instance.cost(self.clustering())

    def total_cost_fast(self) -> float:
        """Cost of the current partition read off the maintained masses.

        ``d(C) = T - S_all + Σ_v M(v, own) - P_within`` — O(n) work beyond
        one pass to sum X, since the within-cluster distance sum is half of
        ``Σ_v M(v, own cluster)``.  Equals :meth:`total_cost` up to float
        rounding (the masses are maintained incrementally).  Weighted
        instances fall back to the from-scratch computation; requires
        every object attached.
        """
        if self._instance.weights is not None:
            return self.total_cost()
        if np.any(self._labels < 0):
            raise RuntimeError("cannot evaluate the cost while an object is detached")
        n = self.n
        total_pairs = n * (n - 1) / 2.0
        if self._X is not None:
            sum_all = float(self._X.sum(dtype=np.float64)) / 2.0
        else:
            sum_all = self._instance.backend.total_mass() / 2.0
        within_mass = float(self._mass[self._labels, np.arange(n)].sum(dtype=np.float64))
        sizes = self._sizes
        pairs_within = float((sizes * (sizes - 1.0)).sum()) / 2.0
        return total_pairs - sum_all + within_mass - pairs_within

    def compact(self) -> None:
        """Renumber clusters to ``0..k-1`` by first appearance; shrink state.

        Slot ids are stable across moves, so a long-lived evaluator (the
        streaming engine keeps one across updates) can end up with a mass
        matrix far wider than its active cluster count — e.g. ``n`` slots
        after a cold start from singletons — making every O(n·k) operation
        silently O(n²).  Compaction uses :class:`Clustering`'s canonical
        first-appearance numbering, so a compacted evaluator is
        slot-for-slot identical (tie-breaking included) to one freshly
        built from the exported clustering.  Requires every object
        attached.
        """
        if np.any(self._labels < 0):
            raise RuntimeError("cannot compact while an object is detached")
        old_slots, first_index, inverse = np.unique(
            self._labels, return_index=True, return_inverse=True
        )
        order = np.argsort(np.argsort(first_index))
        k = old_slots.size
        sizes = np.empty(k, dtype=np.float64)
        sizes[order] = self._sizes[old_slots]
        mass = np.empty((k, self.n), dtype=np.float64)
        mass[order] = self._mass[old_slots]
        self._labels = order[inverse].astype(np.int64)
        self._sizes = sizes
        self._mass = mass
        self._free_slots = []

    # ------------------------------------------------------------------
    # Moves
    # ------------------------------------------------------------------

    def detach(self, v: int) -> int:
        """Remove ``v`` from its cluster; returns the slot it came from."""
        slot = int(self._labels[v])
        if slot < 0:
            raise RuntimeError(f"object {v} is already detached")
        weight = self._node_weights[v]
        self._labels[v] = -1
        self._sizes[slot] -= weight
        if self._sizes[slot] <= 1e-9:
            self._sizes[slot] = 0.0
            self._mass[slot] = 0.0
            self._free_slots.append(slot)
        else:
            # X is symmetric: row v stands in for column v, M(·, slot) -= w_v X[·, v].
            self._mass[slot] -= weight * self._row(v)
        return slot

    def attach(self, v: int, slot: int) -> None:
        """Place detached object ``v`` into the cluster at ``slot``."""
        if self._labels[v] >= 0:
            raise RuntimeError(f"object {v} is already attached")
        if slot < 0 or slot >= self._sizes.size or self._sizes[slot] == 0:
            raise ValueError(f"slot {slot} is not an active cluster")
        weight = self._node_weights[v]
        self._labels[v] = slot
        self._sizes[slot] += weight
        self._mass[slot] += weight * self._row(v)

    def attach_singleton(self, v: int) -> int:
        """Open a new singleton cluster for detached ``v``; returns its slot."""
        if self._labels[v] >= 0:
            raise RuntimeError(f"object {v} is already attached")
        if self._free_slots:
            slot = self._free_slots.pop()
        else:
            slot = self._sizes.size
            extra = self._GROWTH
            self._sizes = np.concatenate([self._sizes, np.zeros(extra, dtype=np.float64)])
            self._mass = np.concatenate(
                [self._mass, np.zeros((extra, self.n), dtype=np.float64)]
            )
            self._free_slots.extend(range(slot + 1, slot + extra))
        weight = self._node_weights[v]
        self._labels[v] = slot
        self._sizes[slot] = weight
        self._mass[slot] = weight * self._row(v)
        return slot

    # ------------------------------------------------------------------
    # Cost queries (for a detached object)
    # ------------------------------------------------------------------

    def placement_scores(self, v: int) -> tuple[np.ndarray, np.ndarray, float]:
        """Relative placement costs of detached ``v``.

        Returns ``(slots, scores, singleton_score)`` where ``scores[i]`` is
        the cost of attaching ``v`` to ``slots[i]`` *minus the common term*
        shared by every choice, and ``singleton_score`` is the score of
        opening a singleton (always 0 by construction):

            d(v, C_i) - common = 2 * M(v, C_i) - |C_i|

        Lower is better; comparisons between choices are exact, and on
        weighted (atom) instances scores are scaled by the object's
        multiplicity so differences equal true cost deltas.
        """
        if self._labels[v] >= 0:
            raise RuntimeError(f"object {v} must be detached before evaluating moves")
        slots = self.active_slots()
        weight = self._node_weights[v]
        scores = weight * (2.0 * self._mass[slots, v] - self._sizes[slots])
        return slots, scores, 0.0

    def score_of(self, v: int, slot: int) -> float:
        """Relative cost of attaching detached ``v`` to the active ``slot``."""
        if slot < 0 or slot >= self._sizes.size or self._sizes[slot] == 0:
            raise ValueError(f"slot {slot} is not an active cluster")
        weight = self._node_weights[v]
        return float(weight * (2.0 * self._mass[slot, v] - self._sizes[slot]))

    def is_active(self, slot: int) -> bool:
        """Whether ``slot`` currently holds a non-empty cluster."""
        return 0 <= slot < self._sizes.size and bool(self._sizes[slot] > 0)

    def best_placement(self, v: int) -> tuple[int, float]:
        """Best destination for detached ``v``.

        Returns ``(slot, score)``; ``slot == -1`` means a singleton is
        (weakly) best.  Ties between a cluster and the singleton go to the
        cluster (merging never loses, and it keeps results deterministic).
        """
        slots, scores, singleton = self.placement_scores(v)
        if slots.size == 0:
            return -1, singleton
        best = int(np.argmin(scores))
        if scores[best] <= singleton:
            return int(slots[best]), float(scores[best])
        return -1, singleton

    def move_to_best(self, v: int) -> bool:
        """Detach ``v``, re-attach at the best destination; True if it moved."""
        origin = self.detach(v)
        origin_was_singleton = self._sizes[origin] == 0
        slot, _ = self.best_placement(v)
        if slot == -1:
            self.attach_singleton(v)
            # Re-opening a singleton for a node that already was one is not a move.
            return not origin_was_singleton
        self.attach(v, slot)
        return slot != origin

    def candidate_movers(self, eps: float = 0.0) -> np.ndarray:
        """Indices of attached nodes whose best move currently improves.

        One vectorized O(n·k) scan with the *current* masses: a node is a
        candidate when some other cluster (or a fresh singleton) scores
        strictly below staying put.  Scores go stale as moves are applied,
        so callers re-verify each candidate with :meth:`relocate_if_better`
        — the scan only prunes the sweep from O(n) relocation attempts to
        the handful of plausible movers.  Requires every object attached.
        """
        if np.any(self._labels < 0):
            raise RuntimeError("candidate scan requires every object attached")
        n = self.n
        slots = self.active_slots()
        weights = self._node_weights
        sizes = self._sizes[slots][:, None]
        # Row position of each node's own cluster within the slot list.
        position = np.empty(self._sizes.size, dtype=np.int64)
        position[slots] = np.arange(slots.size)
        own_pos = position[self._labels]
        stay = np.empty(n, dtype=np.float64)
        best_other = np.full(n, np.inf, dtype=np.float64)
        # Node blocks of (slots, block) scores, each entry the elementwise
        # w_v · (2 M(v, C) - |C|); the minimum is exact in any order.
        step = max(1, self._SCAN_ENTRIES // slots.size)
        for start in range(0, n, step):
            stop = min(start + step, n)
            nodes = np.arange(stop - start)
            own = own_pos[start:stop]
            scores = self._mass[slots, start:stop]  # a copy: slots is an index array
            scores *= 2.0
            scores -= sizes
            if self._instance.weights is not None:
                scores *= weights[start:stop]
            stay[start:stop] = scores[own, nodes] + weights[start:stop] * weights[start:stop]
            if slots.size > 1:
                scores[own, nodes] = np.inf
                scores.min(axis=0, out=best_other[start:stop])
        alone = self._sizes[self._labels] == weights
        singleton = np.where(alone, np.inf, 0.0)
        return np.flatnonzero(np.minimum(best_other, singleton) < stay - eps)

    def relocate_if_better(self, v: int, eps: float = 0.0) -> bool:
        """Move attached ``v`` to its best destination only if it strictly wins.

        Evaluates every candidate *without* detaching: since ``X[v, v] = 0``
        the masses ``M(v, ·)`` are unchanged by removing ``v``, so the score
        of staying put is ``w·(2·M(v, own) - (|own| - w))`` — the usual
        formula with the origin shrunk by ``v``'s own weight — while every
        other cluster scores the standard ``w·(2·M(v, C_i) - |C_i|)``.  A
        node that stays costs O(k) instead of the O(n) detach/attach pair,
        which makes warm-started LOCALSEARCH sweeps (few movers) linear in
        practice.  Returns True iff ``v`` moved; decisions are identical to
        the detach/score/re-attach sequence.
        """
        own = int(self._labels[v])
        if own < 0:
            raise RuntimeError(f"object {v} must be attached to relocate in place")
        weight = float(self._node_weights[v])
        slots = self.active_slots()
        scores = weight * (2.0 * self._mass[slots, v] - self._sizes[slots])
        own_pos = int(np.searchsorted(slots, own))  # active_slots() is sorted
        stay_score = float(scores[own_pos]) + weight * weight
        alone = self._sizes[own] == self._node_weights[v]
        # A fresh singleton scores 0 — but for a node already alone it is the
        # same partition as staying, not a move.
        best_slot, best_score = (own, stay_score) if alone else (-1, 0.0)
        scores[own_pos] = np.inf
        if slots.size > 1:
            pos = int(np.argmin(scores))
            if scores[pos] < best_score:
                best_slot, best_score = int(slots[pos]), float(scores[pos])
        if best_score >= stay_score - eps:
            return False
        self.detach(v)
        if best_slot == -1:
            self.attach_singleton(v)
        else:
            self.attach(v, best_slot)
        return True

    def apply_stream_update(
        self, column: np.ndarray, p: float, scale: float, factor: float
    ) -> None:
        """Follow a streaming coin-flip update of ``X`` without a rebuild.

        The streaming engine updates its distance matrix affinely:
        ``X ← scale·X + factor·sep(column)`` with ``sep`` the §2 coin-flip
        separation terms of one arriving clustering.  Masses are linear in
        ``X``, so they follow as ``M ← scale·M + factor·contrib`` where
        ``contrib[v, c] = Σ_{u∈c} sep(column; v, u)`` comes from per-cluster
        label counts in O(n·k) — no O(n²·k) mass rebuild.  The caller must
        have refreshed the evaluator's (aliased) ``X`` buffer already.
        Requires unit node weights, every object attached, and the
        coin-flip missing model (the "average" model's per-pair
        denominators make the X update non-affine).
        """
        if self._instance.weights is not None:
            raise RuntimeError("streaming mass updates require unit node weights")
        if np.any(self._labels < 0):
            raise RuntimeError("streaming mass updates require every object attached")
        labels = self._labels
        k = self._sizes.size
        codes, arity = label_codes(column)
        counts = label_histogram(labels, codes, k, arity)
        sizes = np.bincount(labels, minlength=k).astype(np.float64)
        contrib = separation_mass(codes, counts, counts.sum(axis=1), sizes, p)
        # X's diagonal is pinned to 0, so v contributes nothing to its own
        # cluster's mass; the concrete case already counts sep(v, v) = 0,
        # but a missing v must not pay the coin flip against itself.
        missing_rows = np.flatnonzero(codes == MISSING)
        contrib[missing_rows, labels[missing_rows]] -= 1.0 - p
        self._mass *= scale
        self._mass += factor * contrib.T


class ClusterCountTables:
    """Assignment costs against fixed clusters, from a raw label matrix.

    Given a label matrix (columns = input clusterings, ``-1`` = missing) and
    a partition of a *subset* of the rows into ``k`` clusters, the tables
    answer, for any other row ``v``, the masses ``M(v, C_l)`` needed for the
    SAMPLING assignment phase — in ``O(m * k)`` per row and without an
    explicit distance matrix.

    Parameters
    ----------
    matrix:
        Full ``(n, m)`` label matrix.
    member_rows:
        Row indices (into ``matrix``) of the clustered subset.
    member_labels:
        Cluster labels (``0..k-1``) aligned with ``member_rows``.
    p:
        Coin-flip probability of the missing-value model.
    """

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
            weights = check_weights(member_weights, member_rows.size, "member_weights")
            if np.any(weights < 1):
                raise ValueError("member_weights must be >= 1")
        k = int(member_labels.max()) + 1
        if member_labels.min() < 0 or np.unique(member_labels).size != k:
            raise ValueError("member_labels must use every label in 0..k-1")
        self._m = matrix.shape[1]
        self._p = p
        self._k = k
        self._sizes = np.bincount(member_labels, weights=weights, minlength=k)
        # Per column j: the rows' label codes, counts[j][l, code] = total
        # multiplicity of cluster l's members with that concrete label, and
        # concrete[j][l] = multiplicity of cluster l's members concrete at j.
        self._codes: list[np.ndarray] = []
        self._counts: list[np.ndarray] = []
        self._concrete = np.zeros((self._m, k), dtype=np.float64)
        for j in range(self._m):
            codes, arity = label_codes(matrix[:, j])
            table = label_histogram(member_labels, codes[member_rows], k, arity, weights)
            self._codes.append(codes)
            self._counts.append(table)
            self._concrete[j] = table.sum(axis=1)

    @property
    def k(self) -> int:
        return self._k

    @property
    def sizes(self) -> np.ndarray:
        return self._sizes

    def masses(self, rows: np.ndarray) -> np.ndarray:
        """``M(v, C_l)`` for each row ``v`` in ``rows``: an ``(len(rows), k)`` array."""
        rows = np.asarray(rows, dtype=np.int64)
        total = np.zeros((rows.size, self._k), dtype=np.float64)
        for codes, counts, concrete in zip(self._codes, self._counts, self._concrete):
            total += separation_mass(codes[rows], counts, concrete, self._sizes, self._p)
        total /= self._m
        return total

    def placement_scores(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Relative placement costs for each row, as in :class:`MoveEvaluator`.

        Returns ``(scores, singleton_scores)``: ``scores[i, l]`` is the cost
        of putting row ``i`` into cluster ``l`` minus the common term, i.e.
        ``2 * M(v, C_l) - |C_l|``; the singleton score is identically 0.
        """
        mass = self.masses(rows)
        scores = 2.0 * mass - self._sizes[None, :]
        return scores, np.zeros(len(scores), dtype=np.float64)

    def assign(self, rows: np.ndarray) -> np.ndarray:
        """Cheapest placement for each row: cluster label, or -1 for singleton."""
        scores, singleton = self.placement_scores(rows)
        best = np.argmin(scores, axis=1)
        best_scores = scores[np.arange(len(best)), best]
        out = best.astype(np.int64)
        out[best_scores > singleton] = -1
        return out
