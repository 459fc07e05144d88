"""MoveEvaluator's slot-major masses against the previous ``(n, slots)`` layout.

``PreviousMoveEvaluator`` below is a verbatim copy of the evaluator
before its masses moved to one contiguous row per slot; it is the
differential oracle.  Both are driven through the same random sequences
of moves, scans, compactions and streaming updates, on dense, lazy and
raw instances, unit and integral weights, singleton and arbitrary
starts: masses must stay byte-equal and every decision identical.
"""

import numpy as np
import pytest

from repro.algorithms.local_search import local_search
from repro.core.instance import CorrelationInstance
from repro.core.kernels import MISSING, label_codes, label_histogram, separation_mass
from repro.core.objective import MoveEvaluator
from repro.core.partition import Clustering

from strategies import node_masses

# ----------------------------------------------------------------------
# Oracle: the previous implementation, verbatim.
# ----------------------------------------------------------------------


class PreviousMoveEvaluator:
    """Mutable clustering state with O(1) single-node move evaluation.

    The evaluator keeps cluster membership in *slots* (columns of the mass
    matrix); empty slots are recycled when clusters vanish and new slots are
    appended when singletons are opened.  Use :meth:`clustering` to read the
    current partition back out.
    """

    _GROWTH = 8  # extra slots allocated when the mass matrix is enlarged

    def __init__(self, instance: CorrelationInstance, initial: Clustering | np.ndarray) -> None:
        labels = initial.labels if isinstance(initial, Clustering) else np.asarray(initial)
        if labels.shape != (instance.n,):
            raise ValueError("initial labels must cover every object of the instance")
        self._instance = instance
        backend = instance.backend
        # Dense instances keep the historical float64 alias of X (the
        # streaming engine refreshes that buffer in place); lazy instances
        # fetch rows through the backend on demand.
        self._X: np.ndarray | None = (
            np.asarray(backend.dense(), dtype=np.float64) if backend.name == "dense" else None
        )
        self._node_weights = instance.effective_weights()
        n = instance.n
        k = int(labels.max()) + 1
        self._labels = labels.astype(np.int64).copy()
        # "Sizes" are total multiplicities; masses are weighted column sums,
        # so all score formulas below hold verbatim on atom instances.
        self._sizes = np.bincount(self._labels, weights=self._node_weights, minlength=k)
        self._mass = np.zeros((n, k), dtype=np.float64)
        singleton_start = k == n and np.array_equal(self._labels, np.arange(n))
        if self._X is not None:
            if instance.weights is None:
                weighted_X = self._X
            else:
                weighted_X = self._X * self._node_weights[None, :]
            if singleton_start:
                # All singletons in index order (the cold-start clustering):
                # M(v, {u}) = w_u · X[v, u], i.e. the mass matrix IS weighted_X.
                np.copyto(self._mass, weighted_X)
            else:
                for slot in range(k):
                    members = np.flatnonzero(self._labels == slot)
                    if members.size:
                        self._mass[:, slot] = weighted_X[:, members].sum(axis=1)
        else:
            # Lazy backend: same formulas, one row block at a time.  The
            # per-row axis-1 reductions are independent of the row tiling,
            # so the masses are bitwise identical to the dense init.
            members_by_slot = (
                None
                if singleton_start
                else [np.flatnonzero(self._labels == slot) for slot in range(k)]
            )
            for start, stop in backend.blocks():
                rows = backend.row_block(start, stop).astype(np.float64, copy=False)
                if instance.weights is not None:
                    rows = rows * self._node_weights[None, :]
                if members_by_slot is None:
                    self._mass[start:stop] = rows
                else:
                    for slot, members in enumerate(members_by_slot):
                        if members.size:
                            self._mass[start:stop, slot] = rows[:, members].sum(axis=1)
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
        within_mass = float(self._mass[np.arange(n), self._labels].sum(dtype=np.float64))
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
        mass = np.empty((self.n, k), dtype=np.float64)
        mass[:, order] = self._mass[:, old_slots]
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
        # X is symmetric, so the contiguous row stands in for the strided column.
        self._mass[:, slot] -= weight * self._row(v)
        if self._sizes[slot] <= 1e-9:
            self._sizes[slot] = 0.0
            self._mass[:, slot] = 0.0
            self._free_slots.append(slot)
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
        self._mass[:, slot] += weight * self._row(v)

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
                [self._mass, np.zeros((self.n, extra), dtype=np.float64)], axis=1
            )
            self._free_slots.extend(range(slot + 1, slot + extra))
        weight = self._node_weights[v]
        self._labels[v] = slot
        self._sizes[slot] = weight
        self._mass[:, slot] = weight * self._row(v)
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
        scores = weight * (2.0 * self._mass[v, slots] - self._sizes[slots])
        return slots, scores, 0.0

    def score_of(self, v: int, slot: int) -> float:
        """Relative cost of attaching detached ``v`` to the active ``slot``."""
        if slot < 0 or slot >= self._sizes.size or self._sizes[slot] == 0:
            raise ValueError(f"slot {slot} is not an active cluster")
        weight = self._node_weights[v]
        return float(weight * (2.0 * self._mass[v, slot] - self._sizes[slot]))

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
        slots = self.active_slots()
        weights = self._node_weights
        scores = weights[:, None] * (2.0 * self._mass[:, slots] - self._sizes[slots])
        # Column position of each node's own cluster within the slot list.
        position = np.empty(self._sizes.size, dtype=np.int64)
        position[slots] = np.arange(slots.size)
        own_pos = position[self._labels]
        rows = np.arange(self.n)
        stay = scores[rows, own_pos] + weights * weights
        scores[rows, own_pos] = np.inf
        best_other = scores.min(axis=1) if slots.size > 1 else np.full(self.n, np.inf, dtype=np.float64)
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
        scores = weight * (2.0 * self._mass[v, slots] - self._sizes[slots])
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
        self._mass += factor * contrib


# ----------------------------------------------------------------------
# Lockstep driver
# ----------------------------------------------------------------------


def assert_same_state(new: MoveEvaluator, old: PreviousMoveEvaluator) -> None:
    assert node_masses(new).tobytes() == old._mass.tobytes()
    assert new._sizes.tobytes() == old._sizes.tobytes()
    assert np.array_equal(new._labels, old._labels)
    assert new._free_slots == old._free_slots


def make_instance(kind: str, weighted: bool, seed: int, n: int) -> CorrelationInstance:
    rng = np.random.default_rng(seed)
    matrix = rng.integers(0, 4, size=(n, 5))
    matrix[rng.random((n, 5)) < 0.15] = MISSING
    matrix[0, np.all(matrix == MISSING, axis=0)] = 0
    weights = rng.integers(1, 5, size=n).astype(np.float64) if weighted else None
    if kind.startswith("raw"):
        # A raw instance whose X is symmetric only to rounding: the
        # singleton start must read its columns, not its rows.
        X = CorrelationInstance.from_label_matrix(matrix).X.copy()
        scale = 1e-6 if kind == "raw32" else 1e-9  # above float32 rounding
        upper = np.triu(rng.random((n, n)) * scale, k=1)
        X = np.clip(X + upper, 0.0, 1.0)
        np.fill_diagonal(X, 0.0)
        if kind == "raw32":
            X = X.astype(np.float32)
        return CorrelationInstance(X, m=5, weights=weights)
    return CorrelationInstance.from_label_matrix(
        matrix,
        p=0.5,
        dtype=np.float32 if kind.endswith("32") else None,
        weights=weights,
        backend=kind.removesuffix("32"),
    )


def drive(instance: CorrelationInstance, initial: np.ndarray, seed: int, steps: int) -> None:
    rng = np.random.default_rng(seed)
    n = instance.n
    new = MoveEvaluator(instance, initial)
    old = PreviousMoveEvaluator(instance, initial)
    assert_same_state(new, old)
    for _ in range(steps):
        op = rng.choice(
            ["move", "singleton", "empty", "best", "relocate", "scan", "compact", "stream"]
        )
        if op in ("move", "singleton", "empty"):
            if op == "empty":
                # Detach every member of one cluster: its slot empties and
                # is recycled, the last detach zeroing its row.
                slot = int(rng.choice(new.active_slots()))
                members = np.flatnonzero(new._labels == slot)
            else:
                members = rng.choice(n, size=int(rng.integers(1, 4)), replace=False)
            for v in members:
                assert new.detach(int(v)) == old.detach(int(v))
                assert_same_state(new, old)
            for v in members:
                v = int(v)
                slots_new, scores_new, _ = new.placement_scores(v)
                slots_old, scores_old, _ = old.placement_scores(v)
                assert np.array_equal(slots_new, slots_old)
                assert scores_new.tobytes() == scores_old.tobytes()
                assert new.best_placement(v) == old.best_placement(v)
                active = new.active_slots()
                if op == "move" and active.size and rng.random() < 0.7:
                    slot = int(rng.choice(active))
                    assert new.score_of(v, slot) == old.score_of(v, slot)
                    new.attach(v, slot)
                    old.attach(v, slot)
                else:
                    # Past the slot capacity this grows the mass matrix.
                    assert new.attach_singleton(v) == old.attach_singleton(v)
                assert_same_state(new, old)
        elif op == "best":
            v = int(rng.integers(n))
            assert new.move_to_best(v) == old.move_to_best(v)
        elif op == "relocate":
            for v in rng.permutation(n)[:5]:
                assert new.relocate_if_better(int(v), eps=1e-9) == old.relocate_if_better(
                    int(v), eps=1e-9
                )
        elif op == "scan":
            for eps in (0.0, 1e-9):
                assert np.array_equal(new.candidate_movers(eps), old.candidate_movers(eps))
        elif op == "compact":
            new.compact()
            old.compact()
        elif op == "stream" and instance.weights is None:
            column = rng.integers(0, 3, size=n)
            column[rng.random(n) < 0.2] = MISSING
            scale, factor = float(rng.uniform(0.5, 1.0)), float(rng.uniform(0.1, 0.5))
            new.apply_stream_update(column, 0.5, scale, factor)
            old.apply_stream_update(column, 0.5, scale, factor)
        assert_same_state(new, old)
        assert new.total_cost_fast() == old.total_cost_fast()
    assert new.clustering() == old.clustering()


KINDS = ["dense", "dense32", "lazy", "lazy32", "raw", "raw32"]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("start", ["singletons", "arbitrary", "gapped"])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("kind", KINDS)
def test_lockstep_with_previous_layout(kind, weighted, start, seed):
    n = 37
    instance = make_instance(kind, weighted, seed, n)
    rng = np.random.default_rng(seed + 100)
    if start == "singletons":
        initial = np.arange(n)
    elif start == "arbitrary":
        initial = rng.integers(0, 6, size=n)
    else:
        # Unused slot ids below the largest label start out free.
        initial = 2 * rng.integers(0, 5, size=n)
    drive(instance, initial, seed, steps=60)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("weighted", [False, True])
def test_local_search_runs_agree(kind, weighted):
    # A full cold-start descent: over 600 singletons the scan runs in
    # blocks of 218 nodes, and the moves drain the slots.
    instance = make_instance(kind, weighted, 7, 600)
    new = MoveEvaluator(instance, np.arange(600))
    old = PreviousMoveEvaluator(instance, np.arange(600))
    for _ in range(50):
        movers = new.candidate_movers(1e-9)
        assert np.array_equal(movers, old.candidate_movers(1e-9))
        if not movers.size:
            break
        for v in movers:
            assert new.relocate_if_better(int(v), 1e-9) == old.relocate_if_better(int(v), 1e-9)
        assert node_masses(new).tobytes() == old._mass.tobytes()
    assert new.clustering() == old.clustering()


@pytest.mark.parametrize("start", ["singletons", "arbitrary"])
def test_dense_float32_reads_float64_row_blocks_like_lazy(start):
    # A float32 dense X is not copied to a float64 (n, n) alias; it is
    # read in float64 row blocks, exactly as the lazy float32 backend is.
    dense = make_instance("dense32", False, 3, 300)
    lazy = make_instance("lazy32", False, 3, 300)
    initial = np.arange(300) if start == "singletons" else np.arange(300) % 7
    evaluator = MoveEvaluator(dense, initial)
    assert evaluator._X is None
    assert evaluator._mass.tobytes() == MoveEvaluator(lazy, initial)._mass.tobytes()
    assert local_search(dense, rng=0) == local_search(lazy, rng=0)
