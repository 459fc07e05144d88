"""The streaming aggregation engine: incremental consensus maintenance.

:class:`StreamingAggregator` keeps a consensus clustering up to date while
input clusterings arrive one at a time.  Each :meth:`~StreamingAggregator.observe`
call does two things:

1. **Count update** — folds the arriving clustering into an
   :class:`~repro.stream.instance.IncrementalCorrelationInstance`
   (one O(n²) vectorized pass over the running separation counts; no
   rebuild from the label history).
2. **Refinement** — re-optimizes the consensus.  Up to
   ``sampling_threshold`` objects this is LOCALSEARCH *warm-started from
   the previous consensus*: one clustering rarely moves the optimum far,
   so the search typically converges in one or two cheap sweeps instead
   of the cold-start descent from singletons.  Beyond the threshold the
   engine falls back to the paper's §4.1 SAMPLING scheme on the current
   instance (warm starts do not transfer across a fresh sample, but the
   assignment phase keeps the pass linear in ``n``).

Under the coin-flip missing model the warm path keeps one
:class:`~repro.core.objective.MoveEvaluator` alive across updates: the
arriving clustering changes ``X`` affinely (``X ← scale·X + sep/weight``),
so the evaluator's move masses follow in O(n·k) from per-cluster label
counts instead of an O(n²·k) rebuild, and the ``X`` values themselves are
refreshed into one shared buffer the evaluator aliases.  Every
``resync_every`` updates the evaluator is rebuilt from scratch to squash
accumulated float drift (drift never changes move decisions in practice —
score gaps are multiples of ``1/weight`` — but the resync bounds it
regardless).  The "average" missing model re-normalizes per pair, which is
not affine, so it rebuilds the evaluator each update.

Every update appends a :class:`StreamUpdate` record — cost, cluster
count, local-search moves/sweeps, wall-times — to the engine history, and
:meth:`StreamingAggregator.stats` aggregates them for observability
(cost trajectory, moves per refinement pass, time per update).  A
long-running engine survives restarts through
:mod:`repro.stream.checkpoint`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..analysis.contracts import check_stream_drift, contracts_enabled
from ..algorithms.local_search import local_search, refine
from ..algorithms.sampling import sampling
from ..core.instance import CorrelationInstance
from ..core.objective import MoveEvaluator
from ..core.partition import Clustering
from ..obs.metrics import inc
from ..obs.trace import span
from ..registry import SolveContext, register_method
from .instance import IncrementalCorrelationInstance

__all__ = ["StreamingAggregator", "StreamUpdate", "StreamStats"]


@dataclass
class StreamUpdate:
    """Observability record of one :meth:`StreamingAggregator.observe` call."""

    index: int  #: 1-based update number
    cost: float  #: correlation cost d(C) of the consensus after this update
    disagreements: float  #: effective-weight objective effective_m * d(C) (= count * d(C) at decay=1)
    k: int  #: clusters in the consensus
    moves: int  #: improving relocations made by the refinement pass
    sweeps: int  #: local-search sweeps (0 on the sampling path)
    used_sampling: bool  #: True when the n > threshold fallback ran
    observe_seconds: float  #: wall-time of the count update
    refine_seconds: float  #: wall-time of the refinement pass


@dataclass
class StreamStats:
    """Aggregated engine statistics (see :meth:`StreamingAggregator.stats`)."""

    updates: int = 0
    total_moves: int = 0
    total_sweeps: int = 0
    sampling_updates: int = 0
    costs: list[float] = field(default_factory=list)
    update_seconds: list[float] = field(default_factory=list)

    def summary(self) -> str:
        """One-line human-readable report."""
        if not self.updates:
            return "no updates observed"
        mean_ms = 1000.0 * float(np.mean(self.update_seconds))
        return (
            f"updates={self.updates}  cost={self.costs[-1]:.1f}  "
            f"moves={self.total_moves}  mean_update={mean_ms:.1f}ms"
        )


class StreamingAggregator:
    """Maintain a consensus clustering online as clusterings arrive.

    Parameters
    ----------
    n:
        Number of objects in the stream (fixed).
    p, missing, decay, dtype:
        Forwarded to :class:`IncrementalCorrelationInstance` — the
        missing-value model and the exponential decay factor for
        drifting streams (``decay=1`` reproduces the batch instance
        exactly).
    sampling_threshold:
        Above this many objects the per-update refinement switches from
        full LOCALSEARCH to the §4.1 SAMPLING scheme.
    sample_size:
        SAMPLING sample size (default: the paper-guided
        :func:`~repro.algorithms.sampling.default_sample_size`).
    max_sweeps:
        Safety cap on local-search sweeps per update.
    resync_every:
        Rebuild the persistent move evaluator from scratch every this many
        warm updates (coin-flip path only), bounding float drift in the
        incrementally-maintained masses.
    rng:
        Seed or generator for the stochastic pieces (sweep order
        shuffling, sampling); a single generator is threaded through the
        engine's lifetime so replays are reproducible.
    incremental:
        Adopt an existing :class:`IncrementalCorrelationInstance` (with
        its accumulated counts) instead of allocating a fresh one — the
        checkpoint-restore path uses this to avoid a dead O(n²)
        allocation.  Must cover exactly ``n`` objects; ``p``, ``missing``,
        ``decay`` and ``dtype`` are taken from the adopted instance and
        must not be passed alongside it.

    Examples
    --------
    >>> import numpy as np
    >>> engine = StreamingAggregator(6)
    >>> for labels in ([0, 0, 1, 1, 2, 2], [0, 1, 0, 1, 2, 3], [0, 1, 0, 1, 2, 2]):
    ...     update = engine.observe(np.asarray(labels))
    >>> engine.consensus.k
    3
    >>> round(engine.disagreements(), 6)
    5.0
    """

    def __init__(
        self,
        n: int,
        p: float = 0.5,
        missing: str = "coin-flip",
        decay: float = 1.0,
        dtype: np.dtype | type | None = None,
        sampling_threshold: int = 5000,
        sample_size: int | None = None,
        max_sweeps: int = 200,
        resync_every: int = 256,
        rng: np.random.Generator | int | None = None,
        incremental: IncrementalCorrelationInstance | None = None,
    ) -> None:
        if sampling_threshold < 1:
            raise ValueError("sampling_threshold must be positive")
        if resync_every < 1:
            raise ValueError("resync_every must be positive")
        if incremental is not None:
            if incremental.n != n:
                raise ValueError(
                    f"adopted instance covers {incremental.n} objects, engine expects {n}"
                )
            if (p, missing, decay, dtype) != (0.5, "coin-flip", 1.0, None):
                raise ValueError(
                    "p/missing/decay/dtype come from the adopted instance; "
                    "do not pass them alongside incremental="
                )
            self._incremental = incremental
        else:
            self._incremental = IncrementalCorrelationInstance(
                n, p=p, missing=missing, decay=decay, dtype=dtype
            )
        self._sampling_threshold = int(sampling_threshold)
        self._sample_size = sample_size
        self._max_sweeps = int(max_sweeps)
        self._resync_every = int(resync_every)
        self._rng = np.random.default_rng(rng)
        self._consensus: Clustering | None = None
        self._history: list[StreamUpdate] = []
        # Warm-path working state, rebuilt on demand (derived, not
        # checkpointed): the shared X buffer the evaluator aliases, the
        # persistent evaluator itself, and the warm updates since its last
        # from-scratch rebuild.
        self._X_buffer: np.ndarray | None = None
        self._evaluator: MoveEvaluator | None = None
        self._updates_since_sync = 0

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of objects."""
        return self._incremental.n

    @property
    def count(self) -> int:
        """Clusterings observed so far."""
        return self._incremental.count

    @property
    def consensus(self) -> Clustering:
        """The current consensus clustering."""
        if self._consensus is None:
            raise RuntimeError("no clusterings observed yet")
        return self._consensus

    @property
    def incremental(self) -> IncrementalCorrelationInstance:
        """The underlying incremental instance (read-mostly)."""
        return self._incremental

    @property
    def history(self) -> list[StreamUpdate]:
        """Per-update observability records, oldest first."""
        return list(self._history)

    def cost(self) -> float:
        """Correlation cost ``d(C)`` of the current consensus.

        Read from the last update record when one exists (the record is
        computed for the same consensus); a freshly restored engine with
        an empty history recomputes from the instance.
        """
        if self._history:
            return self._history[-1].cost
        return self._incremental.instance().cost(self.consensus)

    def disagreements(self) -> float:
        """Effective-weight aggregation objective of the consensus.

        Returns ``effective_m · d(C)`` where ``effective_m`` is the
        decayed total weight ``Σ decay^age``.  With ``decay == 1`` this is
        exactly the paper's ``D(C) = count · d(C)``; with decay it is the
        recency-weighted analogue — the identity against the raw
        observation count no longer holds on a decayed instance, so the
        raw-count product is deliberately **not** reported.  Multiply
        :meth:`cost` by :attr:`count <IncrementalCorrelationInstance.count>`
        yourself if you want the (biased) unweighted figure.
        """
        return self._incremental.effective_m * self.cost()

    def stats(self) -> StreamStats:
        """Aggregate the update history into a :class:`StreamStats`."""
        stats = StreamStats()
        for update in self._history:
            stats.updates += 1
            stats.total_moves += update.moves
            stats.total_sweeps += update.sweeps
            stats.sampling_updates += int(update.used_sampling)
            stats.costs.append(update.cost)
            stats.update_seconds.append(update.observe_seconds + update.refine_seconds)
        return stats

    # ------------------------------------------------------------------
    # The streaming step
    # ------------------------------------------------------------------

    def _refresh_instance(self) -> CorrelationInstance:
        """Rewrite the shared X buffer in place and wrap it as an instance.

        The buffer is float64 so that :class:`MoveEvaluator` aliases it
        without a copy — in-place refreshes then keep the persistent
        evaluator's distance view current for free.
        """
        if self._X_buffer is None:
            self._X_buffer = np.empty((self.n, self.n), dtype=np.float64)
        self._incremental.distances(out=self._X_buffer)
        return CorrelationInstance(self._X_buffer, m=self._incremental.count, validate=False)

    def observe(self, labels: np.ndarray) -> StreamUpdate:
        """Fold one arriving clustering in and re-optimize the consensus.

        Returns the :class:`StreamUpdate` record for this update (also
        appended to :attr:`history`).
        """
        column = np.asarray(labels)
        with span("stream.observe", index=self._incremental.count + 1) as observe_span:
            weight_before = self._incremental.effective_m
            self._incremental.observe(column)
        observe_seconds = observe_span.seconds

        moves = sweeps = 0
        used_sampling = False
        with span("stream.refine") as refine_span:
            if self.n > self._sampling_threshold:
                used_sampling = True
                inc("stream.sampling_updates")
                refine_span.set(mode="sampling")
                instance = self._incremental.instance()
                self._consensus = sampling(
                    instance,
                    inner=local_search,
                    # The engine's n is fixed at construction; a configured
                    # sample size beyond it means "sample everything".
                    sample_size=(
                        None if self._sample_size is None else min(self._sample_size, self.n)
                    ),
                    rng=self._rng,
                )
            else:
                instance = self._refresh_instance()
                evaluator = self._evaluator
                if (
                    evaluator is not None
                    and self._incremental.missing == "coin-flip"
                    and self._updates_since_sync < self._resync_every
                ):
                    # Affine X update: follow it on the live evaluator in O(n·k).
                    inc("stream.warm_updates")
                    refine_span.set(mode="incremental")
                    weight_after = self._incremental.effective_m
                    scale = self._incremental.decay * weight_before / weight_after
                    evaluator.apply_stream_update(
                        column, self._incremental.p, scale, 1.0 / weight_after
                    )
                    self._updates_since_sync += 1
                else:
                    # Full evaluator rebuild: first update, non-affine
                    # missing model, or the periodic drift resync.
                    inc("stream.rebuilds")
                    refine_span.set(mode="rebuild")
                    initial = (
                        Clustering.singletons(self.n)
                        if self._consensus is None
                        else self._consensus
                    )
                    evaluator = MoveEvaluator(instance, initial)
                    self._evaluator = evaluator
                    self._updates_since_sync = 0
                details = refine(evaluator, max_sweeps=self._max_sweeps)
                self._consensus = evaluator.clustering()
                # Shrink freed slots and renumber canonically so the next
                # O(n·k) mass update really is O(n·k), not O(n·slots-ever).
                evaluator.compact()
                moves, sweeps = details.moves, details.sweeps
                refine_span.set(moves=moves, sweeps=sweeps)
        refine_seconds = refine_span.seconds

        evaluator = self._evaluator
        if used_sampling or evaluator is None:
            cost = instance.cost(self._consensus)
        else:
            cost = evaluator.total_cost_fast()
            if contracts_enabled():
                # Debug-mode drift bound: the mass-maintained cost must track
                # a from-scratch recomputation on the current instance.
                check_stream_drift(
                    cost,
                    instance.cost(self._consensus),
                    pairs=self.n * (self.n - 1) / 2.0,
                )
        update = StreamUpdate(
            index=self._incremental.count,
            cost=cost,
            disagreements=self._incremental.effective_m * cost,
            k=self._consensus.k,
            moves=moves,
            sweeps=sweeps,
            used_sampling=used_sampling,
            observe_seconds=observe_seconds,
            refine_seconds=refine_seconds,
        )
        self._history.append(update)
        return update

    def observe_many(self, matrix: np.ndarray) -> list[StreamUpdate]:
        """Replay the columns of an ``(n, m)`` label matrix in order."""
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != self.n:
            raise ValueError(f"expected an ({self.n}, m) label matrix, got {matrix.shape}")
        return [self.observe(matrix[:, j]) for j in range(matrix.shape[1])]

    # ------------------------------------------------------------------
    # Checkpoint support (see repro.stream.checkpoint)
    # ------------------------------------------------------------------

    def state(self) -> dict[str, Any]:
        """Full engine state for checkpointing."""
        return {
            "instance": self._incremental.state(),
            "consensus": None if self._consensus is None else self._consensus.labels,
            "rng_state": self._rng.bit_generator.state,
            "config": {
                "sampling_threshold": self._sampling_threshold,
                "sample_size": self._sample_size,
                "max_sweeps": self._max_sweeps,
                "resync_every": self._resync_every,
            },
        }

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "StreamingAggregator":
        """Rebuild an engine from :meth:`state` output (inverse operation).

        The update history is observability data, not algorithm state, and
        is intentionally not checkpointed — a restored engine starts with
        an empty history but identical counts, consensus, and RNG stream.
        """
        incremental = IncrementalCorrelationInstance.from_state(state["instance"])
        config = state["config"]
        engine = cls(
            incremental.n,
            sampling_threshold=config["sampling_threshold"],
            sample_size=config["sample_size"],
            max_sweeps=config["max_sweeps"],
            resync_every=config.get("resync_every", 256),
            incremental=incremental,
        )
        consensus = state["consensus"]
        if consensus is not None and np.shape(consensus) != (incremental.n,):
            raise ValueError(
                f"checkpointed consensus has shape {np.shape(consensus)}, "
                f"expected ({incremental.n},)"
            )
        engine._consensus = None if consensus is None else Clustering(np.asarray(consensus))
        engine._rng.bit_generator.state = state["rng_state"]
        return engine

    def __repr__(self) -> str:
        k = "?" if self._consensus is None else self._consensus.k
        return (
            f"StreamingAggregator(n={self.n}, count={self.count}, k={k}, "
            f"threshold={self._sampling_threshold})"
        )


def _solve_streaming(ctx: SolveContext) -> Clustering:
    # Relocated verbatim from aggregate()'s old "streaming" branch: replay
    # the label-matrix columns through a fresh engine.
    matrix = ctx.require_matrix("streaming")
    engine = StreamingAggregator(matrix.shape[0], p=ctx.p, **ctx.params)
    engine.observe_many(matrix)
    return engine.consensus


# Registered via an explicit call (not decorator syntax) so the class
# object keeps its precise type for the strict-mypy consumers upstream.
register_method(
    "streaming",
    kind="matrix",
    stochastic=True,
    supports_collapse=False,
    exclude=("p",),
    solver=_solve_streaming,
)(StreamingAggregator)
