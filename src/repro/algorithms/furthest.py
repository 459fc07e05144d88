"""FURTHEST — top-down furthest-first partitioning (§4).

Inspired by the furthest-first traversal of Hochbaum and Shmoys for
p-centers.  Starting from the single-cluster solution, the two mutually
furthest nodes become centers; every node is assigned to the nearest
center, the correlation cost of the new solution is computed, and the
process repeats — each round adding as new center the node furthest from
the existing centers — until a round does not strictly lower the cost.
The solution of the *previous* round is returned.

Each node's nearest-center distance and center are kept as running
minima, so a new center costs one column of ``X``: ``O(k n)`` column
reads for ``k`` centers, after the ``O(n^2)`` furthest-pair scan.  On
instances built from labels each round is scored by the exact label
objective in ``O(n m)`` (see :class:`_StopRule`), so a run costs
``O(k n m)`` on top; raw distance instances score with
:meth:`~repro.core.instance.CorrelationInstance.cost`, ``O(n^2)`` a round.
"""

from __future__ import annotations

import numpy as np

from ..core.distance import total_disagreement
from ..core.instance import CorrelationInstance
from ..core.kernels import _exact_objective
from ..core.partition import Clustering
from ..obs.metrics import inc
from ..obs.profile import phase
from ..registry import register_method

__all__ = ["furthest"]


def cost_error_bound(dtype: np.dtype, n: int, m: int, total_weight: float) -> float:
    """A bound on ``|m * instance.cost(C) - D(C)|`` for a label-built instance.

    :meth:`~repro.core.backend.PairDistanceBackend.cost` evaluates
    ``d(C) = T - A/2 + B - P`` with ``A`` (``B``) the float64 sum of
    ``w_u X[u, v] w_v`` over all (co-clustered) ordered pairs; ``T`` and
    ``P`` are exact pair counts.  With ``W = sum w``, ``A, B <= W**2``.
    Under :func:`~repro.core.kernels._exact_objective`:

    * each entry ``X[u, v]`` is ``s / m`` with ``s`` exact, rounded once
      to ``dtype``: relative error at most ``u_X``, that dtype's unit
      roundoff;
    * each sum reaches any term through at most ``K = n**2 + 3 n + 8``
      roundings (the summation tree of a row block, the weight products,
      the running sum over blocks), so its error is at most
      ``gamma_K * A`` with ``gamma_K = K u / (1 - K u)``, ``u = 2**-53``;
    * the three additions of the formula round results below
      ``1.5 W**2`` (at most ``2.5 u W**2`` in all), and the product with
      ``m`` adds ``u m W**2 / 2``.

    Altogether ``|m * cost - D| <= m W**2 (1.5 (u_X + gamma_K) + 3 u)``,
    which ``2 m W**2 (u_X + gamma_K)`` covers since ``gamma_K >= 8 u``.
    ``D(C)`` itself is exact (:func:`~repro.core.distance.total_disagreement`).
    """
    u = np.finfo(np.float64).eps / 2.0
    steps = float(n) * n + 3.0 * n + 8.0
    gamma = steps * u / (1.0 - steps * u)
    return 2.0 * m * total_weight * total_weight * (np.finfo(dtype).eps / 2.0 + gamma)


class _StopRule:
    """Whether a round strictly lowers ``instance.cost``, decided as that float compare.

    Where the instance keeps its labels and
    :func:`~repro.core.kernels._exact_objective` holds, each clustering is
    scored by the exact ``D(C) = m * d(C)`` in ``O(n m)``.  Two exact
    scores more than twice :func:`cost_error_bound` apart order the two
    ``instance.cost`` values the same way (``m * cost`` is monotone in
    ``cost``).  Closer scores, exact ties included, and every other
    instance compare ``instance.cost`` itself, so the decisions are those
    of comparing ``instance.cost`` every round.
    """

    def __init__(self, instance: CorrelationInstance) -> None:
        self._instance = instance
        source = instance.label_source
        self._exact = source is not None and _exact_objective(
            source.matrix, source.p, source.missing, instance.weights
        )
        self._slack = 0.0
        if self._exact:
            total = float(instance.effective_weights().sum())
            self._slack = 2.0 * cost_error_bound(
                instance.backend.dtype, instance.n, source.matrix.shape[1], total
            )
        #: The best clustering so far, starting from the single cluster.
        self.best = Clustering.single_cluster(instance.n)
        self._best_score = self._score(self.best)
        self._best_cost: float | None = None

    def _score(self, clustering: Clustering) -> float | None:
        """The exact ``D(C)``, or ``None`` outside the exactness rule."""
        if not self._exact:
            return None
        source = self._instance.label_source
        return total_disagreement(source.matrix, clustering, source.p, self._instance.weights)

    def improves(self, candidate: Clustering) -> bool:
        """Whether ``cost(candidate) < cost(best so far)``; a winner becomes the best."""
        score = self._score(candidate)
        cost = None
        if score is not None and abs(self._best_score - score) > self._slack:
            better = score < self._best_score
        else:
            inc("furthest.cost_calls")
            if self._best_cost is None:
                self._best_cost = self._instance.cost(self.best)
            cost = self._instance.cost(candidate)
            better = cost < self._best_cost
        if better:
            self.best, self._best_score, self._best_cost = candidate, score, cost
        return better


@register_method("furthest", kind="instance", supports_weights=True)
def furthest(
    instance: CorrelationInstance,
    max_k: int | None = None,
    force_k: int | None = None,
) -> Clustering:
    """Run the FURTHEST algorithm on a correlation instance.

    Parameters
    ----------
    instance:
        Pairwise distances in [0, 1].
    max_k:
        Optional cap on the number of centers (the paper's algorithm is
        parameter-free and stops on the first round that does not
        strictly lower the cost).
    force_k:
        Return exactly ``force_k`` clusters: keep generating furthest-first
        centers regardless of the cost trend (the §2 "if the user insists
        on a predefined number of clusters" variant); no round is scored.
    """
    backend = instance.backend
    n = instance.n
    if force_k is not None:
        if max_k is not None:
            raise ValueError("give at most one of max_k and force_k")
        if not 1 <= force_k <= n:
            raise ValueError(f"force_k must be in 1..{n}, got {force_k}")
    if n == 1:
        return Clustering.single_cluster(1)
    cap = n if max_k is None else min(max_k, n)
    if force_k is not None:
        cap = force_k

    if cap < 2:
        return Clustering.single_cluster(n)

    with phase("furthest", n=n, cap=cap) as furthest_span:
        # force_k decides on the center count alone and scores no round.
        stop_rule = None if force_k is not None else _StopRule(instance)
        # Initial centers: the furthest pair (blocked row-major argmax).
        first, second = backend.argmax_entry()
        if first == second:
            # X is identically zero (e.g. identical input clusterings): argmax
            # lands on the diagonal and would duplicate a center, splitting
            # node 0 into a phantom cluster.  Any two distinct nodes are
            # equally (non-)far apart, so pick the canonical pair.
            first, second = 0, 1
        centers: list[int] = []
        # Running minimum over the center columns: strict < keeps the
        # first center on ties, as an argmin over all of them would.
        nearest = np.full(n, np.inf, dtype=backend.dtype)
        nearest_rank = np.zeros(n, dtype=np.int64)

        def add_center(center: int) -> None:
            column = backend.columns([center])[:, 0]
            closer = column < nearest
            nearest[closer] = column[closer]
            nearest_rank[closer] = len(centers)
            centers.append(center)

        add_center(int(first))
        add_center(int(second))
        rounds = 0
        while True:
            rounds += 1
            furthest_span.set(rounds=rounds, centers=len(centers))
            inc("furthest.rounds")
            assignment = nearest_rank.copy()
            # Each center belongs to its own cluster (distance 0 to itself, and
            # argmin ties resolve to the first column — force exactness).
            assignment[centers] = np.arange(len(centers))
            if stop_rule is None:
                if len(centers) >= cap:
                    return Clustering(assignment)
            elif not stop_rule.improves(Clustering(assignment)) or len(centers) >= cap:
                return stop_rule.best

            # Next center: the node furthest from all existing centers.
            distance_to_centers = nearest.copy()
            distance_to_centers[centers] = -1.0
            add_center(int(np.argmax(distance_to_centers)))
