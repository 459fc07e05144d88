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
reads for ``k`` centers, after the ``O(n^2)`` furthest-pair scan.  Each
round is scored by :meth:`~repro.core.instance.CorrelationInstance.cost`:
``O(n m)`` from the labels on a coin-flip instance built from labels, so
a run costs ``O(k n m)`` on top; ``O(n^2)`` a round on raw distance and
``missing="average"`` instances.
"""

from __future__ import annotations

import numpy as np

from ..cluster.linkage import _check_count
from ..core.instance import CorrelationInstance
from ..core.partition import Clustering
from ..obs.metrics import inc
from ..obs.profile import phase
from ..registry import register_method

__all__ = ["furthest"]


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
        Optional cap on the number of centers, a positive integer (the
        paper's algorithm is parameter-free and stops on the first round
        that does not strictly lower the cost).
    force_k:
        Return exactly ``force_k`` clusters: keep generating furthest-first
        centers regardless of the cost trend (the §2 "if the user insists
        on a predefined number of clusters" variant); no round is scored.
        An integer in ``1..n``.
    """
    backend = instance.backend
    n = instance.n
    if force_k is not None and max_k is not None:
        raise ValueError("give at most one of max_k and force_k")
    _check_count("max_k", max_k)
    _check_count("force_k", force_k, n)
    if n == 1:
        return Clustering.single_cluster(1)
    cap = n if max_k is None else min(max_k, n)
    if force_k is not None:
        cap = force_k

    if cap < 2:
        return Clustering.single_cluster(n)

    with phase("furthest", n=n, cap=cap) as furthest_span:
        best = Clustering.single_cluster(n)
        # force_k decides on the center count alone and scores no round.
        best_cost = None if force_k is not None else instance.cost(best)
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
            if best_cost is not None:
                candidate = Clustering(assignment)
                cost = instance.cost(candidate)
                if not cost < best_cost:
                    return best
                best, best_cost = candidate, cost
            if len(centers) >= cap:
                return best if force_k is None else Clustering(assignment)

            # Next center: the node furthest from all existing centers.
            distance_to_centers = nearest.copy()
            distance_to_centers[centers] = -1.0
            add_center(int(np.argmax(distance_to_centers)))
