"""LOCALSEARCH — best-move node relocation (§4).

Starting from any clustering (a random partition, all singletons, or the
output of another algorithm), repeatedly sweep over the nodes; each node is
re-placed into the cluster — existing, or a fresh singleton — that yields
the minimum cost, using the ``M(v, C_i)`` bookkeeping of
:class:`~repro.core.objective.MoveEvaluator` so each candidate move costs
O(1).  A sweep is one vectorized scan for nodes whose best move improves,
followed by re-verified relocations of just those nodes.  The search stops
at a local optimum: a sweep with no strictly-improving move.

The relocations of a sweep run compiled (``core/_moves.c``) on a dense
``X``, float64 or float32, where a C compiler is found; lazy instances and
machines without one run the per-candidate numpy loop.  Both make the same
float operations in the same order, so labels, sweeps and moves are equal
bit for bit; the ``localsearch.refine`` span's ``engine`` says which ran.

The paper uses LOCALSEARCH both as a standalone algorithm and as a
post-processing step for the other algorithms (see the A2 ablation bench);
it reports the best objective values of all heuristics, at the price of a
potentially large number of sweeps, hence ``O(I n^2)`` time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.instance import CorrelationInstance
from ..core.objective import MoveEvaluator
from ..core.partition import Clustering
from ..obs.metrics import inc
from ..obs.profile import phase
from ..registry import register_method

__all__ = ["local_search", "refine", "LocalSearchDetails"]


@dataclass
class LocalSearchDetails:
    """Diagnostics of one :func:`local_search` run.

    ``sweeps`` counts full passes over the nodes (including the final
    no-improvement pass that certifies the local optimum); ``moves``
    counts strictly-improving relocations.  A warm start from a clustering
    that is already locally optimal reports ``moves == 0``.
    """

    sweeps: int = 0
    moves: int = 0

#: Minimum strict improvement for a move, guarding against float noise
#: cycles (scores are small integers for exact aggregation instances).
_EPS = 1e-9


def refine(
    evaluator: MoveEvaluator,
    max_sweeps: int = 200,
    rng: np.random.Generator | int | None = None,
) -> LocalSearchDetails:
    """Drive an existing :class:`MoveEvaluator` to a local optimum.

    Each sweep first runs the vectorized O(n·k) candidate scan
    (:meth:`MoveEvaluator.candidate_movers`) and then re-verifies and
    applies only those candidates (:meth:`MoveEvaluator.relocate_all`:
    compiled on a dense ``X`` where a C compiler is found, else the numpy
    loop over :meth:`MoveEvaluator.relocate_if_better`, with equal bits),
    so a sweep over a near-optimal clustering costs one matrix scan plus
    O(n) per node that actually moves.  Moves enabled by other moves
    within the same sweep are picked up by the next scan; the search
    still terminates exactly at a single-node-move local optimum.  The
    ``localsearch.refine`` span records the ``engine`` that ran (``c`` or
    ``numpy``).  The streaming engine calls this directly to reuse one
    evaluator across updates; :func:`local_search` wraps it for the batch
    entry point.
    """
    generator = None if rng is None else np.random.default_rng(rng)
    details = LocalSearchDetails()
    with phase("localsearch.refine", n=evaluator.n) as refine_span:
        for _ in range(max_sweeps):
            details.sweeps += 1
            candidates = evaluator.candidate_movers(eps=_EPS)
            if generator is not None and candidates.size:
                generator.shuffle(candidates)
            # Scores go stale as earlier candidates move, so each candidate
            # is re-verified in place; only a node that still improves pays
            # the O(n) relocation.
            moves = evaluator.relocate_all(candidates, eps=_EPS)
            details.moves += moves
            if not moves:
                break
        refine_span.set(engine=evaluator.sweep_engine, sweeps=details.sweeps, moves=details.moves)
    inc("localsearch.sweeps", details.sweeps)
    inc("localsearch.moves", details.moves)
    return details


@register_method(
    "local-search", kind="instance", stochastic=True, supports_weights=True,
    exclude=("return_details",),
)
def local_search(
    instance: CorrelationInstance,
    initial: Clustering | None = None,
    max_sweeps: int = 200,
    rng: np.random.Generator | int | None = None,
    return_details: bool = False,
) -> Clustering | tuple[Clustering, LocalSearchDetails]:
    """Run local search to a single-node-move local optimum.

    Parameters
    ----------
    instance:
        Pairwise distances in [0, 1].
    initial:
        Starting clustering; defaults to all singletons (a neutral,
        parameter-free start).  Pass another algorithm's output to use
        LOCALSEARCH as a post-processing step.
    max_sweeps:
        Safety cap on full passes over the nodes.
    rng:
        If given, each sweep's candidate movers are visited in a freshly
        shuffled order; by default in index order (deterministic).
    return_details:
        Also return a :class:`LocalSearchDetails` with sweep and move
        counts (used by the streaming engine's observability hook).
    """
    n = instance.n
    if initial is None:
        initial = Clustering.singletons(n)
    if initial.n != n:
        raise ValueError("initial clustering must cover every object of the instance")
    with phase("localsearch.init", n=n):
        evaluator = MoveEvaluator(instance, initial)
    details = refine(evaluator, max_sweeps=max_sweeps, rng=rng)
    result = evaluator.clustering()
    if return_details:
        return result, details
    return result
