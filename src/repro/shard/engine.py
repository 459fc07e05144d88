"""Sharded divide-and-merge aggregation.

The paper's SAMPLING argument (§6) bounds instance size by clustering a
sample and attaching the rest; sharding bounds it by *decomposition*:
cut the ``(n, m)`` label matrix into shards, aggregate every shard
independently (each worker sees only its own ``O((n/s)^2)`` problem),
then merge the shard consensus clusterings through the weighted-atom
instance of :mod:`repro.shard.merge`.  No step ever materializes a
global quadratic object, so the memory high-water mark is set by the
largest shard rather than by ``n`` — the first path in the library where
instance size is bounded per shard.

Execution goes through :func:`repro.parallel.workers.fan_out`, like the
portfolio: forked workers inherit the label matrix (nothing is pickled
or copied) and solve their shard, and results (labels, cost, spans)
ride back on the pool's result channel.  Determinism: one child
generator is spawned per shard *position* (plus one for the partition
shuffle) before anything runs, and every in-shard solve is pinned to
``n_jobs=1``, so the consensus is bit-identical for any worker count —
the in-process serial path included.

Quality: on the paper-style categorical datasets the sharded consensus
stays within :data:`QUALITY_ENVELOPE` of single-shot SAMPLING's
objective (measured by ``benchmarks/bench_shard.py``; asserted by the
differential tests).  The merge itself never loses to the raw shard
union — see :func:`repro.shard.merge.merge_shards`.
"""

from __future__ import annotations

import numbers
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..algorithms.sampling import sampling
from ..core.distance import total_disagreement
from ..core.instance import CorrelationInstance
from ..core.labels import as_label_matrix, check_weights, validate_label_matrix
from ..core.partition import Clustering
from ..obs.metrics import inc, observe, set_gauge
from ..obs.trace import span
from ..parallel.workers import fan_out
from ..registry import (
    SolveContext,
    is_stochastic,
    register_method,
    resolve_instance_method,
)
from .merge import DEFAULT_MAX_EXACT_ATOMS, merge_shards
from .partition import plan_shards

__all__ = ["QUALITY_ENVELOPE", "ShardResult", "ShardRun", "shard_aggregate"]

#: Documented quality envelope vs single-shot SAMPLING: on the paper's
#: categorical datasets the sharded objective is at most this multiple of
#: the single-shot SAMPLING objective for the same seed budget (measured
#: in ``reports/BENCH_shard.json``, enforced by the differential tests).
QUALITY_ENVELOPE = 1.15

@dataclass(frozen=True)
class ShardRun:
    """Observability record for one solved shard.

    ``cost`` is the shard clustering's ``d(C) = D(C) / m`` over the shard's
    rows, from :func:`~repro.core.distance.total_disagreement`.
    """

    index: int
    size: int
    k: int
    cost: float
    elapsed_seconds: float

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly representation (CLI ``--json`` output)."""
        return {
            "index": self.index,
            "size": self.size,
            "k": self.k,
            "cost": self.cost,
            "elapsed_seconds": self.elapsed_seconds,
        }


@dataclass(frozen=True)
class ShardResult:
    """Outcome of one :func:`shard_aggregate` call.

    ``shards`` preserves shard order regardless of completion order;
    ``merge_method`` is the strategy the merge layer actually used
    (``"exact"``, ``"local-search"``, or ``"trivial"``); ``atom_cost``
    is the merged clustering's weighted atom-instance objective.
    """

    clustering: Clustering
    shards: tuple[ShardRun, ...]
    partition: str
    merge_method: str
    n_atoms: int
    atom_cost: float
    jobs: int
    elapsed_seconds: float

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly representation (clustering reported as ``k``)."""
        return {
            "n_shards": len(self.shards),
            "partition": self.partition,
            "merge_method": self.merge_method,
            "n_atoms": self.n_atoms,
            "atom_cost": self.atom_cost,
            "k": self.clustering.k,
            "jobs": self.jobs,
            "elapsed_seconds": self.elapsed_seconds,
            "shards": [run.to_dict() for run in self.shards],
        }

    def summary(self) -> str:
        """One-line human-readable report."""
        sizes = "/".join(str(run.size) for run in self.shards)
        return (
            f"sharded shards={len(self.shards)} ({sizes})  atoms={self.n_atoms}  "
            f"merge={self.merge_method}  k={self.clustering.k}"
        )


def _solve_shard(
    state: tuple[np.ndarray, list[np.ndarray], list[np.random.Generator], dict[str, Any]],
    index: int,
) -> tuple[np.ndarray, float, int, float]:
    """Aggregate shard ``index``; a :func:`~repro.parallel.workers.fan_out` task.

    Returns ``(labels, cost, k, seconds)`` with ``cost`` the shard's own
    ``d(C) = D(C) / m``, read off the shard's labels whatever the method
    (diagnostic only — the merge layer recomputes everything it needs
    from the labels).  In-shard solves are pinned to ``n_jobs=1``:
    parallelism lives at the shard level, and nested pools would both
    oversubscribe and tie results to the worker topology.
    """
    matrix, plan, children, config = state
    indices = plan[index]
    method = config["shard_method"]
    p = config["p"]
    weights = config["weights"]
    sub = matrix[indices]
    sub_weights = None if weights is None else weights[indices]
    with span(f"shard:{index}", rows=int(indices.size), method=method) as shard_span:
        kwargs = dict(config["params"])
        if method == "sampling":
            if kwargs.get("sample_size") is not None:
                # The caller's sample size is a global notion; per shard it
                # cannot exceed the shard itself.
                kwargs["sample_size"] = min(int(kwargs["sample_size"]), int(indices.size))
            clustering = sampling(
                sub,
                resolve_instance_method(config["inner"]),
                p=p,
                rng=children[index],
                weights=sub_weights,
                n_jobs=1,
                **kwargs,
            )
        else:
            instance = CorrelationInstance.from_label_matrix(
                sub, p=p, weights=sub_weights, backend=config["backend"]
            )
            if is_stochastic(method):
                kwargs["rng"] = children[index]
            clustering = resolve_instance_method(method)(instance, **kwargs)
        cost = total_disagreement(sub, clustering, p=p, weights=sub_weights) / sub.shape[1]
        shard_span.set(cost=cost, k=clustering.k)
    observe("shard.member.cost", cost)
    observe("shard.member.seconds", shard_span.seconds)
    return (
        clustering.labels.astype(np.int64),
        float(cost),
        int(clustering.k),
        shard_span.seconds,
    )


def _solve_sharded(ctx: SolveContext) -> Clustering:
    # Relocated verbatim from aggregate()'s old "sharded" branch: shard and
    # merge records land in ctx.params["shard"] for the result report.
    matrix = ctx.require_matrix("sharded")
    if ctx.atoms is not None:
        shard_result = shard_aggregate(
            ctx.atoms.matrix,
            p=ctx.p,
            weights=ctx.atoms.weights.astype(np.float64),
            n_jobs=ctx.n_jobs,
            backend=ctx.backend,
            **ctx.params,
        )
        clustering = ctx.atoms.expand(shard_result.clustering)
    else:
        shard_result = shard_aggregate(
            matrix, p=ctx.p, n_jobs=ctx.n_jobs, backend=ctx.backend, **ctx.params
        )
        clustering = shard_result.clustering
    ctx.params["shard"] = shard_result.to_dict()
    return clustering


@register_method(
    "sharded",
    kind="matrix",
    stochastic=True,
    supports_weights=True,
    exclude=("p", "weights", "n_jobs", "backend"),
    solver=_solve_sharded,
)
def shard_aggregate(
    inputs: Sequence[Clustering] | np.ndarray,
    n_shards: int = 4,
    partition: str = "contiguous",
    shard_method: str = "sampling",
    inner: str = "agglomerative",
    merge: str = "auto",
    max_exact_atoms: int = DEFAULT_MAX_EXACT_ATOMS,
    p: float = 0.5,
    rng: np.random.Generator | int | None = None,
    weights: np.ndarray | None = None,
    n_jobs: int | None = None,
    backend: str = "auto",
    **params: Any,
) -> ShardResult:
    """Aggregate by sharding the objects, solving shards, merging atoms.

    Parameters
    ----------
    inputs:
        Input clusterings or an ``(n, m)`` label matrix (``-1`` marks
        missing entries).  Raw correlation instances are not accepted —
        sharding exists precisely to avoid global quadratic objects.
    n_shards:
        Number of shards (clamped to ``n`` so shards are never empty).
    partition:
        ``"contiguous"`` or ``"random"`` (seeded permutation); see
        :func:`repro.shard.partition.plan_shards`.
    shard_method:
        Per-shard aggregation algorithm: ``"sampling"`` (default,
        keeps shard memory at ``O(sample^2)``) or any instance method
        (``"agglomerative"``, ``"local-search"``, ...).
    inner:
        SAMPLING's inner algorithm (``shard_method="sampling"`` only).
    merge:
        Merge strategy (``"auto"``, ``"exact"``, ``"local-search"``);
        see :func:`repro.shard.merge.merge_shards`.
    max_exact_atoms:
        ``merge="auto"`` switches from exact branch-and-bound to
        LOCALSEARCH above this many atoms.
    p:
        Missing-value coin-flip probability (§2).
    rng:
        Root seed or generator.  One child generator is spawned per
        shard position (plus one for the partition shuffle) before
        anything runs, so results are bit-identical for every
        ``n_jobs``.
    weights:
        Optional per-row multiplicities (>= 1) — lets sharding compose
        with duplicate collapsing (``aggregate(collapse=True)``).
    n_jobs:
        Shard-level worker count; ``None`` consults ``REPRO_JOBS``
        (see :func:`repro.parallel.resolve_jobs`).
    backend:
        Pair-distance backend for instance-consuming shard methods.
    **params:
        Extra kwargs for the per-shard solver (e.g. ``sample_size=1000``,
        clamped to the shard size).
    """
    matrix = inputs if isinstance(inputs, np.ndarray) else as_label_matrix(inputs)
    validate_label_matrix(matrix)
    n = matrix.shape[0]
    if weights is not None:
        weights = check_weights(weights, n)
        if np.any(weights < 1):
            raise ValueError("weights must be >= 1 (duplicate multiplicities)")
    if shard_method != "sampling":
        resolve_instance_method(shard_method)  # raises early on unknown names
    if isinstance(n_shards, bool) or not isinstance(n_shards, numbers.Integral):
        raise ValueError(f"n_shards must be an integer, got {n_shards!r}")
    if n_shards < 1:
        raise ValueError(f"n_shards must be positive, got {n_shards}")
    shards = min(int(n_shards), n)

    # One independent child per shard *position*, plus one leading stream
    # for the partition shuffle — spawned before any execution, and spawned
    # identically in contiguous mode (where the shuffle stream goes unused)
    # so the per-shard seeds do not depend on the partition mode.
    root_rng = np.random.default_rng(rng)
    streams = root_rng.spawn(shards + 1)
    config = {
        "shard_method": shard_method,
        "inner": inner,
        "p": p,
        "weights": weights,
        "backend": backend,
        "params": dict(params),
    }

    with span("shard", n=n, shards=shards, method=shard_method) as root:
        with span("shard.partition", n=n, shards=shards, mode=partition):
            plan = plan_shards(n, shards, mode=partition, rng=streams[0])
        children = streams[1:]

        with span("shard.solve", shards=len(plan)) as solve_span:
            state = (matrix, plan, children, config)
            outcomes, jobs = fan_out(_solve_shard, len(plan), state, n_jobs)
            solve_span.set(jobs=jobs, busy_seconds=sum(outcome[3] for outcome in outcomes))

        # Shard cluster c of shard i becomes atom offset_i + c; canonical
        # shard labels make the offsets a simple running sum.
        atom_of = np.empty(n, dtype=np.int64)
        offset = 0
        for (labels, _, _, _), indices in zip(outcomes, plan):
            atom_of[indices] = offset + labels
            offset += int(labels.max()) + 1

        with span("shard.merge", atoms=offset, merge=merge) as merge_span:
            merged = merge_shards(
                matrix,
                atom_of,
                p=p,
                weights=weights,
                merge=merge,
                max_exact_atoms=max_exact_atoms,
            )
            merge_span.set(method=merged.method, cost=merged.atom_cost, k=merged.clustering.k)
        root.set(atoms=merged.n_atoms, merge=merged.method, k=merged.clustering.k)
    inc("shard.runs")
    set_gauge("shard.jobs", jobs)

    runs = tuple(
        ShardRun(
            index=i,
            size=int(plan[i].size),
            k=k,
            cost=cost,
            elapsed_seconds=elapsed,
        )
        for i, (_, cost, k, elapsed) in enumerate(outcomes)
    )
    return ShardResult(
        clustering=merged.clustering,
        shards=runs,
        partition=partition,
        merge_method=merged.method,
        n_atoms=merged.n_atoms,
        atom_cost=merged.atom_cost,
        jobs=jobs,
        elapsed_seconds=root.seconds,
    )
