"""SAMPLING — scaling clustering aggregation to large datasets (§4.1).

The quadratic distance matrix makes the base algorithms inapplicable to
large datasets.  SAMPLING wraps any of them:

1. **Pre-processing** — draw a uniform sample ``S`` of the objects, build
   the correlation instance *of the sample only*, and aggregate it with the
   inner algorithm.  A Chernoff argument shows an ``O(log n)`` sample hits
   every cluster containing a constant fraction of the data.
2. **Assignment** — every non-sampled object is placed into the cheapest
   sample cluster, or into a singleton when no cluster is attractive
   (average distance below 1/2).  Costs come from
   :class:`~repro.core.objective.ClusterCountTables`: per label column a
   lookup table of masses by label code, against the sample clusters, and
   each distinct tuple of codes scored once.  So this phase is linear in
   the data size and never materializes a full distance matrix.
3. **Singleton round-up** — objects left as singletons (the paper observed
   there are too many of them) are collected and aggregated again among
   themselves; if even the singleton set is too large, SAMPLING recurses.

The function accepts either a raw ``(n, m)`` label matrix (the scalable
path used for the Census and 1M-point experiments) or a prebuilt
:class:`~repro.core.instance.CorrelationInstance` (convenient in tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.instance import CorrelationInstance
from ..core.labels import check_weights, validate_label_matrix
from ..core.objective import ClusterCountTables
from ..core.partition import Clustering
from ..obs.metrics import inc
from ..obs.trace import span
from ..registry import SolveContext, consumes_x, register_method, resolve_instance_method

__all__ = ["sampling", "SamplingDetails", "default_sample_size"]

InnerAlgorithm = Callable[[CorrelationInstance], Clustering]


@dataclass
class SamplingDetails:
    """Diagnostics of one SAMPLING run (see :func:`sampling`).

    On weighted (atom) inputs ``assigned_to_clusters`` and
    ``leftover_singletons`` count *expanded* objects — each atom
    contributes its multiplicity — so the two numbers are comparable
    across collapsed and uncollapsed runs of the same data.
    """

    sample_indices: np.ndarray
    sample_clusters: int
    assigned_to_clusters: int
    leftover_singletons: int
    recursed: bool


def default_sample_size(n: int) -> int:
    """Paper-guided default: logarithmic in ``n`` with a practical floor.

    The theory requires ``O(log n)`` to hit all large clusters with high
    probability; the paper's experiments use samples of 1000–4000, so the
    default is ``min(n, max(200, 65 * log2(n)))`` — about 1000 for
    ``n = 50K`` and still only ~1300 for one million objects.
    """
    if n <= 1:
        return n
    return int(min(n, max(200, round(65 * np.log2(n)))))


def _solve_sampling(ctx: SolveContext) -> Clustering:
    # Relocated verbatim from aggregate()'s old "sampling" branch: the
    # ``inner`` pop and the atom-clamped ``sample_size`` mutate ctx.params
    # in place, exactly as the dispatch layer always has.
    params = ctx.params
    inner = resolve_instance_method(params.pop("inner", "agglomerative"))
    if ctx.atoms is not None:
        if params.get("sample_size") is not None:
            # The caller sized the sample against the original n;
            # collapsing may leave fewer atoms than that, which
            # simply means "sample every atom".
            params["sample_size"] = min(int(params["sample_size"]), ctx.atoms.n_atoms)
        return ctx.atoms.expand(
            sampling(
                ctx.atoms.matrix,
                inner,
                p=ctx.p,
                weights=ctx.atoms.weights.astype(np.float64),
                n_jobs=ctx.n_jobs,
                **params,
            )
        )
    data = ctx.matrix if ctx.matrix is not None else ctx.instance
    if data is None:  # unreachable: inputs is always one of the three forms
        raise ValueError("method 'sampling' needs clusterings or an instance")
    return sampling(data, inner, p=ctx.p, n_jobs=ctx.n_jobs, **params)


@register_method(
    "sampling",
    kind="matrix",
    stochastic=True,
    supports_weights=True,
    exclude=("p", "weights", "n_jobs", "return_details"),
    defaults={"inner": "agglomerative"},
    solver=_solve_sampling,
)
def sampling(
    data: np.ndarray | CorrelationInstance,
    inner: InnerAlgorithm,
    sample_size: int | None = None,
    p: float = 0.5,
    rng: np.random.Generator | int | None = None,
    max_singleton_subproblem: int = 4000,
    return_details: bool = False,
    weights: np.ndarray | None = None,
    n_jobs: int | None = 1,
) -> Clustering | tuple[Clustering, SamplingDetails]:
    """Run the SAMPLING meta-algorithm.

    Parameters
    ----------
    data:
        ``(n, m)`` label matrix (scalable path) or a full
        :class:`CorrelationInstance` (testing convenience).
    inner:
        The aggregation algorithm run on sub-instances, e.g.
        ``lambda inst: agglomerative(inst)`` or ``furthest``.
    sample_size:
        Sample size; defaults to :func:`default_sample_size`.  An
        explicit value larger than ``n`` (or, on weighted inputs, larger
        than the number of rows with non-zero weight) raises a
        ``ValueError`` naming both quantities.
    p:
        Missing-value coin-flip probability (label-matrix path only).
    rng:
        Seed or generator for the uniform sample.
    max_singleton_subproblem:
        Singleton sets larger than this are handled by a recursive
        SAMPLING call instead of a quadratic sub-instance.
    return_details:
        Also return :class:`SamplingDetails`.
    weights:
        Per-row multiplicities for duplicate-collapsed (atom) matrices:
        the sample is drawn proportionally to multiplicity (i.e. uniform
        over the underlying objects) and all cluster masses are weighted.
        Label-matrix path only.
    n_jobs:
        Worker count for the phase-2 assignment loop, here and in the
        recursive singleton call (``None`` consults ``REPRO_JOBS``; see
        :func:`repro.parallel.resolve_jobs`).  Any value is bit-identical
        to the serial run.
    """
    if isinstance(data, CorrelationInstance):
        if weights is not None:
            raise ValueError("weights are only supported on the label-matrix path")
        matrix = None
        instance = data
        n = instance.n
    else:
        matrix = np.asarray(data)
        validate_label_matrix(matrix)
        instance = None
        n = matrix.shape[0]
        if weights is not None:
            weights = check_weights(weights, n)
            if np.any(weights < 0.0):
                raise ValueError("weights must be non-negative multiplicities")
    generator = np.random.default_rng(rng)
    if sample_size is None:
        size = default_sample_size(n)
    else:
        size = int(sample_size)
        if size > n:
            raise ValueError(
                f"sample_size={size} exceeds the number of objects n={n}; "
                "pass sample_size <= n (or None for the paper default)"
            )
    if size < 1:
        raise ValueError(f"sample_size must be at least 1, got {size}")
    if weights is not None:
        # Without replacement, only rows with non-zero weight are drawable;
        # numpy's own message ("Fewer non-zero entries in p than size") names
        # neither the size nor the support, so resolve the conflict here.
        support = int(np.count_nonzero(weights))
        if support == 0:
            raise ValueError("weights are all zero; no row can be sampled")
        if size > support:
            if sample_size is not None:
                raise ValueError(
                    f"sample_size={size} exceeds the {support} rows with "
                    f"non-zero weight (n={n}); zero-weight rows cannot be "
                    "drawn without replacement"
                )
            size = support

    # The phase-1 and phase-3 sub-instances exist for one inner solve each:
    # a registered inner that takes X as its working matrix gets X itself.
    hand_over = consumes_x(inner)
    labels = np.full(n, -1, dtype=np.int64)
    details = SamplingDetails(
        sample_indices=np.empty(0, dtype=np.int64),
        sample_clusters=0,
        assigned_to_clusters=0,
        leftover_singletons=0,
        recursed=False,
    )

    # ------------------------------------------------------------------
    # Phase 1: cluster the sample with the inner algorithm.
    # ------------------------------------------------------------------
    with span("sampling.phase1", n=n, sample=size) as phase1_span:
        if weights is not None:
            probabilities = weights / weights.sum()
            sample = np.sort(generator.choice(n, size=size, replace=False, p=probabilities))
        else:
            sample = np.sort(generator.choice(n, size=size, replace=False))
        details.sample_indices = sample
        if matrix is not None:
            sub = CorrelationInstance.from_label_matrix(
                matrix[sample],
                p=p,
                weights=None if weights is None else weights[sample],
            )
        else:
            sub = instance.subinstance(sample)
        if hand_over:
            sub.backend.hand_over()
        sample_clustering = inner(sub)
        details.sample_clusters = sample_clustering.k
        labels[sample] = sample_clustering.labels
        phase1_span.set(clusters=sample_clustering.k)

    # ------------------------------------------------------------------
    # Phase 2: assign every non-sampled object to the cheapest cluster.
    # ------------------------------------------------------------------
    unsampled = np.ones(n, dtype=bool)
    unsampled[sample] = False
    rest = np.flatnonzero(unsampled)
    with span("sampling.phase2", rest=int(rest.size)):
        if rest.size:
            from ..parallel.workers import ASSIGN_BLOCK, parallel_assign

            if matrix is not None:
                tables = ClusterCountTables(
                    matrix,
                    sample,
                    sample_clustering.labels,
                    p=p,
                    member_weights=None if weights is None else weights[sample],
                )
                labels[rest] = parallel_assign(tables, rest, n_jobs=n_jobs)
            else:
                backend = instance.backend
                sizes = sample_clustering.sizes().astype(np.float64)
                for start in range(0, rest.size, ASSIGN_BLOCK):
                    block = rest[start : start + ASSIGN_BLOCK]
                    # O(|block| * |sample|) gather — the lazy backend computes
                    # it straight from the labels, never touching full rows.
                    rows = backend.gather_block(block, sample).astype(np.float64, copy=False)
                    mass = np.zeros((block.size, sample_clustering.k), dtype=np.float64)
                    for cluster, members in enumerate(sample_clustering.clusters()):
                        mass[:, cluster] = rows[:, members].sum(axis=1)
                    scores = 2.0 * mass - sizes[None, :]
                    best = np.argmin(scores, axis=1)
                    chosen = best.astype(np.int64)
                    chosen[scores[np.arange(block.size), best] > 0.0] = -1
                    labels[block] = chosen

    # ------------------------------------------------------------------
    # Phase 3: collect all singletons and aggregate them among themselves.
    # ------------------------------------------------------------------
    # Cluster mass must be measured in expanded objects: on atom inputs a
    # weight-w atom alone in its cluster represents w co-clustered
    # duplicates, not a stray singleton to re-aggregate.
    with span("sampling.phase3") as phase3_span:
        row_weights = weights if matrix is not None else instance.weights
        attached = np.flatnonzero(labels >= 0)
        if row_weights is None:
            mass = np.bincount(labels[attached], minlength=sample_clustering.k)
        else:
            mass = np.bincount(
                labels[attached], weights=row_weights[attached], minlength=sample_clustering.k
            )
        singleton_clusters = np.flatnonzero(mass == 1)
        is_singleton = labels < 0
        if singleton_clusters.size:
            is_singleton |= np.isin(labels, singleton_clusters)
        singles = np.flatnonzero(is_singleton)
        attached_rest = rest[labels[rest] >= 0] if rest.size else rest
        if row_weights is None:
            details.assigned_to_clusters = int(attached_rest.size)
            details.leftover_singletons = int(singles.size)
        else:
            details.assigned_to_clusters = int(row_weights[attached_rest].sum())
            details.leftover_singletons = int(row_weights[singles].sum())
        phase3_span.set(singletons=int(singles.size))

        next_label = int(labels.max()) + 1 if np.any(labels >= 0) else 0
        if singles.size > 1:
            if singles.size > max_singleton_subproblem:
                details.recursed = True
                inc("sampling.recursions")
                phase3_span.set(recursed=True)
                inner_result = sampling(
                    matrix[singles] if matrix is not None else instance.subinstance(singles),
                    inner,
                    # The singleton set may be smaller than the sample that
                    # produced it; clamp so the explicit-size validation
                    # above never trips on the internal recursion.
                    sample_size=min(size, int(singles.size)),
                    p=p,
                    rng=generator,
                    max_singleton_subproblem=max_singleton_subproblem,
                    weights=None if weights is None or matrix is None else weights[singles],
                    n_jobs=n_jobs,
                )
                labels[singles] = next_label + inner_result.labels
            else:
                if matrix is not None:
                    single_instance = CorrelationInstance.from_label_matrix(
                        matrix[singles],
                        p=p,
                        weights=None if weights is None else weights[singles],
                    )
                else:
                    single_instance = instance.subinstance(singles)
                if hand_over:
                    single_instance.backend.hand_over()
                regrouped = inner(single_instance)
                labels[singles] = next_label + regrouped.labels.astype(np.int64)
        elif singles.size == 1:
            labels[singles] = next_label

    result = Clustering(labels)
    if return_details:
        return result, details
    return result
