"""The top-level clustering-aggregation API.

:func:`aggregate` is the one-call entry point of the library: give it the
input clusterings (as :class:`Clustering` objects or a label matrix) and an
algorithm name, get back an :class:`AggregationResult` carrying the
consensus clustering together with its objective value, the pairwise lower
bound, and timing.

    >>> from repro import aggregate, Clustering
    >>> inputs = [Clustering([0, 0, 1, 1, 2, 2]),
    ...           Clustering([0, 1, 0, 1, 2, 3]),
    ...           Clustering([0, 1, 0, 1, 2, 2])]
    >>> result = aggregate(inputs, method="agglomerative")
    >>> result.clustering.k
    3
    >>> result.disagreements
    5.0

(The doctest above is the paper's Figure 1 / Figure 2 running example —
five disagreements is optimal.)
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..obs.trace import span
from ..registry import SolveContext, aggregate_method_names, get_method, stochastic_method_names
from .atoms import _atom_lower_bound, collapse_duplicates
from .distance import total_disagreement
from .instance import CorrelationInstance
from .labels import as_label_matrix, validate_label_matrix
from .partition import Clustering

__all__ = [
    "aggregate",
    "AggregationResult",
    "available_methods",
    "STOCHASTIC_METHODS",
]


def available_methods() -> tuple[str, ...]:
    """Names accepted by :func:`aggregate`'s ``method`` parameter.

    Derived from :mod:`repro.registry` — the CLI, the serve schema
    validation, and the error messages below all read the same source,
    so a new registration can never drift out of any of them.
    """
    return aggregate_method_names()


def __getattr__(name: str) -> Any:
    # STOCHASTIC_METHODS is derived from the registry, which loads its
    # built-in modules lazily; computing it at import time would recurse
    # into this package mid-initialization, so it is a PEP 562 attribute.
    if name == "STOCHASTIC_METHODS":
        return stochastic_method_names()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class AggregationResult:
    """Outcome of one :func:`aggregate` call.

    Attributes
    ----------
    clustering:
        The consensus clustering.
    method:
        Algorithm name that produced it.
    disagreements:
        The aggregation objective ``D(C)`` (expected value under the
        coin-flip model when inputs have missing entries); ``None`` when
        the inputs were a raw correlation instance of unknown origin.
    cost:
        The correlation-clustering cost ``d(C)`` (``disagreements / m``).
    lower_bound:
        Pairwise lower bound on ``d(C)`` — computed whenever a
        :class:`CorrelationInstance` was built or given, dense or lazy
        (``None`` when ``compute_lower_bound=False`` or the method ran
        without an instance, as on the sampling and pivot paths).
    disagreement_lower_bound:
        Same bound on the ``D(C)`` scale, when ``m`` is known.
    elapsed_seconds:
        Wall-clock time of the algorithm itself (instance construction is
        reported separately in ``build_seconds``).
    """

    clustering: Clustering
    method: str
    disagreements: float | None
    cost: float | None
    lower_bound: float | None
    disagreement_lower_bound: float | None
    elapsed_seconds: float
    build_seconds: float
    params: dict[str, Any] = field(default_factory=dict)

    @property
    def k(self) -> int:
        """Number of clusters in the consensus."""
        return self.clustering.k

    def summary(self) -> str:
        """One-line human-readable report."""
        parts = [f"method={self.method}", f"k={self.k}"]
        if self.disagreements is not None:
            parts.append(f"D(C)={self.disagreements:.1f}")
        if self.disagreement_lower_bound is not None:
            parts.append(f"LB={self.disagreement_lower_bound:.1f}")
        parts.append(f"time={self.elapsed_seconds:.3f}s")
        return "  ".join(parts)


def aggregate(
    inputs: Sequence[Clustering] | np.ndarray | CorrelationInstance,
    method: str = "agglomerative",
    p: float = 0.5,
    compute_lower_bound: bool = True,
    collapse: bool = False,
    n_jobs: int | None = 1,
    backend: str = "auto",
    **params: Any,
) -> AggregationResult:
    """Aggregate input clusterings into a consensus clustering.

    Parameters
    ----------
    inputs:
        A sequence of :class:`Clustering` objects, an ``(n, m)`` label
        matrix (``-1`` marks missing entries), or a prebuilt
        :class:`CorrelationInstance` (for raw correlation clustering).
    method:
        One of :func:`available_methods`: ``"best"``, ``"balls"``,
        ``"agglomerative"``, ``"furthest"``, ``"local-search"``,
        ``"annealing"`` (Filkov-Skiena simulated annealing, §6),
        ``"genetic"`` (Cristofor-Simovici GA, §6), ``"pivot"``
        (CC-PIVOT/QwickCluster, expected 3-approx straight off the label
        matrix — no ``(n, n)`` structure on the label path), ``"cmsy"``
        (the 2.06-approx LP rounding, pivot-tier above
        :data:`repro.algorithms.pivot.DEFAULT_LP_THRESHOLD` objects),
        ``"sampling"``,
        ``"streaming"`` (replay the columns through a
        :class:`~repro.stream.engine.StreamingAggregator`),
        ``"portfolio"`` (run several algorithms concurrently and keep the
        argmin cost — :func:`repro.parallel.portfolio`; per-member
        records land in ``result.params["portfolio"]``), ``"sharded"``
        (divide-and-merge over object shards —
        :func:`repro.shard.shard_aggregate`, accepting ``n_shards=``,
        ``partition=``, ``merge=`` etc.; the per-shard and merge records
        land in ``result.params["shard"]``), or ``"exact"``.
    p:
        Missing-value coin-flip probability (Section 2 of the paper).
    compute_lower_bound:
        Whether to evaluate the pairwise lower bound.  It runs right
        after the build and before the solve, for every method, since
        AGGLOMERATIVE then takes the ``X`` built here as its working
        matrix.  A dense instance reads its matrix once, with no
        temporary of its size.  A lazy instance evaluates the bound over
        its distinct label rows, in O(A²·m) for A of them, when that
        gives the bits of the blocked pass: coin-flip ``p`` a multiple of
        2⁻⁸, ``m`` a power of two, integer labels (see
        :func:`repro.core.kernels._exact_reductions`).  Otherwise it
        recomputes every row block, an O(n²·m) pass.  With
        ``collapse=True`` the pairs inside each atom are added back.
        Skipped only when the method builds no instance (e.g.
        ``"sampling"``, ``"pivot"``).  A given
        :class:`CorrelationInstance` is only read, never handed over.
    collapse:
        Collapse duplicate label-matrix rows into weighted atoms before
        clustering (exact for the objective — some optimal solution keeps
        duplicates together), then expand the consensus back.  A large
        speedup on categorical data with repeated rows; supported by all
        methods except ``"best"`` (which needs no speedup).
    n_jobs:
        Worker count for the fork-pool parallel backend
        (:mod:`repro.parallel`): portfolio members, shard solves and
        SAMPLING's assignment loop honour it; the dense build is serial.
        ``None`` consults ``REPRO_JOBS``; every value is bit-identical to
        the serial run, and anything but ``None`` or an integer raises a
        ValueError for every method.
    backend:
        Pair-distance storage for instances built here: ``"dense"``
        materializes the ``(n, n)`` matrix, ``"lazy"`` computes row
        blocks on demand from the label matrix (O(n * m) memory, bitwise
        identical results), and ``"auto"`` (default) picks lazy above
        :func:`repro.core.backend.lazy_threshold` objects
        (``REPRO_LAZY_THRESHOLD``, default 10000).  Ignored when
        ``inputs`` is already a :class:`CorrelationInstance`.
    **params:
        Forwarded to the algorithm (e.g. ``alpha=0.4`` for BALLS,
        ``inner="furthest"`` and ``sample_size=1000`` for SAMPLING,
        ``initial=...`` for LOCALSEARCH).
    """
    spec = get_method(method)  # raises the canonical "unknown method" ValueError
    spec.validate_params(params)
    from ..parallel.workers import resolve_jobs

    resolve_jobs(n_jobs)  # one n_jobs check, whichever method uses it

    matrix: np.ndarray | None = None
    instance: CorrelationInstance | None = None
    label_matrix_method = getattr(inputs, "label_matrix", None)
    if isinstance(inputs, CorrelationInstance):
        instance = inputs
    elif isinstance(inputs, np.ndarray):
        validate_label_matrix(inputs)
        matrix = inputs
    elif callable(label_matrix_method):
        # Duck-typed CategoricalDataset: its attributes are the clusterings.
        matrix = label_matrix_method()
        validate_label_matrix(matrix)
    else:
        matrix = as_label_matrix(inputs)

    atoms = None
    with span("aggregate.build", method=method) as build_span:
        if collapse:
            if matrix is None or not spec.supports_collapse:
                raise ValueError(
                    "collapse=True needs a label matrix and is not meaningful for "
                    f"method {method!r}"
                )
            atoms = collapse_duplicates(matrix)
            build_span.set(atoms=atoms.n_atoms, objects=atoms.n_objects)
        if instance is None and (spec.kind == "instance" or spec.needs_instance):
            if atoms is not None:
                instance = CorrelationInstance.from_label_matrix(
                    atoms.matrix, p=p, weights=atoms.weights, backend=backend
                )
            else:
                instance = CorrelationInstance.from_label_matrix(matrix, p=p, backend=backend)
            if spec.consumes_x:
                # Built here for this one solve, whose last read takes X as
                # its working matrix: hand X over instead of a copy.
                instance.backend.hand_over()
    build_seconds = build_span.seconds

    # The bound reads X, so it comes before a solve that may take X over.
    lower_bound: float | None = None
    disagreement_lb: float | None = None
    if compute_lower_bound and instance is not None:
        with span("aggregate.lower_bound", method=method):
            if atoms is None:
                lower_bound = instance.lower_bound()
            else:
                # The atom instance leaves out the pairs inside each atom,
                # which are not free for rows with missing labels.
                lower_bound = _atom_lower_bound(instance.backend, atoms, p)
        m = instance.m if instance.m is not None else (matrix.shape[1] if matrix is not None else None)
        if m is not None:
            disagreement_lb = m * lower_bound

    with span("aggregate.solve", method=method) as solve_span:
        if spec.kind == "label-fast" and instance is None:
            # Backend-free fast path: pivot/cmsy consume the label matrix
            # directly, so nothing quadratic in n is ever allocated.
            if atoms is not None:
                clustering = atoms.expand(
                    spec.func(
                        atoms.matrix, p=p, weights=atoms.weights.astype(np.float64), **params
                    )
                )
            else:
                clustering = spec.func(matrix, p=p, **params)
        elif spec.kind in ("instance", "label-fast"):
            if instance is None:
                raise ValueError(f"method {method!r} requires a distance matrix")
            clustering = spec.func(instance, **params)
            if atoms is not None:
                clustering = atoms.expand(clustering)
        else:
            # Matrix-kind methods own their whole solve through the solver
            # adapter registered next to the algorithm (sampling, best,
            # portfolio, sharded, streaming).  The adapter may write report
            # entries (e.g. params["shard"]) back into the shared dict.
            solver = spec.solver
            if solver is None:
                raise ValueError(f"method {method!r} has no registered solver")
            context = SolveContext(
                matrix=matrix,
                instance=instance,
                atoms=atoms,
                p=p,
                n_jobs=n_jobs,
                backend=backend,
                params=params,
            )
            clustering = solver(context)
        solve_span.set(k=clustering.k)
    elapsed = solve_span.seconds

    disagreements: float | None = None
    cost: float | None = None
    with span("aggregate.score", method=method):
        if matrix is not None:
            disagreements = total_disagreement(matrix, clustering, p=p)
            cost = disagreements / matrix.shape[1]
        elif instance is not None:
            cost, disagreements = instance._score(clustering)

    return AggregationResult(
        clustering=clustering,
        method=method,
        disagreements=disagreements,
        cost=cost,
        lower_bound=lower_bound,
        disagreement_lower_bound=disagreement_lb,
        elapsed_seconds=elapsed,
        build_seconds=build_seconds,
        params=dict(params),
    )
