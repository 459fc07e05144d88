"""Portfolio aggregation: run several algorithms against one shared instance.

The paper's experiments (§7) never commit to a single heuristic — every
table runs BALLS, AGGLOMERATIVE, FURTHEST and LOCALSEARCH and reports the
best objective.  :func:`portfolio` makes that pattern a first-class,
parallel primitive: forked workers inherit the one instance (dense
``X`` or lazy label matrix) without copying it, every selected algorithm
runs concurrently against it, and the argmin-cost clustering comes back
together with a per-algorithm :class:`AlgorithmRun` record (cost,
cluster count, wall time) for observability.

Determinism: stochastic portfolio members get independent child
generators spawned from the single ``rng`` argument, one per method
*position*, so the result is bit-identical for any worker count —
including the in-process serial path taken when one worker is requested.
Ties on cost resolve to the earliest method in the requested order.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core.instance import CorrelationInstance
from ..core.labels import as_label_matrix
from ..core.partition import Clustering
from ..obs.metrics import inc, observe, set_gauge
from ..obs.trace import span
from ..registry import (
    SolveContext,
    is_stochastic,
    register_method,
    resolve_instance_method,
)
from .workers import fan_out

__all__ = ["DEFAULT_PORTFOLIO", "AlgorithmRun", "PortfolioResult", "portfolio"]

#: The paper's §7 line-up: every deterministic heuristic plus LOCALSEARCH.
DEFAULT_PORTFOLIO = ("balls", "agglomerative", "furthest", "local-search")

#: One member: method name, extra kwargs, child generator (stochastic only).
_Spec = tuple[str, dict[str, Any], np.random.Generator | None]


@dataclass(frozen=True)
class AlgorithmRun:
    """Observability record for one portfolio member."""

    method: str
    cost: float
    k: int
    elapsed_seconds: float

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly representation (CLI ``--json`` output)."""
        return {
            "method": self.method,
            "cost": self.cost,
            "k": self.k,
            "elapsed_seconds": self.elapsed_seconds,
        }


@dataclass(frozen=True)
class PortfolioResult:
    """Outcome of one :func:`portfolio` call.

    ``best`` is the argmin-cost clustering over ``runs`` (ties break to
    the earliest requested method); ``runs`` preserves the requested
    method order regardless of completion order; ``jobs`` is the resolved
    worker count actually used.
    """

    best: Clustering
    best_method: str
    cost: float
    runs: tuple[AlgorithmRun, ...]
    jobs: int
    elapsed_seconds: float

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly representation (clustering as a label list)."""
        return {
            "best_method": self.best_method,
            "cost": self.cost,
            "k": self.best.k,
            "jobs": self.jobs,
            "elapsed_seconds": self.elapsed_seconds,
            "runs": [run.to_dict() for run in self.runs],
        }

    def summary(self) -> str:
        """One-line human-readable report."""
        losers = ", ".join(
            f"{run.method}={run.cost:.2f}" for run in self.runs if run.method != self.best_method
        )
        line = f"portfolio winner={self.best_method}  d(C)={self.cost:.2f}  k={self.best.k}"
        if losers:
            line += f"  ({losers})"
        return line


def _method_specs(
    methods: Sequence[str],
    params: dict[str, dict[str, Any]] | None,
    rng: np.random.Generator | int | None,
) -> list[_Spec]:
    """Validate methods and attach per-position kwargs and child generators."""
    if not methods:
        raise ValueError("portfolio needs at least one method")
    params = dict(params or {})
    unknown = set(params) - set(methods)
    if unknown:
        raise ValueError(f"params given for methods not in the portfolio: {sorted(unknown)}")
    for name in methods:
        resolve_instance_method(name)  # raises on non-instance methods ("best", ...)
    # One independent child generator per *position* (not per name), spawned
    # before any execution — the seeds cannot depend on scheduling order.
    root = np.random.default_rng(rng)
    children = root.spawn(len(methods))
    return [
        (name, dict(params.get(name, {})), children[i] if is_stochastic(name) else None)
        for i, name in enumerate(methods)
    ]


def _execute(
    state: tuple[CorrelationInstance, list[_Spec]], index: int
) -> tuple[np.ndarray, float, int, float]:
    """Run portfolio member ``index``; a :func:`fan_out` task."""
    instance, specs = state
    name, kwargs, child_rng = specs[index]
    algorithm = resolve_instance_method(name)
    if child_rng is not None:
        kwargs = {"rng": child_rng, **kwargs}
    with span(f"member:{name}", method=name) as member_span:
        with span("solve") as solve_span:
            clustering = algorithm(instance, **kwargs)
        cost = instance.cost(clustering)
        member_span.set(cost=cost, k=clustering.k)
    observe("portfolio.member.cost", cost)
    observe("portfolio.member.seconds", solve_span.seconds)
    return clustering.labels, cost, clustering.k, solve_span.seconds


def _solve_portfolio(ctx: SolveContext) -> Clustering:
    # Relocated verbatim from aggregate()'s old "portfolio" branch: the
    # instance is always prebuilt (the spec declares needs_instance), and
    # the per-member records land in ctx.params["portfolio"].
    result = portfolio(ctx.instance, n_jobs=ctx.n_jobs, **ctx.params)
    clustering = result.best
    if ctx.atoms is not None:
        clustering = ctx.atoms.expand(clustering)
    ctx.params["portfolio"] = result.to_dict()
    return clustering


@register_method(
    "portfolio",
    kind="matrix",
    stochastic=True,
    supports_weights=True,
    needs_instance=True,
    exclude=("p", "n_jobs", "backend"),
    solver=_solve_portfolio,
)
def portfolio(
    inputs: Sequence[Clustering] | np.ndarray | CorrelationInstance,
    methods: Sequence[str] = DEFAULT_PORTFOLIO,
    p: float = 0.5,
    n_jobs: int | None = None,
    rng: np.random.Generator | int | None = None,
    params: dict[str, dict[str, Any]] | None = None,
    backend: str = "auto",
) -> PortfolioResult:
    """Run ``methods`` concurrently on one instance, return the argmin cost.

    Parameters
    ----------
    inputs:
        Input clusterings, an ``(n, m)`` label matrix, or a prebuilt
        :class:`CorrelationInstance`.  Label inputs are converted once
        and every portfolio member sees the same shared, read-only ``X``.
    methods:
        Instance-consuming algorithm names (see
        :func:`repro.registry.resolve_instance_method`); matrix-level methods
        like ``"sampling"`` or ``"best"`` are rejected.  A method may be
        listed more than once — each position draws its own child
        generator, so repeated stochastic entries act as independent
        restarts.
    p:
        Missing-value coin-flip probability for the instance build.
    n_jobs:
        Worker count; ``None`` consults ``REPRO_JOBS``, ``<= 0`` means all
        cores (see :func:`repro.parallel.resolve_jobs`).  Results are
        bit-identical for every value.
    rng:
        Root seed or generator for the stochastic members; one child
        generator is spawned per method position before anything runs, so
        the outcome never depends on scheduling.
    params:
        Optional per-method extra kwargs, e.g. ``{"balls": {"alpha": 0.4}}``.
    backend:
        Pair-distance backend for label inputs (``"auto"``, ``"dense"``
        or ``"lazy"``; see :func:`repro.core.backend.resolve_backend`).
        With the lazy backend the forked workers share the ``(n, m)``
        label matrix instead of an ``(n, n)`` matrix.  Ignored for
        prebuilt instances.
    """
    if isinstance(inputs, CorrelationInstance):
        instance = inputs
    else:
        matrix = inputs if isinstance(inputs, np.ndarray) else as_label_matrix(inputs)
        instance = CorrelationInstance.from_label_matrix(matrix, p=p, backend=backend)
    specs = _method_specs(methods, params, rng)

    with span("portfolio", n=instance.n, methods=[s[0] for s in specs]) as root:
        outcomes, jobs = fan_out(_execute, len(specs), (instance, specs), n_jobs)
        root.set(jobs=jobs)
    elapsed = root.seconds
    inc("portfolio.runs")
    set_gauge("portfolio.jobs", jobs)

    runs = tuple(
        AlgorithmRun(method=spec[0], cost=cost, k=k, elapsed_seconds=run_elapsed)
        for spec, (_, cost, k, run_elapsed) in zip(specs, outcomes)
    )
    best_index = min(range(len(runs)), key=lambda i: (runs[i].cost, i))
    best_labels = outcomes[best_index][0]
    root.set(winner=runs[best_index].method, cost=runs[best_index].cost)
    return PortfolioResult(
        best=Clustering(best_labels),
        best_method=runs[best_index].method,
        cost=runs[best_index].cost,
        runs=runs,
        jobs=jobs,
        elapsed_seconds=elapsed,
    )
