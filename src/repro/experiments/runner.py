"""Shared experiment routines used by the benchmark harness.

The paper's Tables 2 and 3 share a row structure (class labels, lower
bound, the five aggregation algorithms, ROCK and LIMBO at selected k);
:func:`categorical_table` produces those rows for any categorical dataset.
:func:`kmeans_sweep` builds the k-means ``k = 2..10`` label matrix of the
Figure 4 / Figure 5 experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..baselines import limbo, rock
from ..core.aggregate import aggregate
from ..core.distance import total_disagreement
from ..core.instance import CorrelationInstance
from ..core.labels import as_label_matrix
from ..core.partition import Clustering
from ..cluster.kmeans import kmeans
from ..datasets.categorical import CategoricalDataset
from ..metrics import classification_error
from ..obs.trace import span

__all__ = ["TableRow", "categorical_table", "kmeans_sweep", "disagreement_cost"]


@dataclass
class TableRow:
    """One row of a Table 2/3-style report."""

    label: str
    k: int | None
    classification_error_pct: float | None
    disagreement_cost: float
    seconds: float


def disagreement_cost(dataset: CategoricalDataset, clustering: Clustering, p: float = 0.5) -> float:
    """The paper's E_D column: the correlation cost ``d(C) = D(C) / m``."""
    return total_disagreement(dataset.label_matrix(), clustering, p=p) / dataset.m


def categorical_table(
    dataset: CategoricalDataset,
    methods: tuple[str, ...] = ("best", "agglomerative", "furthest", "balls", "local-search"),
    balls_alpha: float = 0.4,
    rock_params: tuple[tuple[int, float], ...] = (),
    limbo_params: tuple[tuple[int, float], ...] = (),
    rock_sample: int | None = None,
    instance: CorrelationInstance | None = None,
    n_jobs: int | None = None,
) -> list[TableRow]:
    """Produce the rows of a Table 2/3-style comparison on one dataset.

    ``rock_params`` / ``limbo_params`` are ``(k, theta_or_phi)`` pairs; they
    match the parameter settings the paper cites from the original ROCK and
    LIMBO papers.  ``n_jobs`` is handed to every per-method
    :func:`~repro.aggregate` call (``None`` consults ``REPRO_JOBS``); the
    rows are bit-identical for any worker count.
    """
    matrix = dataset.label_matrix()
    rows: list[TableRow] = []

    if dataset.classes is not None:
        class_clustering = Clustering(dataset.classes)
        rows.append(
            TableRow(
                "Class labels",
                class_clustering.k,
                0.0,
                disagreement_cost(dataset, class_clustering),
                0.0,
            )
        )

    if instance is None:
        instance = CorrelationInstance.from_label_matrix(matrix)
    rows.append(TableRow("Lower bound", None, None, instance.lower_bound(), 0.0))

    for method in methods:
        params = {"alpha": balls_alpha} if method == "balls" else {}
        label = f"BALLS(a={balls_alpha})" if method == "balls" else method.upper()
        with span("experiments.method", label=label) as method_span:
            result = aggregate(instance if method not in ("best", "sampling") else matrix,
                               method=method, compute_lower_bound=False, n_jobs=n_jobs, **params)
        elapsed = method_span.seconds
        error = (
            classification_error(result.clustering, dataset.classes) * 100.0
            if dataset.classes is not None
            else None
        )
        rows.append(
            TableRow(label, result.k, error, disagreement_cost(dataset, result.clustering), elapsed)
        )

    for k, theta in rock_params:
        with span("experiments.rock", k=k, theta=theta) as rock_span:
            clustering = rock(matrix, k=k, theta=theta, sample_size=rock_sample, rng=0)
        elapsed = rock_span.seconds
        error = (
            classification_error(clustering, dataset.classes) * 100.0
            if dataset.classes is not None
            else None
        )
        rows.append(
            TableRow(
                f"ROCK(k={k},t={theta})",
                clustering.k,
                error,
                disagreement_cost(dataset, clustering),
                elapsed,
            )
        )

    for k, phi in limbo_params:
        with span("experiments.limbo", k=k, phi=phi) as limbo_span:
            clustering = limbo(matrix, k=k, phi=phi)
        elapsed = limbo_span.seconds
        error = (
            classification_error(clustering, dataset.classes) * 100.0
            if dataset.classes is not None
            else None
        )
        rows.append(
            TableRow(
                f"LIMBO(k={k},phi={phi})",
                clustering.k,
                error,
                disagreement_cost(dataset, clustering),
                elapsed,
            )
        )
    return rows


def kmeans_sweep(
    points: np.ndarray,
    k_range: range = range(2, 11),
    n_init: int = 4,
    rng: np.random.Generator | int | None = 0,
) -> np.ndarray:
    """The Figure 4/5 input: k-means labels for each ``k`` as a label matrix."""
    if isinstance(rng, (int, np.integer)):
        # Integer seeds keep the historical per-k derived seeds (rng + k) so
        # existing experiment tables reproduce bit-identically.
        runs = [kmeans(points, k, n_init=n_init, rng=int(rng) + k) for k in k_range]
    else:
        generator = np.random.default_rng(rng)
        runs = [kmeans(points, k, n_init=n_init, rng=generator) for k in k_range]
    return as_label_matrix([run.labels for run in runs])
