"""The benchmark's workloads: seeded inputs and the operation each one times.

Every workload is closed-loop: one client in one process sends the next
operation only after the previous one returned.  The program under test
receives only the generated label matrix and the method arguments.

A round of operations is a list of *steps*, each one operation returning
an :class:`Outcome`.  An ``aggregate`` workload's step is the public
``aggregate()`` call, one per method rng drawn from the seed; its traced
form replays that call as the five public calls ``aggregate()`` makes,
each inside a ``bench.*`` span, so the library's own spans nest under the
layer that caused them.  A ``stream`` workload has one step per label
column, all on one fresh :class:`StreamingAggregator`.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np

from repro import Clustering, CorrelationInstance, StreamingAggregator, aggregate
from repro.core.distance import total_disagreement
from repro.core.labels import validate_label_matrix
from repro.datasets import generate_mushrooms, generate_votes
from repro.obs import span
from repro.registry import SolveContext, get_method

#: Coin-flip probability of every workload: ``aggregate()``'s default.
P = 0.5
#: Rows of the full generated Mushrooms dataset (the paper's Table 3).
MUSHROOMS_ROWS = 8124


class Outcome(NamedTuple):
    """What one step returned, as the user sees it."""

    clustering: Clustering
    disagreements: float
    lower_bound: float | None
    #: How many leading label columns the consensus aggregates.
    columns: int


Step = Callable[[], Outcome]


def planted(n: int, m: int, seed: int, k: int = 10, noise: float = 0.15) -> np.ndarray:
    """Planted-cluster inputs: each clustering is a ground truth plus noise.

    The same construction as ``benchmarks/bench_backend.py``: uniform
    random labels would make every pair distance about (k-1)/k and turn
    BALLS into n singletons.
    """
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, k, size=n)
    matrix = np.repeat(truth[:, None], m, axis=1)
    flips = rng.random((n, m)) < noise
    matrix[flips] = rng.integers(0, k, size=int(flips.sum()))
    return matrix.astype(np.int32)


@dataclass(frozen=True)
class Workload:
    """One named workload: input size, generator and operation."""

    name: str
    source: str  # "mushrooms", "votes" or "planted"
    n: int
    smoke_n: int
    kind: str = "aggregate"  # or "stream"
    method: str = "agglomerative"
    m: int = 0  # planted inputs only; the dataset generators fix their own m
    n_jobs: int = 1
    seeded: bool = False  # pass the method an rng drawn from the seed
    #: Operations per round, each with its own method rng (``draws * seed
    #: + i``); a round of one passes ``rng=seed``.
    draws: int = 1
    backend: str = "auto"

    def inputs(self, seed: int, smoke: bool) -> np.ndarray:
        n = self.smoke_n if smoke else self.n
        if self.source == "mushrooms":
            # Rows drawn by the seed from the one full Table 3 dataset: a
            # new seed is a new sample of the same population, not a new
            # population, so D(C) and the merge work stay comparable.
            rows = np.random.default_rng(seed).choice(MUSHROOMS_ROWS, size=n, replace=False)
            return generate_mushrooms(rng=0).data[rows]
        if self.source == "votes":
            return generate_votes(n=n, rng=seed).data
        return planted(n, self.m, seed)

    def steps(self, matrix: np.ndarray, seed: int, traced: bool) -> list[Step]:
        """The steps of one operation on ``matrix``, untraced or decomposed."""
        if self.kind == "stream":
            return _stream_steps(matrix, seed)
        args = (matrix, self.method, self.n_jobs, self.backend)
        draws = [
            {"rng": self.draws * seed + draw} if self.seeded else {} for draw in range(self.draws)
        ]
        call = _replay if traced else _aggregate
        return [lambda params=params: call(*args, dict(params)) for params in draws]


def _aggregate(
    matrix: np.ndarray, method: str, n_jobs: int, backend: str, params: dict[str, Any]
) -> Outcome:
    result = aggregate(matrix, method=method, n_jobs=n_jobs, backend=backend, **params)
    return Outcome(
        result.clustering, result.disagreements, result.disagreement_lower_bound, matrix.shape[1]
    )


def _replay(
    matrix: np.ndarray, method: str, n_jobs: int, backend: str, params: dict[str, Any]
) -> Outcome:
    """``aggregate(matrix, method=...)`` as its public calls, one span each."""
    spec = get_method(method)
    with span("bench.validate"):
        validate_label_matrix(matrix)
    instance = None
    if spec.kind == "instance" or spec.needs_instance:
        with span("bench.build"):
            instance = CorrelationInstance.from_label_matrix(
                matrix, p=P, n_jobs=n_jobs, backend=backend
            )
    with span("bench.solve"):
        if spec.kind == "instance":
            clustering = spec.func(instance, **params)
        else:
            context = SolveContext(
                matrix=matrix,
                instance=instance,
                atoms=None,
                p=P,
                n_jobs=n_jobs,
                backend=backend,
                params=params,
            )
            clustering = spec.solver(context)
    with span("bench.score"):
        disagreements = total_disagreement(matrix, clustering, p=P)
    lower_bound = None
    if instance is not None:
        with span("bench.lower_bound"):
            lower_bound = matrix.shape[1] * instance.lower_bound()
    return Outcome(clustering, disagreements, lower_bound, matrix.shape[1])


def _stream_steps(matrix: np.ndarray, seed: int) -> list[Step]:
    """One replay of ``matrix``'s columns through a fresh streaming engine.

    The spans cost two clock reads when no trace is active, so the timed
    and the traced replay run the same code.
    """
    engine = StreamingAggregator(matrix.shape[0], p=P, rng=seed)

    def step(column: int) -> Outcome:
        with span("bench.observe"):
            engine.observe(matrix[:, column])
        with span("bench.consensus"):
            consensus = engine.consensus
        with span("bench.score"):
            disagreements = engine.disagreements()
        return Outcome(consensus, disagreements, None, column + 1)

    return [lambda column=column: step(column) for column in range(matrix.shape[1])]


#: The workloads, by name.  Why each was chosen is in BENCHMARK.json and
#: README.md.  Operations last one to two seconds (the stream's a tenth),
#: so a run holds eight or more, and the calibration task timed between
#: them follows the machine's speed closely.  That is also why the lazy workload asks
#: for the lazy backend rather than exceeding the 10000-row auto threshold:
#: above it, one operation takes six seconds or more.  At 8192 rows the
#: reduction grid has 16 row blocks, twice what the lazy backend's LRU
#: cache holds, so every scan recomputes every block, as at large n.  With
#: fewer blocks (9 at 6000 rows) the cache's state after the BALLS sweep
#: decides how many blocks the lower-bound scan recomputes, and operation
#: times differ by a third between seeds.  SAMPLING's time grows with the
#: clusters its sample happens to form (25 to 45) and the singletons left
#: over, so its rounds take eight draws and a run's median is not one
#: draw's time.  At 400000 rows some 5500 to 6700 singletons are left,
#: always above the 4000 at which phase 3 recurses rather than solving
#: them as one quadratic instance; nearer that threshold (250000 rows)
#: one draw took a third of the time of the next.
WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("mushrooms-agglo", "mushrooms", n=2000, smoke_n=400),
        Workload(
            "planted8k-balls-lazy",
            "planted",
            n=8192,
            smoke_n=600,
            method="balls",
            m=2,
            backend="lazy",
        ),
        Workload(
            "planted400k-sampling",
            "planted",
            n=400_000,
            smoke_n=600,
            method="sampling",
            m=5,
            seeded=True,
            draws=8,
        ),
        Workload("votes3k-stream", "votes", n=3000, smoke_n=300, kind="stream"),
        Workload(
            "mushrooms2500-portfolio",
            "mushrooms",
            n=2500,
            smoke_n=300,
            method="portfolio",
            n_jobs=2,
            seeded=True,
        ),
    )
}
