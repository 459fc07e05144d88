"""One workload in a fresh process: set up, then time or trace operations.

Started by ``python -m benchmarks.suite run`` with one JSON config
argument.  The worker generates its inputs, runs one warm-up operation on
the first rows and prints ``ready``.  A set-up-only worker (``setup_only``
in the config) exits there; otherwise the worker measures and prints its
result as one JSON line.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import sys
import traceback
from collections import defaultdict
from typing import Any

import numpy as np

from repro import Clustering
from repro.core.distance import total_disagreement
from repro.obs import collecting, get_registry, span, tracing

from .attribution import attribute
from .calibration import Calibration, scaled
from .workloads import P, WORKLOADS, Outcome, Step, Workload

#: Rows of the warm-up operation run during set-up.
WARMUP_ROWS = 512
#: Seconds of operations between two runs of the calibration task.
CALIBRATE_EVERY_S = 0.5
#: Metrics-registry counters reported per operation in the traced run.
COUNTERS = ("agglomerative.merges", "localsearch.moves", "stream.rebuilds")
#: Traced layer self times must add up to the operation's wall time within this share.
LAYER_SUM_TOLERANCE = 0.05
#: ``op_s.p90`` is reported only when at least ten samples lie beyond it.
P90_MIN_SAMPLES = 100


def _run_step(step: Step) -> tuple[Outcome | None, float]:
    try:
        with span("bench.op") as op_span:
            outcome = step()
    except Exception:  # a failed operation is counted and the run goes on
        traceback.print_exc()
        return None, op_span.seconds
    return outcome, op_span.seconds


def _check(matrix: np.ndarray, outcome: Outcome | None, reference: Outcome | None) -> bool:
    """The output checks of one operation; ``reference`` is the run's first."""
    if outcome is None:
        return False
    clustering = outcome.clustering
    if not isinstance(clustering, Clustering) or clustering.n != matrix.shape[0]:
        return False
    if clustering.labels.min() < 0:
        return False
    independent = total_disagreement(matrix[:, : outcome.columns], clustering, p=P)
    if not math.isclose(outcome.disagreements, independent, rel_tol=1e-9):
        return False
    if outcome.lower_bound is not None and outcome.disagreements < outcome.lower_bound:
        return False
    return reference is None or np.array_equal(clustering.labels, reference.clustering.labels)


def _identical(traced: Outcome | None, untraced: Outcome | None) -> bool:
    """Labels, D(C) and lower bound equal bit for bit."""
    return (
        traced is not None
        and untraced is not None
        and np.array_equal(traced.clustering.labels, untraced.clustering.labels)
        and traced.disagreements == untraced.disagreements
        and traced.lower_bound == untraced.lower_bound
    )


def measure(workload: Workload, matrix: np.ndarray, seed: int, seconds: float) -> dict[str, Any]:
    """Untraced operations, closed-loop, until ``seconds`` of work have run.

    The first round runs whole and is the reference of the later ones;
    a later round stops where the time runs out.  The calibration task
    runs first and then after every ``CALIBRATE_EVERY_S`` of operations;
    each operation's time is scaled by the tasks timed either side of it.
    The first operation is the first at full size and touches its memory
    for the first time (SAMPLING's ran 10-20% slower than the rest), so
    it is checked but left out of the times unless it is the only one.
    """
    setup_peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    calibration = Calibration()
    walls: list[tuple[float, int]] = []  # wall time, index of the calibration before it
    calibrations = [calibration.time()]
    attempted = failed = 0
    reference: list[Outcome | None] | None = None
    elapsed, since_calibration = calibrations[0], 0.0
    while reference is None or elapsed < seconds:
        outcomes: list[Outcome | None] = []
        for position, step in enumerate(workload.steps(matrix, seed, traced=False)):
            if reference is not None and elapsed >= seconds:
                break
            with span("bench.checked_op") as checked_span:
                outcome, wall = _run_step(step)
                if outcome is not None:
                    walls.append((wall, len(calibrations) - 1))
                failed += not _check(
                    matrix, outcome, None if reference is None else reference[position]
                )
            elapsed += checked_span.seconds
            since_calibration += checked_span.seconds
            outcomes.append(outcome)
            if since_calibration >= CALIBRATE_EVERY_S:
                calibrations.append(calibration.time())
                elapsed += calibrations[-1]
                since_calibration = 0.0
        attempted += len(outcomes)
        reference = reference or outcomes
    if since_calibration:
        calibrations.append(calibration.time())
    walls = walls[1:] or walls
    samples = [scaled(wall, calibrations[i], calibrations[i + 1]) for wall, i in walls]
    final = reference[-1]
    if final is None:
        raise RuntimeError(f"{workload.name}: the operation failed; no consensus to report")
    # The largest process: the portfolio's forked workers are reaped after
    # every operation, so they count among the children.  The calibration
    # task's buffers were resident in this process from before the first
    # operation on, and in every worker forked since, so the program's own
    # peak is the largest of these less the buffers.
    resident_kib = calibration.nbytes // 1024
    peak_rss_kib = max(
        setup_peak_kib,
        *(
            resource.getrusage(who).ru_maxrss - resident_kib
            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        ),
    )
    metrics = {
        "op_s.p50": statistics.median(samples),
        "peak_rss_mib": peak_rss_kib / 1024,
        "disagreements": final.disagreements,
        "op_wall_s.p50": statistics.median(wall for wall, _ in walls),
        "calibration_s.p50": statistics.median(calibrations),
    }
    if len(samples) >= P90_MIN_SAMPLES:
        metrics["op_s.p90"] = statistics.quantiles(samples, n=10)[-1]
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "op_s": samples,
        "op_wall_s": [wall for wall, _ in walls],
        "calibration_s": calibrations,
    }


def trace(workload: Workload, matrix: np.ndarray, seed: int, seconds: float) -> dict[str, Any]:
    """Pairs of an untraced and a traced operation until ``seconds`` have run.

    The traced operation must reproduce the untraced one bit for bit, and
    its layer self times must add up to its wall time; either failure
    counts the operation as failed.  Per-layer values are means per
    operation, so they add up like the operation does.
    """
    n, m = matrix.shape
    untraced_walls: list[float] = []
    traced_walls: list[float] = []
    totals: dict[str, dict[str, float]] = {
        "metrics": defaultdict(float),
        "phases": defaultdict(float),
        "portfolio": defaultdict(float),
    }
    spans: list[dict[str, Any]] | None = None
    attempted = failed = mismatched = 0
    elapsed = 0.0
    while spans is None or elapsed < seconds:
        with span("bench.unit") as unit_span:
            reference = []
            for step in workload.steps(matrix, seed, traced=False):
                outcome, wall = _run_step(step)
                untraced_walls.append(wall)
                reference.append(outcome)
                failed += not _check(matrix, outcome, None)
            forest = []
            for position, step in enumerate(workload.steps(matrix, seed, traced=True)):
                get_registry().reset()
                with collecting() as registry, tracing() as op_trace:
                    outcome, wall = _run_step(step)
                traced_walls.append(wall)
                root = op_trace.roots[0]
                forest.append(root.to_dict())
                layers = attribute(root, n, m)
                counters = registry.snapshot()["counters"]
                layers["metrics"].update({name: counters.get(name, 0.0) for name in COUNTERS})
                for key, total in totals.items():
                    for name, value in layers[key].items():
                        total[name] += value
                identical = _identical(outcome, reference[position])
                mismatched += not identical
                failed += not (
                    identical
                    and _check(matrix, outcome, None)
                    and abs(layers["layer_sum_s"] - wall) <= LAYER_SUM_TOLERANCE * wall
                )
            attempted += len(reference) + len(forest)
        elapsed += unit_span.seconds
        spans = spans or forest
    ops = len(traced_walls)
    means = {
        key: {name: value / ops for name, value in total.items()} for key, total in totals.items()
    }
    means["metrics"]["trace.overhead"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
    )
    return {
        "attempted": attempted,
        "failed": failed,
        "mismatched": mismatched,
        **means,
        "spans": spans,
    }


def main(argv: list[str] | None = None) -> int:
    config = json.loads((sys.argv[1:] if argv is None else argv)[0])
    workload = WORKLOADS[config["workload"]]
    seed = int(config["seed"])
    matrix = workload.inputs(seed, bool(config["smoke"]))
    for step in workload.steps(matrix[:WARMUP_ROWS], seed, traced=False):
        step()
    print("ready", flush=True)
    if config.get("setup_only"):
        return 0
    run = trace if config["trace"] else measure
    print(json.dumps(run(workload, matrix, seed, float(config["seconds"]))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
