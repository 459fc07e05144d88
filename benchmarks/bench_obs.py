"""Observability overhead: spans + metrics cost when off, on, and traced.

The repro.obs design contract is that instrumentation is free to leave in
hot code: with the registry disabled every ``inc``/``observe`` is a single
attribute check, and spans only buffer tree nodes while a ``tracing()``
block is active.  This bench measures that contract on the real
workloads — all five paper algorithms plus the portfolio — and emits a
structured ``reports/BENCH_obs.json`` with the timings, the overhead
ratios, a captured span tree, and a metrics snapshot, so regressions in
the disabled-path cost show up as numbers rather than anecdotes.

Runs two ways:

- under pytest-benchmark with the other benches
  (``pytest benchmarks/bench_obs.py``);
- standalone for the committed report: ``python benchmarks/bench_obs.py``
  emits ``reports/BENCH_obs.json`` + ``reports/obs_overhead.txt``;
  ``--quick`` runs a smaller size and writes nothing.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from fresh import write_report  # first: puts src/ on sys.path
from repro.core.aggregate import aggregate
from repro.experiments import banner, render_table
from repro.obs import (
    disable_metrics,
    enable_metrics,
    get_registry,
    tracing,
)
from repro.parallel import portfolio

_N = 1200
_QUICK_N = 400
_M = 8
_REPEATS = 9
_METHODS = ("balls", "agglomerative", "furthest", "local-search", "sampling")


def _label_matrix(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 12, size=(n, _M)).astype(np.int32)


def _workload(matrix: np.ndarray) -> None:
    for method in _METHODS:
        kwargs = {"rng": 0} if method == "sampling" else {}
        aggregate(matrix, method=method, compute_lower_bound=False, **kwargs)
    portfolio(matrix, rng=0, n_jobs=1)


def _time_once(matrix: np.ndarray) -> float:
    """Wall time of one full workload (seconds)."""
    start = time.perf_counter()
    _workload(matrix)
    return time.perf_counter() - start


def _run(n: int, repeats: int) -> tuple[str, dict]:
    matrix = _label_matrix(n, seed=n)
    _workload(matrix)  # warm-up: imports, allocator, caches

    # Off and metrics-on repeats alternate, so slow drift of the host
    # (frequency, other tenants) hits both alike; each keeps its best.
    get_registry().reset()
    off_seconds = metrics_seconds = float("inf")
    for _ in range(repeats):
        disable_metrics()
        off_seconds = min(off_seconds, _time_once(matrix))
        enable_metrics()
        metrics_seconds = min(metrics_seconds, _time_once(matrix))
    snapshot = get_registry().snapshot()
    disable_metrics()

    with tracing() as trace:
        traced_seconds = _time_once(matrix)
    tree = trace.render(min_seconds=0.001)

    metrics_overhead = metrics_seconds / off_seconds - 1.0
    traced_overhead = traced_seconds / off_seconds - 1.0
    payload = {
        "n": n,
        "m": _M,
        "methods": list(_METHODS),
        "repeats": repeats,
        "off_seconds": off_seconds,
        "metrics_seconds": metrics_seconds,
        "traced_seconds": traced_seconds,
        "metrics_overhead": metrics_overhead,
        "traced_overhead": traced_overhead,
        "metrics_snapshot": snapshot,
        "trace": trace.to_dict(),
    }
    rows = [
        ("off (baseline)", f"{off_seconds:.3f}", "--"),
        ("metrics on", f"{metrics_seconds:.3f}", f"{100.0 * metrics_overhead:+.1f}%"),
        ("tracing on", f"{traced_seconds:.3f}", f"{100.0 * traced_overhead:+.1f}%"),
    ]
    text = render_table(
        ("configuration", "seconds", "overhead"),
        rows,
        title=banner(f"repro.obs — instrumentation overhead (n={n}, m={_M})"),
    )
    text += "\n\nspan tree of one traced run (>= 1 ms):\n" + tree
    return text, payload


def bench_obs(benchmark, report):
    from conftest import once

    text, payload = once(benchmark, lambda: _run(_N, _REPEATS))
    write_report("obs", "obs_overhead", payload, text)
    report("obs_overhead", text)
    # The contract is "cheap when off", not a hard bound on noisy CI
    # hosts; a loose factor still catches accidental always-on work.
    assert payload["metrics_overhead"] < 0.25, "metrics-on overhead exploded"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small size for CI smoke runs")
    args = parser.parse_args(argv)
    n = _QUICK_N if args.quick else _N
    text, payload = _run(n, _REPEATS)
    print(text)
    if not args.quick:
        path = write_report("obs", "obs_overhead", payload, text)
        print(f"\nstructured output: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
