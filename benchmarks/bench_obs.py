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

The overhead is a paired ratio: every repeat times the workload off, with
metrics and traced, and each configuration is compared with the off run
of its own repeat.
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
_CONFIGS = ("off", "metrics", "traced")


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


def _time_config(config: str, matrix: np.ndarray) -> float:
    """:func:`_time_once` with metrics off, metrics on, or inside ``tracing()``."""
    if config == "traced":
        with tracing():
            return _time_once(matrix)
    if config == "metrics":
        enable_metrics()
    try:
        return _time_once(matrix)
    finally:
        disable_metrics()


def _run(n: int, repeats: int) -> tuple[str, dict]:
    matrix = _label_matrix(n, seed=n)
    _workload(matrix)  # warm-up: imports, allocator, caches

    # Each repeat times the three configurations back to back, starting
    # from a different one each time, and the overhead is the median of
    # the per-repeat ratios to the repeat's own off run: a slow spell of
    # the host lands on one repeat's three runs, not on one configuration.
    get_registry().reset()
    seconds: dict[str, list[float]] = {config: [] for config in _CONFIGS}
    for repeat in range(repeats):
        shift = repeat % len(_CONFIGS)
        for config in _CONFIGS[shift:] + _CONFIGS[:shift]:
            seconds[config].append(_time_config(config, matrix))
    snapshot = get_registry().snapshot()

    with tracing() as trace:
        _time_once(matrix)
    tree = trace.render(min_seconds=0.001)

    off = np.array(seconds["off"])
    ratios = {config: np.array(seconds[config]) / off for config in ("metrics", "traced")}
    quartiles = {
        config: np.percentile(ratio, [25, 50, 75]) - 1.0 for config, ratio in ratios.items()
    }
    medians = {config: float(np.median(values)) for config, values in seconds.items()}
    payload = {
        "n": n,
        "m": _M,
        "methods": list(_METHODS),
        "repeats": repeats,
        "seconds": seconds,
        "off_seconds": medians["off"],
        "metrics_seconds": medians["metrics"],
        "traced_seconds": medians["traced"],
        "metrics_overhead": float(quartiles["metrics"][1]),
        "traced_overhead": float(quartiles["traced"][1]),
        "metrics_overhead_quartiles": [float(q) for q in quartiles["metrics"][::2]],
        "traced_overhead_quartiles": [float(q) for q in quartiles["traced"][::2]],
        "metrics_snapshot": snapshot,
        "trace": trace.to_dict(),
    }

    def overhead(config: str) -> tuple[str, str]:
        low, mid, high = 100.0 * quartiles[config]
        return f"{mid:+.1f}%", f"[{low:+.1f}%, {high:+.1f}%]"

    rows = [
        ("off (baseline)", f"{medians['off']:.3f}", "--", "--"),
        ("metrics on", f"{medians['metrics']:.3f}", *overhead("metrics")),
        ("tracing on", f"{medians['traced']:.3f}", *overhead("traced")),
    ]
    text = render_table(
        ("configuration", "median seconds", "overhead", "quartiles"),
        rows,
        title=banner(f"repro.obs — instrumentation overhead (n={n}, m={_M})"),
    )
    text += (
        f"\n\n{repeats} repeats of one workload run per configuration; the"
        "\noverhead is the median, over repeats, of each run's ratio to the same"
        "\nrepeat's off run, minus one."
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
