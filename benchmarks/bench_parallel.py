"""Parallel backend: pooled build + portfolio speedup measurement.

Times the serial vs process-parallel paths of the two repro.parallel
entry points — the O(m n²) instance build and the algorithm portfolio —
and verifies bit-identity between them while at it.  The build fans out
only when the row grid has more than one block (n > 2048), so every
build size here is above that: at n ≤ 2048 the parallel column would
time, and compare against, the serial build again.  Speedup is
*reported, not asserted*: the ratio is a property of the host (worker
count, cores, memory bandwidth), and CI containers are routinely
single-core, where the honest ratio is ≤ 1.

Runs two ways:

- under pytest-benchmark with the other benches
  (``pytest benchmarks/bench_parallel.py``);
- standalone for CI smoke runs: ``python benchmarks/bench_parallel.py
  --quick`` (small sizes, seconds not minutes).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from repro.core.instance import disagreement_fractions
from repro.experiments import banner, render_table
from repro.parallel import portfolio, resolve_jobs

from conftest import once

_BUILD_SIZES = (2500, 8000)
_PORTFOLIO_SIZE = 2000
_QUICK_BUILD_SIZES = (2500,)
_QUICK_PORTFOLIO_SIZE = 400
_M = 8


def _label_matrix(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 12, size=(n, _M)).astype(np.int32)


def _time_build(n: int, jobs: int) -> tuple[float, float, bool]:
    """(serial seconds, parallel seconds, bit-identical?) for one size."""
    matrix = _label_matrix(n, seed=n)
    start = time.perf_counter()
    serial = disagreement_fractions(matrix, n_jobs=1)
    serial_seconds = time.perf_counter() - start
    start = time.perf_counter()
    fanned = disagreement_fractions(matrix, n_jobs=jobs)
    parallel_seconds = time.perf_counter() - start
    return serial_seconds, parallel_seconds, bool(np.array_equal(serial, fanned))


def _time_portfolio(n: int, jobs: int) -> tuple[float, float, bool]:
    matrix = _label_matrix(n, seed=n + 1)
    start = time.perf_counter()
    serial = portfolio(matrix, rng=0, n_jobs=1)
    serial_seconds = time.perf_counter() - start
    start = time.perf_counter()
    fanned = portfolio(matrix, rng=0, n_jobs=jobs)
    parallel_seconds = time.perf_counter() - start
    identical = bool(
        np.array_equal(serial.best.labels, fanned.best.labels)
        and serial.best_method == fanned.best_method
    )
    return serial_seconds, parallel_seconds, identical


def _run(build_sizes: tuple[int, ...], portfolio_size: int, jobs: int) -> tuple[str, bool]:
    """Run the sweep; returns (report text, all outputs bit-identical?)."""
    rows = []
    verdicts = []
    all_identical = True
    for n in build_sizes:
        serial_s, parallel_s, identical = _time_build(n, jobs)
        all_identical &= identical
        winner = "pooled" if parallel_s < serial_s else "serial"
        verdicts.append(
            f"build n={n}: pooled {parallel_s:.3f} s vs serial {serial_s:.3f} s, {winner} wins"
        )
        rows.append(
            (
                f"build n={n}",
                f"{serial_s:.2f}",
                f"{parallel_s:.2f}",
                f"{serial_s / parallel_s:.2f}x",
                "yes" if identical else "NO",
            )
        )
    serial_s, parallel_s, identical = _time_portfolio(portfolio_size, jobs)
    all_identical &= identical
    rows.append(
        (
            f"portfolio n={portfolio_size}",
            f"{serial_s:.2f}",
            f"{parallel_s:.2f}",
            f"{serial_s / parallel_s:.2f}x",
            "yes" if identical else "NO",
        )
    )
    text = render_table(
        ("workload", "serial (s)", f"{jobs} workers (s)", "speedup", "bit-identical"),
        rows,
        title=banner(f"repro.parallel — pooled build + portfolio ({jobs} workers)"),
    )
    blas_threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    text += f"\n\nOPENBLAS_NUM_THREADS={blas_threads}; " + "; ".join(verdicts)
    text += "\nspeedup is informational (host-dependent); bit-identity is the invariant."
    return text, all_identical


def bench_parallel(benchmark, report):
    jobs = min(4, max(2, resolve_jobs(0)))
    text, all_identical = once(
        benchmark, lambda: _run(_BUILD_SIZES, _PORTFOLIO_SIZE, jobs)
    )
    report("parallel_backend", text)
    assert all_identical, "parallel outputs diverged from the serial path"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small sizes for CI smoke runs"
    )
    parser.add_argument(
        "--jobs", type=int, default=None, help="worker count (default: all cores, max 4)"
    )
    args = parser.parse_args(argv)
    jobs = args.jobs if args.jobs is not None else min(4, max(2, resolve_jobs(0)))
    sizes = _QUICK_BUILD_SIZES if args.quick else _BUILD_SIZES
    portfolio_size = _QUICK_PORTFOLIO_SIZE if args.quick else _PORTFOLIO_SIZE
    text, all_identical = _run(sizes, portfolio_size, jobs)
    print(text)
    return 0 if all_identical else 1


if __name__ == "__main__":
    sys.exit(main())
