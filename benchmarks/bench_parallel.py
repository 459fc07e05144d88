"""Parallel backend: portfolio + pooled assignment speedup measurement.

Times the serial vs process-parallel paths of the two repro.parallel
entry points — the algorithm portfolio and SAMPLING's assignment phase
(:func:`repro.parallel.parallel_assign`) — and verifies bit-identity
between them while at it: the portfolio's best labels and method and
every member's cost and ``k``, and the assigned labels.  The assignment groups the rows by their tuple
of label codes once and fans out only when the *distinct* rows span more
than one :data:`~repro.parallel.workers.ASSIGN_BLOCK` block; each row of
the table prints both counts.  It runs on three inputs: uniform labels
(nearly every row distinct, several blocks at every size here, so the
forked path always runs), planted m=5 (many duplicate rows, one block)
and planted m=24, whose code tuples overflow a 62-bit key and are
re-ranked on the way.  Speedup is
*reported, not asserted*: the ratio is a property of the host (worker
count, cores, memory bandwidth), and CI containers are routinely
single-core, where the honest ratio is ≤ 1.

The dense build of ``X`` is serial and not timed here: each of its
blocks is one BLAS product, which already uses every core.

Runs two ways:

- under pytest-benchmark with the other benches
  (``pytest benchmarks/bench_parallel.py``);
- standalone for CI smoke runs: ``python benchmarks/bench_parallel.py
  --quick`` (small sizes, seconds not minutes).
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from fresh import planted  # first: puts src/ on sys.path
from repro.algorithms.agglomerative import agglomerative
from repro.core.instance import CorrelationInstance
from repro.core.objective import ClusterCountTables
from repro.experiments import banner, render_table
from repro.parallel import PortfolioResult, parallel_assign, portfolio, resolve_jobs
from repro.parallel.workers import ASSIGN_BLOCK

from conftest import once

_PORTFOLIO_SIZE = 2000
_ASSIGN_SIZE = 100_000
_QUICK_PORTFOLIO_SIZE = 400
_QUICK_ASSIGN_SIZE = 30_000
#: Rows clustered before the rest are assigned, as in SAMPLING's phase 1.
_SAMPLE = 1000
_M = 8


def _label_matrix(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 12, size=(n, _M)).astype(np.int32)


#: SAMPLING's assignment inputs, by name: ``(n, seed) -> matrix``.
_ASSIGN_INPUTS = {
    "uniform m=8": _label_matrix,
    "planted m=5": lambda n, seed: planted(n, 5, seed),
    "planted m=24": lambda n, seed: planted(n, 24, seed),
}


def _member_records(result: PortfolioResult) -> list[tuple[str, str, int]]:
    """Every member's method, cost (as its exact float64 bits) and k."""
    return [(run.method, run.cost.hex(), run.k) for run in result.runs]


def _time_portfolio(n: int, jobs: int) -> tuple[float, float, bool, str, str]:
    """(serial seconds, parallel seconds, bit-identical?, "-", "-") for one size."""
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
        and _member_records(serial) == _member_records(fanned)
    )
    return serial_seconds, parallel_seconds, identical, "-", "-"


def _time_assign(matrix: np.ndarray, jobs: int) -> tuple[float, float, bool, str, str]:
    """As :func:`_time_portfolio`, with the distinct-row and block counts."""
    n = matrix.shape[0]
    sample = np.arange(_SAMPLE)
    labels = agglomerative(CorrelationInstance.from_label_matrix(matrix[sample])).labels
    tables = ClusterCountTables(matrix, sample, labels)
    rest = np.arange(_SAMPLE, n)
    start = time.perf_counter()
    serial = parallel_assign(tables, rest, n_jobs=1)
    serial_seconds = time.perf_counter() - start
    start = time.perf_counter()
    fanned = parallel_assign(tables, rest, n_jobs=jobs)
    parallel_seconds = time.perf_counter() - start
    distinct = tables.distinct(rest)[0].size
    blocks = -(-distinct // ASSIGN_BLOCK)
    identical = bool(np.array_equal(serial, fanned))
    return serial_seconds, parallel_seconds, identical, str(distinct), str(blocks)


def _run(portfolio_size: int, assign_size: int, jobs: int) -> tuple[str, bool]:
    """Run the sweep; returns (report text, all outputs bit-identical?)."""
    rows = []
    all_identical = True
    runs = [(f"portfolio n={portfolio_size}", _time_portfolio, portfolio_size)]
    runs += [
        (f"parallel_assign {name} n={assign_size}", _time_assign, make(assign_size, assign_size))
        for name, make in _ASSIGN_INPUTS.items()
    ]
    for name, timer, data in runs:
        serial_s, parallel_s, identical, distinct, blocks = timer(data, jobs)
        all_identical &= identical
        rows.append(
            (
                name,
                distinct,
                blocks,
                f"{serial_s:.2f}",
                f"{parallel_s:.2f}",
                f"{serial_s / parallel_s:.2f}x",
                "yes" if identical else "NO",
            )
        )
    text = render_table(
        (
            "workload",
            "distinct rows",
            "blocks",
            "serial (s)",
            f"{jobs} workers (s)",
            "speedup",
            "bit-identical",
        ),
        rows,
        title=banner(f"repro.parallel — portfolio + parallel_assign ({jobs} workers)"),
    )
    text += "\n\nspeedup is informational (host-dependent); bit-identity is the invariant."
    return text, all_identical


def bench_parallel(benchmark, report):
    jobs = min(4, max(2, resolve_jobs(0)))
    text, all_identical = once(benchmark, lambda: _run(_PORTFOLIO_SIZE, _ASSIGN_SIZE, jobs))
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
    portfolio_size = _QUICK_PORTFOLIO_SIZE if args.quick else _PORTFOLIO_SIZE
    assign_size = _QUICK_ASSIGN_SIZE if args.quick else _ASSIGN_SIZE
    text, all_identical = _run(portfolio_size, assign_size, jobs)
    print(text)
    return 0 if all_identical else 1


if __name__ == "__main__":
    sys.exit(main())
