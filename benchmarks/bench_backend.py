"""Backend memory benchmark: dense vs lazy peak RSS and wall time at large n.

The lazy label-backed :class:`~repro.core.backend.LazyLabelBackend` exists
so BALLS and SAMPLING can run at ``n`` where the dense ``(n, n)`` matrix
does not fit: it stores the ``(n, m)`` labels and computes distance row
blocks on demand.  This bench puts a number on that claim — for each
``(algorithm, n, backend)`` configuration it runs the full
build-plus-solve on planted inputs in a **fresh interpreter** (the
``--measure`` protocol of ``benchmarks/fresh.py``) and records the
child's peak RSS and wall time.

The dense configuration at the largest size is *skipped, not attempted*
(a ~10 GB matrix allocation proves nothing about the lazy path), with
the reason recorded in the structured output.

Runs three ways:

- under pytest-benchmark with the other benches, at quick sizes
  (``pytest benchmarks/bench_backend.py``);
- standalone for the committed report: ``python benchmarks/bench_backend.py``
  emits ``reports/BENCH_backend.json`` + ``reports/backend_memory.txt``;
- CI smoke: ``python benchmarks/bench_backend.py --smoke`` runs only the
  lazy configurations at n = 20000 (honours ``REPRO_JOBS``) and exits
  non-zero unless the lazy ``matvec(ones)`` and ``lower_bound()`` on that
  input, with 5% of its entries blanked, have the bits of the base
  class's blocked pass.

Peak RSS is read before the lower bound is timed, so it covers the build
and the solve only.
"""

from __future__ import annotations

import sys
import time

import fresh  # first: puts src/ on sys.path
import numpy as np
from repro.core.backend import LazyLabelBackend, PairDistanceBackend
from repro.core.kernels import MISSING
from repro.experiments import banner, render_table

_M = 8
_ALGORITHMS = ("balls", "sampling")
#: Above this n the dense configuration is skipped outright.
_DENSE_SKIP_N = 50_000


def measure(backend: str, n: int, algorithm: str, check: bool = False) -> dict:
    """Child-process body: build the instance, run one algorithm and the
    lower bound, report; ``check`` compares the label-native reductions
    with the blocked pass on a copy of the input with missing labels."""
    from repro.algorithms.agglomerative import agglomerative
    from repro.algorithms.balls import balls
    from repro.algorithms.sampling import sampling
    from repro.core.instance import CorrelationInstance

    matrix = fresh.planted(n, _M, seed=n)
    start = time.perf_counter()
    instance = CorrelationInstance.from_label_matrix(matrix, backend=backend)
    build_seconds = time.perf_counter() - start

    start = time.perf_counter()
    if algorithm == "balls":
        clustering = balls(instance)
    elif algorithm == "sampling":
        clustering = sampling(instance, agglomerative, rng=0, n_jobs=None)
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    solve_seconds = time.perf_counter() - start
    peak_rss_bytes = fresh.peak_rss_bytes()

    start = time.perf_counter()
    instance.lower_bound()
    lower_bound_seconds = time.perf_counter() - start

    result = {
        "backend": backend,
        "n": n,
        "m": _M,
        "algorithm": algorithm,
        "k": clustering.k,
        "build_seconds": build_seconds,
        "solve_seconds": solve_seconds,
        "lower_bound_seconds": lower_bound_seconds,
        "peak_rss_bytes": peak_rss_bytes,
    }
    if check:
        result["bitwise_equal"] = _matches_blocked_pass(_with_missing(matrix, seed=n))
    return result


def _with_missing(matrix: np.ndarray, seed: int) -> LazyLabelBackend:
    """A lazy backend over ``matrix`` with 5% of its entries blanked, so
    the missing self-term and the pairs inside an atom are not 0."""
    blanked = matrix.copy()
    blank = np.random.default_rng(seed).random(blanked.shape) < 0.05
    blank[0] = False  # no entirely missing column
    blanked[blank] = MISSING
    return LazyLabelBackend(blanked)


def _matches_blocked_pass(backend: LazyLabelBackend) -> bool:
    """Whether ``matvec(ones)`` and ``lower_bound()`` skip the row blocks
    and still have the bits of the base class's blocked pass over them."""
    ones = np.ones(backend.n, dtype=np.float64)
    matvec = backend.matvec(ones)
    bound = backend.lower_bound()
    label_native = backend.cached_block_indices() == ()
    return (
        label_native
        and matvec.tobytes() == PairDistanceBackend.matvec(backend, ones).tobytes()
        and bound.hex() == PairDistanceBackend.lower_bound(backend).hex()
    )


def _configs(sizes: tuple[int, ...], backends: tuple[str, ...]) -> list[dict]:
    configs = []
    for n in sizes:
        for algorithm in _ALGORITHMS:
            for backend in backends:
                config = {"backend": backend, "n": n, "algorithm": algorithm}
                if backend == "dense" and n >= _DENSE_SKIP_N:
                    config["skipped"] = (
                        "dense X at this n is a ~10 GB float32 allocation; "
                        "the configuration exists only to be avoided"
                    )
                configs.append(config)
    return configs


CONFIGS = {
    "full": _configs((5_000, 20_000, 50_000), ("dense", "lazy")),
    "quick": _configs((1_500,), ("dense", "lazy")),
    "smoke": [
        {**config, "check": config["algorithm"] == "balls"}
        for config in _configs((20_000,), ("lazy",))
    ],
}


def _ratios(results: list[dict]) -> list[dict]:
    """Lazy-vs-dense peak-RSS ratio per (algorithm, n) where both ran."""
    by_key = {
        (r["algorithm"], r["n"], r["backend"]): r for r in results if "peak_rss_bytes" in r
    }
    ratios = []
    for algorithm in _ALGORITHMS:
        for n in sorted({r["n"] for r in results}):
            dense = by_key.get((algorithm, n, "dense"))
            lazy = by_key.get((algorithm, n, "lazy"))
            if dense and lazy:
                ratios.append(
                    {
                        "algorithm": algorithm,
                        "n": n,
                        "lazy_over_dense_peak_rss": lazy["peak_rss_bytes"]
                        / dense["peak_rss_bytes"],
                    }
                )
    return ratios


def _render(results: list[dict], ratios: list[dict]) -> str:
    rows = []
    for r in results:
        if "skipped" in r:
            rows.append((r["algorithm"], f"{r['n']:,}", r["backend"], "skipped", "--", "--", "--"))
        elif "error" in r:
            rows.append((r["algorithm"], f"{r['n']:,}", r["backend"], "error", "--", "--", "--"))
        else:
            rows.append(
                (
                    r["algorithm"],
                    f"{r['n']:,}",
                    r["backend"],
                    f"{r['peak_rss_bytes'] / 2**20:,.0f} MiB",
                    f"{r['build_seconds']:.2f}",
                    f"{r['solve_seconds']:.2f}",
                    f"{r['lower_bound_seconds']:.2f}",
                )
            )
    text = render_table(
        ("algorithm", "n", "backend", "peak RSS", "build s", "solve s", "bound s"),
        rows,
        title=banner(f"pair-distance backends — peak memory (m={_M})"),
    )
    if ratios:
        ratio_rows = [
            (r["algorithm"], f"{r['n']:,}", f"{100.0 * r['lazy_over_dense_peak_rss']:.1f}%")
            for r in ratios
        ]
        text += "\n\n" + render_table(
            ("algorithm", "n", "lazy / dense peak RSS"), ratio_rows
        )
    return text


def _analyse(results: list[dict]) -> tuple[str, dict, list[str]]:
    ratios = _ratios(results)
    payload = {"m": _M, "k": fresh.PLANTED_K, "results": results, "ratios": ratios}
    violations = [
        f"{r['algorithm']} n={r['n']} {r['backend']}: the label-native matvec or "
        "lower bound differs from the blocked pass"
        for r in results
        if r.get("bitwise_equal") is False
    ]
    return _render(results, ratios), payload, violations


def bench_backend(benchmark, report):
    """pytest entry: quick subprocess sweep, report only (no committed JSON)."""
    from conftest import once

    results = once(benchmark, lambda: fresh.sweep(__file__, CONFIGS["quick"]))
    report("backend_memory_quick", _analyse(results)[0])
    measured = [r for r in results if "peak_rss_bytes" in r]
    assert len(measured) == len(results), f"configurations failed: {results}"


if __name__ == "__main__":
    sys.exit(
        fresh.main(__file__, measure, CONFIGS, _analyse, report=("backend", "backend_memory"))
    )
