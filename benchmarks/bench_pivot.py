"""CC-PIVOT / CMSY vs BALLS and SAMPLING: cost vs wall-clock vs memory.

The pivot family exists to give near-linear aggregation with a proven
expected factor: no ``(n, n)`` structure, one vectorized row query per
pivot.  This bench puts numbers on that claim.  For each workload —
the paper's Votes and Mushrooms tables plus a planted synthetic at
``m = 5`` up to ``n = 10**6`` — it runs each configuration in a **fresh
interpreter** (the ``--measure`` protocol of ``benchmarks/fresh.py``,
for a clean peak-RSS high-water) and records wall time, peak RSS and
the consensus objective ``d(C)``.

A ``baseline`` variant imports the library and builds the label matrix
without clustering anything, so the interesting memory number is the
ratio ``rss / baseline-rss``: PIVOT at ``n = 10**6`` must stay within
:data:`PIVOT_RSS_ENVELOPE` (3x) of just holding the matrix, and both
pivot methods must stay within :data:`PIVOT_COST_ENVELOPE` (1.15x) of
single-shot SAMPLING's objective on the paper datasets.

Both pivot variants run at ``repeats=5`` (keep the cheapest of five
sweeps): single sweeps of an *expected*-factor algorithm have real
variance, and the standard amplification makes the envelope a stable,
deterministic gate instead of a per-seed coin flip.  The wall-clock
column prices that in — five sweeps are still an order of magnitude
under one SAMPLING pass.

Runs three ways:

- under pytest-benchmark with the other benches, at quick sizes
  (``pytest benchmarks/bench_pivot.py``) — also asserts the envelopes;
- standalone for the committed report: ``python benchmarks/bench_pivot.py``
  sweeps the paper datasets plus n = 10**6 and emits
  ``reports/BENCH_pivot.json`` + ``reports/pivot_scaling.txt``;
- CI smoke: ``python benchmarks/bench_pivot.py --smoke`` runs pivot +
  cmsy + sampling on Votes (honours ``REPRO_JOBS``) and fails when the
  cost envelope is violated.
"""

from __future__ import annotations

import sys
import time

import numpy as np

import fresh  # first: puts src/ on sys.path
from repro.experiments import banner, render_table

#: pivot/cmsy objective must stay within this factor of single-shot SAMPLING.
PIVOT_COST_ENVELOPE = 1.15
#: pivot peak RSS must stay within this factor of just holding the matrix.
PIVOT_RSS_ENVELOPE = 3.0

_M = 5
_SEED = 7
#: best-of-R amplification for the expected-factor methods.
_REPEATS = 5
#: BALLS materializes the (n, n) instance; cap its workloads accordingly.
_BALLS_MAX_N = 20_000


def _workload_matrix(workload: str) -> np.ndarray:
    if workload == "votes":
        from repro.datasets import generate_votes

        return generate_votes(rng=0).label_matrix()
    if workload == "mushrooms":
        from repro.datasets import generate_mushrooms

        return generate_mushrooms(rng=0).label_matrix()
    if workload.startswith("planted:"):
        n = int(workload.split(":")[1])
        return fresh.planted(n, _M, seed=n)
    raise ValueError(f"unknown workload {workload!r}")


def measure(variant: str, workload: str) -> dict:
    """Child-process body: aggregate one way, report cost/time/memory.

    ``variant`` is ``baseline`` (build the matrix, cluster nothing — the
    RSS floor every ratio is taken against), ``sampling``, ``balls``,
    ``pivot`` or ``cmsy``.  All stochastic variants share one root seed.
    """
    from repro.core.aggregate import aggregate
    from repro.core.distance import total_disagreement

    matrix = _workload_matrix(workload)
    n, m = matrix.shape
    if variant == "baseline":
        checksum = int(matrix.sum())  # touch every page
        return {
            "variant": variant,
            "workload": workload,
            "n": n,
            "m": m,
            "checksum": checksum,
            "seconds": 0.0,
            "peak_rss_bytes": fresh.peak_rss_bytes(),
        }
    start = time.perf_counter()
    if variant == "sampling":
        result = aggregate(
            matrix, method="sampling", rng=_SEED, compute_lower_bound=False, n_jobs=None
        )
    elif variant == "balls":
        result = aggregate(matrix, method="balls", compute_lower_bound=False, n_jobs=None)
    elif variant in ("pivot", "cmsy"):
        result = aggregate(
            matrix, method=variant, rng=_SEED, repeats=_REPEATS, compute_lower_bound=False
        )
    else:
        raise ValueError(f"unknown variant {variant!r}")
    seconds = time.perf_counter() - start
    disagreements = float(total_disagreement(matrix, result.clustering))
    return {
        "variant": variant,
        "workload": workload,
        "n": n,
        "m": m,
        "k": result.clustering.k,
        "cost": disagreements / m,
        "seconds": seconds,
        "peak_rss_bytes": fresh.peak_rss_bytes(),
    }


def _variants_for(workload: str) -> tuple[str, ...]:
    matrix_n = (
        int(workload.split(":")[1]) if workload.startswith("planted:") else _BALLS_MAX_N - 1
    )
    if matrix_n > _BALLS_MAX_N:
        # BALLS needs the quadratic instance; skip it where that would
        # defeat the point of a memory benchmark.
        return ("baseline", "sampling", "pivot", "cmsy")
    return ("baseline", "sampling", "balls", "pivot", "cmsy")


def _configs(*workloads: str) -> list[dict]:
    return [
        {"variant": variant, "workload": workload}
        for workload in workloads
        for variant in _variants_for(workload)
    ]


CONFIGS = {
    "full": _configs("votes", "mushrooms", "planted:1000000"),
    "quick": _configs("votes", "planted:5000"),
    "smoke": _configs("votes"),
}


def _envelopes(results: list[dict]) -> list[dict]:
    """Per-workload pivot/cmsy ratios against SAMPLING and the RSS floor."""
    sampling = {
        r["workload"]: r for r in results if r.get("variant") == "sampling" and "cost" in r
    }
    baseline = {
        r["workload"]: r for r in results if r.get("variant") == "baseline" and "error" not in r
    }
    out = []
    for r in results:
        if r.get("variant") not in ("pivot", "cmsy") or "cost" not in r:
            continue
        base = sampling.get(r["workload"])
        floor = baseline.get(r["workload"])
        if base is None or floor is None:
            continue
        out.append(
            {
                "workload": r["workload"],
                "variant": r["variant"],
                "cost_over_sampling": r["cost"] / base["cost"] if base["cost"] else 1.0,
                "seconds_over_sampling": (
                    r["seconds"] / base["seconds"] if base["seconds"] else 1.0
                ),
                "rss_over_baseline": r["peak_rss_bytes"] / floor["peak_rss_bytes"],
            }
        )
    return out


def _render(results: list[dict], envelopes: list[dict]) -> str:
    rows = []
    for r in results:
        if "error" in r:
            rows.append((r["workload"], r["variant"], "error", "--", "--", "--"))
        elif r["variant"] == "baseline":
            rows.append(
                (
                    r["workload"],
                    r["variant"],
                    "--",
                    "--",
                    f"{r['peak_rss_bytes'] / 2**20:,.0f} MiB",
                    "--",
                )
            )
        else:
            rows.append(
                (
                    r["workload"],
                    r["variant"],
                    f"{r['cost']:,.1f}",
                    f"{r['k']}",
                    f"{r['peak_rss_bytes'] / 2**20:,.0f} MiB",
                    f"{r['seconds']:.2f}",
                )
            )
    text = render_table(
        ("workload", "variant", "d(C)", "k", "peak RSS", "wall s"),
        rows,
        title=banner("CC-PIVOT / CMSY vs BALLS and SAMPLING"),
    )
    if envelopes:
        ratio_rows = [
            (
                e["workload"],
                e["variant"],
                f"{e['cost_over_sampling']:.3f}",
                f"{100.0 * e['seconds_over_sampling']:.1f}%",
                f"{e['rss_over_baseline']:.2f}x",
            )
            for e in envelopes
        ]
        text += "\n\n" + render_table(
            ("workload", "variant", "cost / sampling", "time / sampling", "RSS / matrix"),
            ratio_rows,
        )
    return text


def _check_envelopes(envelopes: list[dict]) -> list[str]:
    violations = [
        f"{e['variant']} on {e['workload']}: cost ratio {e['cost_over_sampling']:.3f} "
        f"exceeds the documented envelope {PIVOT_COST_ENVELOPE}"
        for e in envelopes
        if e["cost_over_sampling"] > PIVOT_COST_ENVELOPE
    ]
    violations += [
        f"{e['variant']} on {e['workload']}: peak RSS {e['rss_over_baseline']:.2f}x the "
        f"label-matrix floor exceeds the envelope {PIVOT_RSS_ENVELOPE}x"
        for e in envelopes
        if e["workload"].startswith("planted:") and e["rss_over_baseline"] > PIVOT_RSS_ENVELOPE
    ]
    return violations


def _analyse(results: list[dict]) -> tuple[str, dict, list[str]]:
    envelopes = _envelopes(results)
    payload = {
        "m_planted": _M,
        "k_planted": fresh.PLANTED_K,
        "seed": _SEED,
        "repeats": _REPEATS,
        "cost_envelope": PIVOT_COST_ENVELOPE,
        "rss_envelope": PIVOT_RSS_ENVELOPE,
        "results": results,
        "envelopes": envelopes,
    }
    return _render(results, envelopes), payload, _check_envelopes(envelopes)


def bench_pivot(benchmark, report):
    """pytest entry: quick subprocess sweep, envelopes asserted."""
    from conftest import once

    results = once(benchmark, lambda: fresh.sweep(__file__, CONFIGS["quick"]))
    text, _, violations = _analyse(results)
    report("pivot_scaling_quick", text)
    failed = [r for r in results if "error" in r]
    assert not failed, f"configurations failed: {failed}"
    assert not violations, "; ".join(violations)


if __name__ == "__main__":
    sys.exit(fresh.main(__file__, measure, CONFIGS, _analyse, report=("pivot", "pivot_scaling")))
