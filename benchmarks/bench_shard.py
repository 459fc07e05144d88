"""Sharded divide-and-merge vs single-shot SAMPLING: time, memory, quality.

Sharding exists to bound the working set by the largest shard instead of
``n`` while staying inside the documented quality envelope
(:data:`repro.shard.QUALITY_ENVELOPE` of single-shot SAMPLING's
objective).  This bench puts numbers on both claims: for each
configuration — single-shot SAMPLING, and ``method="sharded"`` at 1, 2
and 4 shards — it runs the full aggregation on planted inputs in a
**fresh interpreter** (the ``--measure`` protocol of
``benchmarks/fresh.py``) and records wall time, the child's peak RSS and
the consensus objective ``d(C)``.

Runs three ways:

- under pytest-benchmark with the other benches, at quick sizes
  (``pytest benchmarks/bench_shard.py``) — also asserts the envelope;
- standalone for the committed report: ``python benchmarks/bench_shard.py``
  sweeps n = 100000 and emits ``reports/BENCH_shard.json`` +
  ``reports/shard_scaling.txt``;
- CI smoke: ``python benchmarks/bench_shard.py --smoke`` runs n = 20000
  at 2 shards plus the single-shot baseline (honours ``REPRO_JOBS``) and
  fails when the envelope is violated.
"""

from __future__ import annotations

import sys
import time

import fresh  # first: puts src/ on sys.path
from repro.experiments import banner, render_table

_M = 8
_SEED = 7
_SHARD_COUNTS = (1, 2, 4)


def measure(variant: str, n: int) -> dict:
    """Child-process body: aggregate one way, report cost/time/memory.

    ``variant`` is ``"single"`` (one SAMPLING pass over all n rows) or
    ``"shards=S"``.  Both paths honour ``REPRO_JOBS`` for their worker
    budget, and both use the same root seed — sharded results are
    bit-identical across worker counts by construction, so the numbers
    are comparable run to run.
    """
    from repro.core.aggregate import aggregate
    from repro.core.distance import total_disagreement

    matrix = fresh.planted(n, _M, seed=n)
    start = time.perf_counter()
    if variant == "single":
        result = aggregate(
            matrix, method="sampling", rng=_SEED, compute_lower_bound=False, n_jobs=None
        )
        extra: dict = {}
    else:
        n_shards = int(variant.split("=")[1])
        result = aggregate(
            matrix,
            method="sharded",
            n_shards=n_shards,
            rng=_SEED,
            compute_lower_bound=False,
            n_jobs=None,
        )
        shard = result.params["shard"]
        extra = {
            "n_shards": shard["n_shards"],
            "n_atoms": shard["n_atoms"],
            "merge_method": shard["merge_method"],
        }
    seconds = time.perf_counter() - start
    disagreements = float(total_disagreement(matrix, result.clustering))
    return {
        "variant": variant,
        "n": n,
        "m": _M,
        "k": result.clustering.k,
        "cost": disagreements / _M,
        "seconds": seconds,
        "peak_rss_bytes": fresh.peak_rss_bytes(),
        **extra,
    }


def _configs(sizes: tuple[int, ...], shard_counts: tuple[int, ...]) -> list[dict]:
    variants = ["single"] + [f"shards={shards}" for shards in shard_counts]
    return [{"variant": variant, "n": n} for n in sizes for variant in variants]


CONFIGS = {
    "full": _configs((100_000,), _SHARD_COUNTS),
    "quick": _configs((3_000,), _SHARD_COUNTS),
    "smoke": _configs((20_000,), (2,)),
}


def _envelopes(results: list[dict]) -> list[dict]:
    """Sharded-over-single cost and RSS ratios per (n, shards)."""
    singles = {r["n"]: r for r in results if r.get("variant") == "single" and "cost" in r}
    out = []
    for r in results:
        if "cost" not in r or r["variant"] == "single":
            continue
        base = singles.get(r["n"])
        if base is None:
            continue
        out.append(
            {
                "n": r["n"],
                "variant": r["variant"],
                "cost_over_single": r["cost"] / base["cost"] if base["cost"] else 1.0,
                "rss_over_single": r["peak_rss_bytes"] / base["peak_rss_bytes"],
                "seconds_over_single": r["seconds"] / base["seconds"],
            }
        )
    return out


def _render(results: list[dict], envelopes: list[dict]) -> str:
    rows = []
    for r in results:
        if "error" in r:
            rows.append((f"{r['n']:,}", r["variant"], "error", "--", "--", "--"))
        else:
            rows.append(
                (
                    f"{r['n']:,}",
                    r["variant"],
                    f"{r['cost']:,.1f}",
                    f"{r['k']}",
                    f"{r['peak_rss_bytes'] / 2**20:,.0f} MiB",
                    f"{r['seconds']:.2f}",
                )
            )
    text = render_table(
        ("n", "variant", "d(C)", "k", "peak RSS", "wall s"),
        rows,
        title=banner(f"sharded divide-and-merge vs single-shot SAMPLING (m={_M})"),
    )
    if envelopes:
        ratio_rows = [
            (
                f"{e['n']:,}",
                e["variant"],
                f"{e['cost_over_single']:.3f}",
                f"{100.0 * e['rss_over_single']:.1f}%",
                f"{100.0 * e['seconds_over_single']:.1f}%",
            )
            for e in envelopes
        ]
        text += "\n\n" + render_table(
            ("n", "variant", "cost / single", "RSS / single", "time / single"),
            ratio_rows,
        )
    return text


def _check_envelope(envelopes: list[dict]) -> list[str]:
    from repro.shard import QUALITY_ENVELOPE

    return [
        f"{e['variant']} at n={e['n']}: cost ratio {e['cost_over_single']:.3f} "
        f"exceeds the documented envelope {QUALITY_ENVELOPE}"
        for e in envelopes
        if e["cost_over_single"] > QUALITY_ENVELOPE
    ]


def _analyse(results: list[dict]) -> tuple[str, dict, list[str]]:
    envelopes = _envelopes(results)
    payload = {
        "m": _M,
        "k": fresh.PLANTED_K,
        "seed": _SEED,
        "results": results,
        "envelopes": envelopes,
    }
    return _render(results, envelopes), payload, _check_envelope(envelopes)


def bench_shard(benchmark, report):
    """pytest entry: quick subprocess sweep, envelope asserted."""
    from conftest import once

    results = once(benchmark, lambda: fresh.sweep(__file__, CONFIGS["quick"]))
    text, _, violations = _analyse(results)
    report("shard_scaling_quick", text)
    measured = [r for r in results if "cost" in r]
    assert len(measured) == len(results), f"configurations failed: {results}"
    assert not violations, "; ".join(violations)


if __name__ == "__main__":
    sys.exit(fresh.main(__file__, measure, CONFIGS, _analyse, report=("shard", "shard_scaling")))
