"""Compare two result files of ``run --out`` against the bounds in BENCHMARK.json.

Each end-to-end metric of each workload gets one row: both sides' median
and quartiles over their runs, the new/old ratio, the bound, and a flag:

- ``regressed``: the new median is worse than the old by more than the bound;
- ``unresolved``: either side's run-to-run spread (interquartile range
  over median) is wider than the bound, unless every new run reads
  better than every old run;
- ``ok`` otherwise.

Metrics that are deterministic at a fixed seed, ``disagreements`` and the
failure ratio (failed over attempted operations), regress on any
increase: their bound in BENCHMARK.json is the spread between seeds, and
two files compare only at the same seed.  A metric is compared only where
every run on both sides reports it.  Per-layer and informational metrics
follow as ratios only.  Stdlib only, so two files compare without the
package under test.
"""

from __future__ import annotations

import statistics
from typing import Any

#: Result-file settings two files must share to be comparable.
SAME_SETTINGS = ("seed", "seconds", "trace", "smoke")
#: Metrics that are the same in every run at one seed: any increase regresses.
EXACT = frozenset({"disagreements"})


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    """Median, first and third quartile (all equal for a single run)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, _, third = statistics.quantiles(values, n=4)
    return statistics.median(values), first, third


def _spread(values: list[float]) -> float:
    median, first, third = _quartiles(values)
    return (third - first) / abs(median) if median else 0.0


def _worsening(old: float, new: float, better: str) -> float:
    """How much worse ``new`` reads than ``old``, as a share of ``old``."""
    if old == 0:
        return 0.0 if new == old else float("inf")
    change = (new - old) / abs(old)
    return change if better == "lower" else -change


def _flag(old: list[float], new: list[float], better: str, bound: float) -> str:
    if _worsening(statistics.median(old), statistics.median(new), better) > bound:
        return "regressed"
    all_better = max(new) < min(old) if better == "lower" else min(new) > max(old)
    if max(_spread(old), _spread(new)) > bound and not all_better:
        return "unresolved"
    return "ok"


def _row(workload: str, name: str, old: list[float], new: list[float]) -> str:
    old_median, old_first, old_third = _quartiles(old)
    new_median, new_first, new_third = _quartiles(new)
    ratio = new_median / old_median if old_median else float("nan")
    return (
        f"{workload:<24} {name:<26} {old_median:>12.5g} [{old_first:.5g}, {old_third:.5g}]"
        f"  {new_median:>12.5g} [{new_first:.5g}, {new_third:.5g}]  x{ratio:.3f}"
    )


def _shared_metrics(runs: list[dict[str, Any]]) -> list[str]:
    """The metric names every run reports, in the first run's order."""
    return [name for name in runs[0]["metrics"] if all(name in run["metrics"] for run in runs)]


def _fail_ratio(runs: list[dict[str, Any]]) -> float:
    return sum(run["failed"] for run in runs) / max(1, sum(run["attempted"] for run in runs))


def compare(old: dict[str, Any], new: dict[str, Any], spec: dict[str, Any]) -> tuple[str, bool]:
    """The comparison report, and whether anything regressed.

    Raises ``ValueError`` when the two files were run with different
    settings (seed, run length, traced or smoke), since their numbers
    then measure different things.
    """
    differing = [
        f"{key} ({old['env'].get(key)} vs {new['env'].get(key)})"
        for key in SAME_SETTINGS
        if old["env"].get(key) != new["env"].get(key)
    ]
    if differing:
        raise ValueError("the files differ in " + ", ".join(differing))
    gated = {metric["name"]: metric for metric in spec["end_to_end"]}
    lines = [
        f"old: sha={old['env'].get('git_sha')}  new: sha={new['env'].get('git_sha')}  "
        f"seed={old['env']['seed']}",
        "",
        f"{'workload':<24} {'metric':<26} {'old median [q1, q3]':>34}  "
        f"{'new median [q1, q3]':>34}  ratio  bound  flag",
    ]
    ungated: list[str] = []
    regressed = False
    for workload, entry in old["workloads"].items():
        if workload not in new["workloads"]:
            continue
        old_runs, new_runs = entry["runs"], new["workloads"][workload]["runs"]
        shared = set(_shared_metrics(new_runs))
        for name in _shared_metrics(old_runs):
            if name not in shared:
                continue
            old_values = [run["metrics"][name] for run in old_runs]
            new_values = [run["metrics"][name] for run in new_runs]
            row = _row(workload, name, old_values, new_values)
            if name not in gated:
                ungated.append(row)
                continue
            bound = 0 if name in EXACT else gated[name]["bound"]
            flag = _flag(old_values, new_values, gated[name]["better"], bound)
            regressed |= flag == "regressed"
            lines.append(f"{row}  {bound:<5}  {flag}")
        old_fail, new_fail = _fail_ratio(old_runs), _fail_ratio(new_runs)
        flag = "regressed" if new_fail > old_fail else "ok"
        regressed |= flag == "regressed"
        lines.append(
            f"{workload:<24} {'fail_ratio':<26} {old_fail:>12.5g} {'':<22}  "
            f"{new_fail:>12.5g} {'':<22}  {'':<6} 0      {flag}"
        )
    if ungated:
        lines += ["", "per-layer and informational metrics (not gated):", *ungated]
    return "\n".join(lines), regressed
