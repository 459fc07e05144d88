"""``python -m benchmarks.suite``: run the workloads, or compare two result files.

    python -m benchmarks.suite run [--workload NAME]... [--seed 0] [--seconds S]
        [--trace [0|1]] [--runs R] [--smoke] [--out FILE]
    python -m benchmarks.suite compare OLD.json NEW.json

``run`` prints every end-to-end metric of every workload by name with
its unit (every per-layer metric with ``--trace``) and ends with one JSON
line ``{"correct", "attempted", "failed", "metrics"}``; with one workload
the metric keys are bare names, otherwise ``<workload>/<metric>``.
``--out`` writes the full result file that ``compare`` reads.  Run it
from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[2]
SPEC = ROOT / "BENCHMARK.json"


def _parser(spec: dict[str, Any]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.suite", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run workloads and print their metrics")
    run.add_argument(
        "--workload",
        action="append",
        choices=[workload["name"] for workload in spec["workloads"]],
        help="workload to run (repeatable; default: all)",
    )
    run.add_argument("--seed", type=int, default=0, help="seed of every workload's inputs")
    run.add_argument(
        "--seconds",
        type=float,
        default=spec["run_seconds"],
        help="seconds of operations per run (default: BENCHMARK.json run_seconds)",
    )
    run.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="1: the traced run, reporting per-layer metrics instead",
    )
    run.add_argument(
        "--runs", type=int, default=1, help="runs per workload, each in fresh processes"
    )
    run.add_argument(
        "--smoke", action="store_true", help="tiny inputs and one operation each (harness test)"
    )
    run.add_argument("--out", type=Path, help="also write the full result file here")
    compare = commands.add_parser("compare", help="compare two result files of run --out")
    compare.add_argument("old", type=Path)
    compare.add_argument("new", type=Path)
    return parser


def _print_run(name: str, index: int, result: dict[str, Any], units: dict[str, str]) -> None:
    print(f"{name}  run {index + 1}: {result['attempted']} ops, {result['failed']} failed")
    for metric, value in result["metrics"].items():
        note = f"  ({len(result['op_s'])} samples)" if metric == "op_s.p50" else ""
        print(f"  {metric:<28} {value:>16.6g} {units.get(metric, 's')}{note}")
    if result.get("baseline_match") is not None:
        print(f"  D(C) equals the committed baseline: {result['baseline_match']}")


def run(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"error: {src / 'repro'} not found; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from .runner import baseline_match, environment, run_workload

    trace = bool(args.trace)
    seconds = 0.0 if args.smoke else args.seconds
    section = spec["per_layer" if trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in section}
    names = args.workload or [workload["name"] for workload in spec["workloads"]]
    # Runs go round the workloads, so a slow spell of the machine lands on
    # one run of several workloads rather than on every run of one.
    results: dict[str, list[dict[str, Any]]] = {name: [] for name in names}
    for index in range(args.runs):
        for name in names:
            result = run_workload(name, args.seed, seconds, trace, args.smoke)
            if not (trace or args.smoke):
                result["baseline_match"] = baseline_match(
                    name, args.seed, result["metrics"]["disagreements"]
                )
            _print_run(name, index, result, units)
            results[name].append(result)
    if args.out is not None:
        document = {
            "env": environment(args.seed, seconds, trace, args.smoke),
            "workloads": {name: {"runs": runs} for name, runs in results.items()},
        }
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(document, indent=1) + "\n")
    metrics = {}
    for name, runs in results.items():
        for metric, unit in units.items():
            key = metric if len(results) == 1 else f"{name}/{metric}"
            value = statistics.median(run["metrics"][metric] for run in runs)
            metrics[key] = {"value": value, "unit": unit}
    attempted = sum(run["attempted"] for runs in results.values() for run in runs)
    failed = sum(run["failed"] for runs in results.values() for run in runs)
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(line))
    return 0


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(SPEC.read_text())
    args = _parser(spec).parse_args(argv)
    if args.command == "run":
        return run(args, spec)
    from .compare import compare

    try:
        report, regressed = compare(
            json.loads(args.old.read_text()), json.loads(args.new.read_text()), spec
        )
    except ValueError as error:
        print(f"error: not comparable: {error}", file=sys.stderr)
        return 2
    print(report)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
