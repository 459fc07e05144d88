"""Fresh-interpreter runner shared by the scaling benches.

``ru_maxrss`` is a per-process high-water mark that never goes down, so
two configurations measured in one process would contaminate each other.
The scaling benches (``bench_backend.py``, ``bench_shard.py``,
``bench_pivot.py``) therefore measure every configuration in its own
interpreter.  The protocol:

- the parent calls :func:`sweep`, which runs
  ``python <bench> --measure '<config JSON>'`` once per configuration;
- the child's :func:`main` calls the bench's ``measure(**config)`` and
  prints the returned dict as one JSON line;
- a child that exits non-zero becomes ``{**config, "error": <last stderr
  line>}``, and a configuration carrying ``"skipped"`` passes through
  without starting a process.

A bench then keeps only its ``measure`` body, its configuration lists
and its analysis (ratios, envelopes, table); :func:`main` is the shared
command line and :func:`write_report` the one ``BENCH_*.json`` writer.
"""

from __future__ import annotations

import argparse
import inspect
import json
import resource
import subprocess
import sys
from collections.abc import Callable, Mapping, Sequence
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _path in (ROOT / "src", ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from benchmarks.suite.workloads import planted  # noqa: E402

__all__ = ["PLANTED_K", "main", "peak_rss_bytes", "planted", "sweep", "write_report"]

REPORTS_DIR = ROOT / "reports"
#: Number of true clusters behind :func:`planted` inputs, recorded in reports.
PLANTED_K: int = inspect.signature(planted).parameters["k"].default


def peak_rss_bytes() -> int:
    """Peak resident set size of this process, in bytes (Linux: KiB units)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak * (1 if sys.platform == "darwin" else 1024)


def sweep(script: str | Path, configs: Sequence[dict]) -> list[dict]:
    """Measure each configuration of ``script`` in a fresh interpreter."""
    results: list[dict] = []
    for config in configs:
        if "skipped" in config:
            results.append(config)
            continue
        completed = subprocess.run(
            [sys.executable, str(script), "--measure", json.dumps(config)],
            capture_output=True,
            text=True,
            check=False,
        )
        if completed.returncode == 0:
            results.append(json.loads(completed.stdout))
        else:
            lines = completed.stderr.strip().splitlines()
            results.append({**config, "error": lines[-1] if lines else "crashed"})
    return results


def write_report(name: str, text_name: str, payload: dict, text: str) -> Path:
    """Write ``reports/BENCH_<name>.json`` and ``reports/<text_name>.txt``."""
    REPORTS_DIR.mkdir(exist_ok=True)
    path = REPORTS_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    (REPORTS_DIR / f"{text_name}.txt").write_text(text + "\n")
    return path


def main(
    script: str,
    measure: Callable[..., dict],
    configs: Mapping[str, Sequence[dict]],
    analyse: Callable[[list[dict]], tuple[str, dict, list[str]]],
    report: tuple[str, str],
    argv: list[str] | None = None,
) -> int:
    """The scaling benches' command line: a full run, ``--quick`` or ``--smoke``.

    ``configs`` maps ``"full"``, ``"quick"`` and ``"smoke"`` to the
    configurations each run sweeps.  ``analyse(results)`` returns the
    table, the report payload and the envelope violations.  Only a full
    run writes the ``report = (name, text_name)`` files.  Returns 1 when
    any configuration failed or any envelope was violated.
    """
    parser = argparse.ArgumentParser(
        prog=Path(script).name,
        description="Measure each configuration in a fresh interpreter.",
    )
    parser.add_argument(
        "--measure", metavar="CONFIG", help="internal: measure one JSON configuration"
    )
    parser.add_argument("--quick", action="store_true", help="small sizes for local sanity runs")
    parser.add_argument(
        "--smoke", action="store_true", help="the CI smoke configurations (honours REPRO_JOBS)"
    )
    args = parser.parse_args(argv)

    if args.measure:
        print(json.dumps(measure(**json.loads(args.measure))))
        return 0

    mode = "smoke" if args.smoke else "quick" if args.quick else "full"
    results = sweep(script, configs[mode])
    text, payload, violations = analyse(results)
    print(text)
    if mode == "full":
        path = write_report(*report, payload, text)
        print(f"\nstructured output: {path}")
    failed = [r for r in results if "error" in r]
    if failed:
        print(f"\n{len(failed)} configuration(s) failed", file=sys.stderr)
    if violations:
        print("\n" + "\n".join(violations), file=sys.stderr)
    return 1 if failed or violations else 0
