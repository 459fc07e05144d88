"""Command line for the flow analyzer: ``python -m repro.analysis.flow``.

Exit codes: 0 clean (no non-baselined findings), 1 findings, 2 usage
error, 3 the ``--max-seconds`` wall-clock budget was exceeded (the CI
gate keeps the analyzer cheap enough to run on every push).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Iterable

from . import RULES, analyze_paths
from .report import (
    load_baseline,
    render_json,
    render_sarif,
    split_baselined,
    write_baseline,
)

__all__ = ["main"]

DEFAULT_BASELINE = ".flow-baseline.json"


def main(argv: Iterable[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.flow",
        description=(
            "Interprocedural dataflow analysis (rules RPR010, RPR011, RPR013): "
            "transitive blocking calls, RNG provenance, reduction-grid "
            "discipline."
        ),
    )
    parser.add_argument("paths", nargs="*", help="files or directories to analyze")
    parser.add_argument("--json", action="store_true", help="emit a JSON report on stdout")
    parser.add_argument(
        "--format",
        choices=("text", "sarif"),
        default="text",
        help="report format (default: text; --json overrides)",
    )
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE,
        help=f"grandfather-fingerprint file (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="grandfather every current finding into --baseline and exit 0",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="also write the rendered report to this file (for CI artifacts)",
    )
    parser.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="fail (exit 3) when analysis wall-clock exceeds this budget",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )
    args = parser.parse_args(list(argv) if argv is not None else None)

    if args.list_rules:
        for rule, description in sorted(RULES.items()):
            print(f"{rule}  {description}")
        return 0
    if not args.paths:
        parser.print_usage(sys.stderr)
        print("error: no paths given", file=sys.stderr)
        return 2

    started = time.monotonic()
    findings, checked = analyze_paths(args.paths)
    elapsed = time.monotonic() - started

    if args.write_baseline:
        write_baseline(args.baseline, findings)
        print(f"baseline written: {len(findings)} fingerprint(s) -> {args.baseline}")
        return 0

    try:
        baseline = load_baseline(args.baseline)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    new, grandfathered = split_baselined(findings, baseline)

    if args.json:
        rendered = render_json(new, grandfathered, checked)
    elif args.format == "sarif":
        rendered = render_sarif(new, RULES)
    else:
        lines = [finding.format() for finding in new]
        summary = (
            f"{len(new)} finding(s) ({len(grandfathered)} baselined) "
            f"in {checked} file(s), {elapsed:.2f}s"
        )
        lines.append(summary if new else f"clean: {summary}")
        rendered = "\n".join(lines)
    print(rendered)
    if args.output is not None:
        Path(args.output).write_text(rendered + "\n", encoding="utf-8")

    if args.max_seconds is not None and elapsed > args.max_seconds:
        print(
            f"error: analysis took {elapsed:.2f}s > budget {args.max_seconds:.2f}s",
            file=sys.stderr,
        )
        return 3
    return 1 if new else 0


if __name__ == "__main__":
    sys.exit(main())
