"""Unified analysis entry point: ``python -m repro.analysis <paths>``.

Runs the whole static + dynamic enforcement stack in one command:

1. **repolint** (RPR001–RPR009, RPR012, RPR014) — per-line AST rules;
2. **flow** (RPR010, RPR011, RPR013) — interprocedural call-graph passes;
3. **contracts-smoke** — a tiny aggregation run with runtime contracts
   enabled, proving the ``REPRO_CONTRACTS`` hooks still validate the
   core invariants end to end.

Exit status is non-zero when any stage fails; each stage's own report
goes to stdout under a stage banner.
"""

from __future__ import annotations

import argparse
import sys
from typing import Iterable

from . import contracts
from .flow.cli import main as flow_main
from .lint import main as lint_main

__all__ = ["contracts_smoke", "main"]


def contracts_smoke() -> int:
    """Aggregate a small instance with every runtime contract armed."""
    import numpy as np

    from ..core.aggregate import aggregate

    labels = np.array(
        [[0, 0, 1, 1, 2], [0, 0, 1, 2, 2], [0, 1, 1, 1, 2]], dtype=np.int64
    ).T
    with contracts(True):
        result = aggregate(labels, method="balls")
    clustering = result.clustering
    ok = clustering.labels.shape == (5,) and result.cost >= 0.0
    print(
        f"contracts-smoke: cost={result.cost:.3f} k={clustering.k} -> "
        f"{'ok' if ok else 'FAIL'}"
    )
    return 0 if ok else 1


def main(argv: Iterable[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Run repolint + flow analysis + contracts smoke in one command.",
    )
    parser.add_argument("paths", nargs="+", help="files or directories to analyze")
    parser.add_argument("--json", action="store_true", help="JSON reports from both linters")
    parser.add_argument(
        "--skip-smoke", action="store_true", help="skip the runtime contracts smoke"
    )
    args = parser.parse_args(list(argv) if argv is not None else None)

    lint_argv = list(args.paths) + (["--json"] if args.json else [])
    print("== repolint ==")
    status = lint_main(lint_argv)
    print("== flow ==")
    status = max(status, flow_main(lint_argv))
    if not args.skip_smoke:
        print("== contracts ==")
        status = max(status, contracts_smoke())
    return status


if __name__ == "__main__":
    sys.exit(main())
