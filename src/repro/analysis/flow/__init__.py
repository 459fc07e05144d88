"""Interprocedural dataflow analysis over the ``repro`` package.

``repro.analysis.flow`` complements repolint's per-line rules
(RPR001–RPR009, RPR012, RPR014) with whole-program passes over a
module-level call graph (:mod:`.callgraph`):

======  ==============================================================
RPR010  ``async def`` under ``repro/serve/`` transitively reaches a
        blocking call (sleep / file I/O / pool fan-out) — repolint's
        RPR009 stays as the direct-call fast path.
RPR011  one ``np.random.Generator`` reaches two parallel-work sites
        without an intervening ``spawn()``, or is used again after
        being shipped to a worker.
RPR013  a blocked kernel loop steps by an ad-hoc size instead of the
        shared reduction grid.
======  ==============================================================

Run it with ``python -m repro.analysis.flow src`` (``--json``,
``--format sarif``, ``--baseline``).  Inline suppressions share
repolint's ``# repolint: disable=RPRnnn`` syntax; unknown codes are
RPR000 errors.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from ..lint import Finding
from ..suppress import extract_suppressions
from .blocking import check_blocking
from .callgraph import CallGraph, ModuleIndex
from .grid import check_grid
from .rng import check_rng

__all__ = ["RULES", "analyze_index", "analyze_paths", "analyze_sources"]

RULES: dict[str, str] = {
    "RPR010": "serve/ async handler transitively reaches a blocking call",
    "RPR011": "one np.random.Generator reaches two parallel-work sites without spawn()",
    "RPR013": "blocked kernel loop uses an ad-hoc block size instead of the reduction grid",
}


def analyze_index(index: ModuleIndex) -> list[Finding]:
    """All flow findings for a built index, suppressions applied."""
    graph = CallGraph(index)
    findings: list[Finding] = []
    findings.extend(check_blocking(graph))
    findings.extend(check_rng(graph))
    findings.extend(check_grid(graph))
    findings.extend(
        Finding(path=path, line=line, col=1, rule="RPR000", message=message)
        for path, line, message in index.errors
    )
    by_path: dict[str, list[Finding]] = {}
    for finding in findings:
        by_path.setdefault(finding.path, []).append(finding)
    kept: list[Finding] = []
    trees = {path: tree for path, _module, tree in index.files}
    for path, source in index.sources.items():
        suppressions = extract_suppressions(source, trees.get(path))
        kept.extend(
            finding
            for finding in by_path.get(path, [])
            if finding.rule not in suppressions.active(finding.line)
        )
        kept.extend(
            Finding(
                path=path,
                line=line,
                col=1,
                rule="RPR000",
                message=f"unknown rule code {code!r} in repolint suppression",
            )
            for line, code in suppressions.errors
        )
    # Findings in files the index failed to parse (no source entry).
    kept.extend(
        finding for finding in findings if finding.path not in index.sources
    )
    return sorted(kept, key=lambda f: (f.path, f.line, f.col, f.rule))


def analyze_paths(paths: Sequence[str | Path]) -> tuple[list[Finding], int]:
    """Analyze files/directories; returns ``(findings, files_indexed)``."""
    index = ModuleIndex.build(paths)
    return analyze_index(index), len(index.files) + len(index.errors)


def analyze_sources(sources: dict[str, str]) -> list[Finding]:
    """Analyze in-memory ``{path: source}`` (test and fixture entry point)."""
    return analyze_index(ModuleIndex.from_sources(sources))
