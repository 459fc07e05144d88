"""Harness test: every workload at tiny size, through the real command line.

Collected by ``pytest benchmarks/suite``; it runs the untraced and the
traced smoke runs once (a few seconds) and checks them against
BENCHMARK.json, and checks ``compare`` on hand-made result files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any

import pytest

from .compare import compare

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _suite(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.suite", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory: pytest.TempPathFactory) -> dict[str, Any]:
    """Both smoke runs: their result files and their last output lines."""
    directory = tmp_path_factory.mktemp("suite")
    runs: dict[str, Any] = {}
    for kind, extra in (("end_to_end", ()), ("per_layer", ("--trace",))):
        path = directory / f"{kind}.json"
        done = _suite("run", "--smoke", "--out", str(path), *extra)
        assert done.returncode == 0, done.stderr
        runs[kind] = {
            "path": path,
            "document": json.loads(path.read_text()),
            "line": json.loads(done.stdout.strip().splitlines()[-1]),
        }
    return runs


@pytest.mark.parametrize("section", ["end_to_end", "per_layer"])
def test_emitted_names_equal_benchmark_json(smoke: dict[str, Any], section: str) -> None:
    run = smoke[section]
    assert list(run["document"]["workloads"]) == WORKLOADS
    expected = {
        f"{workload}/{metric['name']}" for workload in WORKLOADS for metric in SPEC[section]
    }
    assert set(run["line"]["metrics"]) == expected
    assert run["line"]["correct"] and run["line"]["failed"] == 0


def test_traced_decomposition_matches_aggregate(smoke: dict[str, Any]) -> None:
    for name, entry in smoke["per_layer"]["document"]["workloads"].items():
        (run,) = entry["runs"]
        assert run["mismatched"] == 0, name
        assert run["failed"] == 0, name
        assert run["spans"][0]["name"] == "bench.op", name


def test_compare_of_a_file_with_itself_reports_nothing(smoke: dict[str, Any]) -> None:
    for section in ("end_to_end", "per_layer"):
        path = str(smoke[section]["path"])
        done = _suite("compare", path, path)
        assert done.returncode == 0, done.stdout + done.stderr
        assert "regressed" not in done.stdout and "unresolved" not in done.stdout


def _document(seed: int, runs: list[dict[str, float]]) -> dict[str, Any]:
    """A result file of one workload whose runs report ``runs``' metrics."""
    env = {"seed": seed, "seconds": 10, "trace": False, "smoke": False}
    return {
        "env": env,
        "workloads": {
            WORKLOADS[0]: {
                "runs": [{"attempted": 3, "failed": 0, "metrics": metrics} for metrics in runs]
            }
        },
    }


def test_compare_skips_metrics_that_some_runs_lack() -> None:
    base = {"op_s.p50": 1.0, "setup_s": 0.3, "peak_rss_mib": 100.0, "disagreements": 50.0}
    runs = [{**base, "op_s.p90": 1.5}, base, base]
    report, regressed = compare(_document(0, runs), _document(0, runs), SPEC)
    assert not regressed
    assert "op_s.p90" not in report
    flags = [line.split()[-1] for line in report.splitlines()[3:]]
    assert flags == ["ok"] * (len(SPEC["end_to_end"]) + 1)  # and fail_ratio


def test_compare_regresses_on_any_increase_of_disagreements() -> None:
    old = {"op_s.p50": 1.0, "setup_s": 0.3, "peak_rss_mib": 100.0, "disagreements": 1000.0}
    new = {**old, "disagreements": 1001.0}
    report, regressed = compare(_document(0, [old] * 3), _document(0, [new] * 3), SPEC)
    assert regressed
    (row,) = [line for line in report.splitlines() if "disagreements" in line]
    assert row.endswith("regressed")


def test_compare_refuses_files_of_other_settings() -> None:
    runs = [{"op_s.p50": 1.0}]
    with pytest.raises(ValueError, match="seed"):
        compare(_document(0, runs), _document(1, runs), SPEC)


def test_run_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "benchmarks" / "suite",
        tmp_path / "benchmarks" / "suite",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = _suite("run", "--workload", WORKLOADS[0], "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
