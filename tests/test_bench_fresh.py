"""The scaling benches' fresh-interpreter runner (``benchmarks/fresh.py``).

A tiny bench script, written per test, stands in for the real benches:
its ``measure`` squares a value and raises on a negative one, so each
test spends a few short child interpreters, not a scaling sweep.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))  # ``benchmarks`` is not an installed package

from benchmarks import fresh  # noqa: E402

_SCRIPT = """
import sys

sys.path.insert(0, {root!r})
from benchmarks import fresh


def measure(value):
    if value < 0:
        raise ValueError(f"negative value {{value}}")
    return {{"value": value, "square": value * value}}


if __name__ == "__main__":
    sys.exit(fresh.main(__file__, measure, {{}}, None, report=("tiny", "tiny_table")))
"""


@pytest.fixture
def script(tmp_path):
    path = tmp_path / "bench_tiny.py"
    path.write_text(_SCRIPT.format(root=str(ROOT)))
    return path


@pytest.fixture
def reports(tmp_path, monkeypatch):
    path = tmp_path / "reports"
    monkeypatch.setattr(fresh, "REPORTS_DIR", path)
    return path


def _analyse(results):
    """Table, payload and violations: a square above 50 breaks the envelope."""
    text = "\n".join(json.dumps(r) for r in results)
    violations = [f"square {r['square']}" for r in results if r.get("square", 0) > 50]
    return text, {"results": results}, violations


def _main(script, configs, *argv):
    return fresh.main(str(script), None, configs, _analyse, ("tiny", "tiny_table"), list(argv))


def test_sweep_returns_the_child_json(script):
    assert fresh.sweep(script, [{"value": 3}]) == [{"value": 3, "square": 9}]


def test_sweep_turns_a_crash_into_an_error_row(script):
    (result,) = fresh.sweep(script, [{"value": -2}])
    assert result == {"value": -2, "error": "ValueError: negative value -2"}


def test_sweep_passes_skipped_configs_without_a_process(script, monkeypatch):
    def no_process(*args, **kwargs):
        raise AssertionError("a skipped configuration started a process")

    monkeypatch.setattr(fresh.subprocess, "run", no_process)
    config = {"value": 4, "skipped": "too large"}
    assert fresh.sweep(script, [config]) == [config]


@pytest.mark.parametrize("flag", ["--quick", "--smoke"])
def test_quick_and_smoke_write_nothing(script, reports, flag):
    configs = {"quick": [{"value": 2}], "smoke": [{"value": 2}]}
    assert _main(script, configs, flag) == 0
    assert not reports.exists()


def test_full_run_writes_the_json_and_the_table(script, reports):
    assert _main(script, {"full": [{"value": 2}]}) == 0
    row = {"value": 2, "square": 4}
    assert json.loads((reports / "BENCH_tiny.json").read_text()) == {"results": [row]}
    assert (reports / "tiny_table.txt").read_text() == json.dumps(row) + "\n"


@pytest.mark.parametrize(
    ("configs", "message"),
    [
        ([{"value": 1}, {"value": -1}], "1 configuration(s) failed"),
        ([{"value": 1}, {"value": 8}], "square 64"),
    ],
)
def test_exit_code_is_one_on_a_failure_or_a_violation(script, reports, capsys, configs, message):
    assert _main(script, {"full": configs}) == 1
    assert message in capsys.readouterr().err
