"""repolint's whole-program rule RPR010 and the call graph it reads.

Every check is proven both ways: it fires on a seeded synthetic violation
and stays silent on the corrected version of the same code.  Synthetic
sources use ``repro``-package paths because RPR010 scopes off the
module's position inside the package tree (``serve`` only).
"""

from __future__ import annotations

import ast
import json
import textwrap
import time
from pathlib import Path

import pytest

from repro.analysis.blocking import compute_blocking
from repro.analysis.callgraph import CallGraph, ModuleIndex, module_name_for
from repro.analysis.lint import Finding, lint_paths, lint_sources, main

SERVE = "src/repro/serve/snippet.py"
CORE = "src/repro/core/snippet.py"


def flow(sources: dict[str, str]) -> list[Finding]:
    return lint_sources({path: textwrap.dedent(source) for path, source in sources.items()})


def codes(sources: dict[str, str]) -> list[str]:
    return [finding.rule for finding in flow(sources)]


def index_of(sources: dict[str, str]) -> ModuleIndex:
    return ModuleIndex({path: ast.parse(source) for path, source in sources.items()})


# ---------------------------------------------------------------------------
# Call graph construction
# ---------------------------------------------------------------------------


def test_module_naming_anchors_on_repro() -> None:
    assert module_name_for("src/repro/core/instance.py") == "repro.core.instance"
    assert module_name_for("src/repro/stream/__init__.py") == "repro.stream"
    assert module_name_for("tests/test_x.py") == "tests.test_x"


def test_alias_chase_through_init_reexport() -> None:
    index = index_of(
        {
            "src/repro/stream/__init__.py": "from .checkpoint import load_checkpoint\n",
            "src/repro/stream/checkpoint.py": "def load_checkpoint(path):\n    return path\n",
            "src/repro/serve/app.py": (
                "from repro.stream import load_checkpoint\n"
                "def go(p):\n    return load_checkpoint(p)\n"
            ),
        }
    )
    graph = CallGraph(index)
    (site,) = graph.sites["repro.serve.app.go"]
    assert site.callee == "repro.stream.checkpoint.load_checkpoint"


def test_method_resolution_walks_base_classes() -> None:
    index = index_of(
        {
            "src/repro/core/snippet.py": (
                "class Base:\n"
                "    def step(self):\n        return 1\n"
                "class Child(Base):\n"
                "    def run(self):\n        return self.step()\n"
            ),
        }
    )
    graph = CallGraph(index)
    (site,) = graph.sites["repro.core.snippet.Child.run"]
    assert site.callee == "repro.core.snippet.Base.step"


def test_higher_order_edges_map_and_executor() -> None:
    index = index_of(
        {
            "src/repro/parallel/snippet.py": (
                "from functools import partial\n"
                "from repro.parallel.workers import pool\n"
                "def work(i):\n    return i\n"
                "def fan(items):\n"
                "    with pool(2) as workers:\n"
                "        return workers.map(work, items)\n"
                "async def hand_off(loop, x):\n"
                "    return await loop.run_in_executor(None, partial(work, x))\n"
            ),
            "src/repro/parallel/workers.py": "def pool(jobs):\n    return jobs\n",
        }
    )
    graph = CallGraph(index)
    fan_roles = {s.role: s for s in graph.sites["repro.parallel.snippet.fan"]}
    assert fan_roles["fanout"].indirect == ("repro.parallel.snippet.work",)
    executor = [
        s for s in graph.sites["repro.parallel.snippet.hand_off"] if s.role == "executor"
    ]
    assert executor[0].indirect == ("repro.parallel.snippet.work",)


def test_blocking_fixpoint_propagates_through_sync_chain() -> None:
    index = index_of(
        {
            "src/repro/serve/snippet.py": (
                "import time\n"
                "def deep():\n    time.sleep(1)\n"
                "def mid():\n    return deep()\n"
                "def top():\n    return mid()\n"
                "def innocent():\n    return 1\n"
            ),
        }
    )
    blocking = compute_blocking(CallGraph(index))
    top = blocking["repro.serve.snippet.top"]
    assert top.desc == "`time.sleep()`"
    assert top.chain == (
        "repro.serve.snippet.top",
        "repro.serve.snippet.mid",
        "repro.serve.snippet.deep",
    )
    assert "repro.serve.snippet.innocent" not in blocking


# ---------------------------------------------------------------------------
# RPR010: transitive blocking in serve/ async handlers
# ---------------------------------------------------------------------------

_BLOCKING_HELPER = """
    import time
    def helper(x):
        return deeper(x)
    def deeper(x):
        time.sleep(0.1)
        return x
"""


def test_rpr010_fires_on_transitive_sleep() -> None:
    findings = flow(
        {
            SERVE: (
                "from repro.serve.helpers import helper\n"
                "async def handler(request):\n"
                "    return helper(request)\n"
            ),
            "src/repro/serve/helpers.py": _BLOCKING_HELPER,
        }
    )
    assert [f.rule for f in findings] == ["RPR010"]
    assert "time.sleep" in findings[0].message
    assert "helper" in findings[0].message  # witness chain names the route


def test_rpr010_silent_when_handed_to_executor() -> None:
    assert (
        codes(
            {
                SERVE: (
                    "import asyncio\n"
                    "from repro.serve.helpers import helper\n"
                    "async def handler(loop, request):\n"
                    "    return await loop.run_in_executor(None, helper, request)\n"
                ),
                "src/repro/serve/helpers.py": _BLOCKING_HELPER,
            }
        )
        == []
    )


def test_rpr010_skips_direct_primitives_and_non_serve() -> None:
    # Direct primitive: RPR009's fast path, not RPR010.
    assert codes({SERVE: "import time\nasync def handler():\n    time.sleep(1)\n"}) == [
        "RPR009"
    ]
    # Same transitive chain outside serve/: out of scope.
    assert (
        codes(
            {
                "src/repro/core/snippet.py": (
                    "from repro.core.helpers import helper\n"
                    "async def handler(request):\n"
                    "    return helper(request)\n"
                ),
                "src/repro/core/helpers.py": _BLOCKING_HELPER,
            }
        )
        == []
    )


def test_rpr010_fires_on_await_into_blocking_coroutine() -> None:
    findings = flow(
        {
            SERVE: (
                "import time\n"
                "async def inner():\n"
                "    helper()\n"
                "async def handler():\n"
                "    await inner()\n"
                "def helper():\n"
                "    time.sleep(1)\n"
            ),
        }
    )
    rules = [(f.rule, f.line) for f in findings]
    assert ("RPR010", 5) in rules  # the await site in handler


# ---------------------------------------------------------------------------
# Suppressions, analysis errors and the command line
# ---------------------------------------------------------------------------

def _transitive_sleep(comment: str = "") -> dict[str, str]:
    return {
        SERVE: (
            "from repro.serve.helpers import helper\n"
            "async def handler(request):\n"
            f"    return helper(request){comment}\n"
        ),
        "src/repro/serve/helpers.py": _BLOCKING_HELPER,
    }


def test_inline_suppression_silences_flow_finding() -> None:
    assert codes(_transitive_sleep()) == ["RPR010"]
    assert codes(_transitive_sleep("  # repolint: disable=RPR010")) == []


def test_unknown_suppression_code_is_an_error() -> None:
    findings = flow({**_transitive_sleep(), CORE: "x = 1  # repolint: disable=RPR999\n"})
    assert [f.rule for f in findings] == ["RPR000", "RPR010"]
    assert "RPR999" in findings[0].message


def test_syntax_error_reported_as_rpr000() -> None:
    findings = flow({**_transitive_sleep(), CORE: "def broken(:\n"})
    assert [f.rule for f in findings] == ["RPR000", "RPR010"]


def _violation_tree(tmp_path):  # type: ignore[no-untyped-def]
    package = tmp_path / "src" / "repro" / "serve"
    package.mkdir(parents=True)
    for path, source in _transitive_sleep().items():
        (package / path.rsplit("/", 1)[1]).write_text(textwrap.dedent(source), encoding="utf-8")
    return tmp_path / "src"


def test_cli_text_json_and_exit_codes(tmp_path, capsys) -> None:  # type: ignore[no-untyped-def]
    root = _violation_tree(tmp_path)
    assert main([str(root)]) == 1
    assert "RPR010" in capsys.readouterr().out
    assert main([str(root), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [finding["rule"] for finding in payload["findings"]] == ["RPR010"]
    assert payload["files_checked"] == 2
    assert main([]) == 2  # no paths
    capsys.readouterr()


def test_cli_list_rules(capsys) -> None:  # type: ignore[no-untyped-def]
    assert main(["--list-rules"]) == 0
    rules = {line.split()[0] for line in capsys.readouterr().out.splitlines()}
    assert "RPR010" in rules
    assert not rules & {"RPR011", "RPR013"}  # retired rules


# ---------------------------------------------------------------------------
# Repository gate: the tree is RPR010-clean, and one lint run stays in budget
# ---------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]


def test_cli_max_seconds_budget(capsys) -> None:  # type: ignore[no-untyped-def]
    """The 30 s budget is held by the test, not by a ``--max-seconds`` flag."""
    started = time.monotonic()
    assert main([str(ROOT / "src")]) == 0
    elapsed = time.monotonic() - started
    assert capsys.readouterr().out.startswith("clean: ")
    assert elapsed < 30.0, f"python -m repro.analysis.lint src took {elapsed:.1f}s"
    with pytest.raises(SystemExit) as excinfo:
        main([str(ROOT / "src"), "--max-seconds", "30"])
    assert excinfo.value.code == 2  # the flag is gone, not ignored
    capsys.readouterr()


def test_repository_is_flow_clean_and_fast() -> None:
    started = time.monotonic()
    findings, checked = lint_paths([ROOT / "src"])
    elapsed = time.monotonic() - started
    assert findings == [], [finding.format() for finding in findings]
    assert checked > 50
    assert elapsed < 30.0, f"whole-program lint took {elapsed:.1f}s"
