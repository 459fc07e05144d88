"""Flow analyzer tests: call graph, RPR010, RPR011, RPR013, reports, CLI, gate.

Every rule is proven both ways: it fires on a seeded synthetic violation
and stays silent on the corrected version of the same code.  Synthetic
sources use ``repro``-package paths because every pass scopes off the
module's position inside the package tree (RPR010: ``serve`` only,
RPR013: kernel subpackages only).
"""

from __future__ import annotations

import json
import textwrap
import time

import pytest

from repro.analysis.flow import RULES, analyze_paths, analyze_sources
from repro.analysis.flow.blocking import compute_blocking
from repro.analysis.flow.callgraph import CallGraph, ModuleIndex, module_name_for
from repro.analysis.flow.cli import main
from repro.analysis.flow.report import (
    fingerprint,
    load_baseline,
    render_sarif,
    split_baselined,
    write_baseline,
)
from repro.analysis.flow.rng import compute_ships_params
from repro.analysis.lint import Finding

SERVE = "src/repro/serve/snippet.py"
PARALLEL = "src/repro/parallel/snippet.py"
CORE = "src/repro/core/snippet.py"


def flow(sources: dict[str, str]) -> list[Finding]:
    return analyze_sources(
        {path: textwrap.dedent(source) for path, source in sources.items()}
    )


def codes(sources: dict[str, str]) -> list[str]:
    return [finding.rule for finding in flow(sources)]


# ---------------------------------------------------------------------------
# Call graph construction
# ---------------------------------------------------------------------------


def test_module_naming_anchors_on_repro() -> None:
    assert module_name_for("src/repro/core/instance.py") == "repro.core.instance"
    assert module_name_for("src/repro/stream/__init__.py") == "repro.stream"
    assert module_name_for("tests/test_x.py") == "tests.test_x"


def test_alias_chase_through_init_reexport() -> None:
    index = ModuleIndex.from_sources(
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
    index = ModuleIndex.from_sources(
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
    index = ModuleIndex.from_sources(
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
    index = ModuleIndex.from_sources(
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
    assert (
        codes({SERVE: "import time\nasync def handler():\n    time.sleep(1)\n"}) == []
    )
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
# RPR011: RNG provenance
# ---------------------------------------------------------------------------

_POOL_STUB = "def pool(jobs, initializer=None, initargs=()):\n    return jobs\n"


def _fanout_source(first: str, second: str) -> dict[str, str]:
    return {
        PARALLEL: (
            "from repro.parallel.workers import pool\n"
            "def setup(r):\n    pass\n"
            "def run(i):\n    return i\n"
            "def fanout(work, rng):\n"
            f"    {first}\n"
            "    with pool(2, initializer=setup, initargs=(first,)) as workers:\n"
            "        a = workers.map(run, [1, 2])\n"
            f"    {second}\n"
            "    with pool(2, initializer=setup, initargs=(second,)) as workers:\n"
            "        b = workers.map(run, [3, 4])\n"
            "    return a + b\n"
        ),
        "src/repro/parallel/workers.py": _POOL_STUB,
    }


def test_rpr011_fires_on_generator_reaching_two_pools() -> None:
    findings = flow(_fanout_source("first = rng", "second = rng"))
    assert [f.rule for f in findings] == ["RPR011"]
    assert "second parallel-work site" in findings[0].message


def test_rpr011_silent_with_spawned_children() -> None:
    assert codes(_fanout_source("first = rng.spawn(1)", "second = rng.spawn(1)")) == []


def test_rpr011_fires_on_use_after_ship() -> None:
    findings = flow(
        {
            PARALLEL: (
                "from repro.parallel.workers import pool\n"
                "def setup(r):\n    pass\n"
                "def fanout(rng):\n"
                "    with pool(2, initializer=setup, initargs=(rng,)) as workers:\n"
                "        workers.map(setup, [1])\n"
                "    return rng.integers(10)\n"
            ),
            "src/repro/parallel/workers.py": _POOL_STUB,
        }
    )
    assert [f.rule for f in findings] == ["RPR011"]
    assert "after being shipped" in findings[0].message


def test_rpr011_fires_on_loop_carried_ship() -> None:
    findings = flow(
        {
            PARALLEL: (
                "from repro.parallel.workers import pool\n"
                "def setup(r):\n    pass\n"
                "def fanout(jobs_list, rng):\n"
                "    for jobs in jobs_list:\n"
                "        with pool(jobs, initializer=setup, initargs=(rng,)) as w:\n"
                "            w.map(setup, [1])\n"
            ),
            "src/repro/parallel/workers.py": _POOL_STUB,
        }
    )
    assert "RPR011" in [f.rule for f in findings]


def test_rpr011_fires_through_container_payload() -> None:
    findings = flow(
        {
            PARALLEL: (
                "from repro.parallel.workers import pool\n"
                "def run(spec):\n    return spec\n"
                "def fanout(methods, rng):\n"
                "    specs = [(m, rng) for m in methods]\n"
                "    with pool(2) as workers:\n"
                "        workers.map(run, specs)\n"
                "        workers.map(run, specs)\n"
            ),
            "src/repro/parallel/workers.py": _POOL_STUB,
        }
    )
    assert [f.rule for f in findings] == ["RPR011"]


def test_rpr011_interprocedural_ship_through_callee_param() -> None:
    sources = {
        PARALLEL: (
            "from repro.parallel.workers import pool\n"
            "def setup(r):\n    pass\n"
            "def dispatch(generator):\n"
            "    with pool(2, initializer=setup, initargs=(generator,)) as w:\n"
            "        w.map(setup, [1])\n"
            "def fanout(rng):\n"
            "    dispatch(rng)\n"
            "    dispatch(rng)\n"
        ),
        "src/repro/parallel/workers.py": _POOL_STUB,
    }
    index = ModuleIndex.from_sources(
        {path: textwrap.dedent(source) for path, source in sources.items()}
    )
    ships = compute_ships_params(CallGraph(index))
    assert ships["repro.parallel.snippet.dispatch"] == frozenset({"generator"})
    assert ships["repro.parallel.snippet.fanout"] == frozenset({"rng"})
    assert codes(sources) == ["RPR011"]


def test_rpr011_portfolio_spawn_list_pattern_is_clean() -> None:
    # The repo's portfolio idiom: children spawned up front, shipped once.
    assert (
        codes(
            {
                PARALLEL: (
                    "from repro.parallel.workers import pool\n"
                    "def setup(payload, specs):\n    pass\n"
                    "def run(i):\n    return i\n"
                    "def portfolio(methods, payload, rng):\n"
                    "    children = rng.spawn(len(methods))\n"
                    "    specs = [(m, children[i]) for i, m in enumerate(methods)]\n"
                    "    with pool(2, initializer=setup, initargs=(payload, specs)) as w:\n"
                    "        out = w.map(run, range(len(specs)))\n"
                    "    return [(specs[i][0], r) for i, r in enumerate(out)]\n"
                ),
                "src/repro/parallel/workers.py": _POOL_STUB,
            }
        )
        == []
    )


# ---------------------------------------------------------------------------
# RPR013: reduction-grid discipline
# ---------------------------------------------------------------------------


def test_rpr013_fires_on_ad_hoc_block_size() -> None:
    findings = flow(
        {
            CORE: (
                "def total(backend, n):\n"
                "    acc = 0.0\n"
                "    for start in range(0, n, 4096):\n"
                "        acc += backend.row_block(start, start + 4096).sum()\n"
                "    return acc\n"
            ),
        }
    )
    assert [f.rule for f in findings] == ["RPR013"]


@pytest.mark.parametrize(
    "header,step",
    [
        ("from repro.core.backend import reduction_block_rows\n", "reduction_block_rows(n)"),
        ("_BLOCK_ROWS = 2048\n", "_BLOCK_ROWS"),
        ("", "block_rows"),  # grid-named parameter
    ],
)
def test_rpr013_silent_on_grid_derived_steps(header: str, step: str) -> None:
    source = (
        header + "def total(backend, n, block_rows=64):\n"
        f"    step = {step}\n"
        "    acc = 0.0\n"
        "    for start in range(0, n, step):\n"
        "        acc += backend.row_block(start, start + step).sum()\n"
        "    return acc\n"
    )
    assert codes({CORE: source}) == []


def test_rpr013_scoped_to_kernel_packages_and_kernel_calls() -> None:
    loop = (
        "def total(rows, n):\n"
        "    acc = 0.0\n"
        "    for start in range(0, n, 512):\n"
        "        acc += rows[start]\n"
        "    return acc\n"
    )
    # No row_block-family call in the body: silent.
    assert codes({CORE: loop}) == []
    # Kernel call but outside the kernel subpackages: silent.
    kernel_loop = loop.replace("rows[start]", "rows.row_block(start, start + 512).sum()")
    assert codes({"src/repro/serve/snippet.py": kernel_loop}) == []
    assert codes({CORE: kernel_loop}) == ["RPR013"]


# ---------------------------------------------------------------------------
# Suppressions and analysis errors
# ---------------------------------------------------------------------------


def test_inline_suppression_silences_flow_finding() -> None:
    assert (
        codes(
            {
                CORE: (
                    "def total(backend, n):\n"
                    "    acc = 0.0\n"
                    "    for start in range(0, n, 4096):  # repolint: disable=RPR013\n"
                    "        acc += backend.row_block(start, start + 4096).sum()\n"
                    "    return acc\n"
                ),
            }
        )
        == []
    )


def test_unknown_suppression_code_is_an_error() -> None:
    findings = flow({CORE: "x = 1  # repolint: disable=RPR999\n"})
    assert [f.rule for f in findings] == ["RPR000"]
    assert "RPR999" in findings[0].message


def test_syntax_error_reported_as_rpr000() -> None:
    findings = flow({CORE: "def broken(:\n"})
    assert [f.rule for f in findings] == ["RPR000"]


# ---------------------------------------------------------------------------
# Reports: fingerprints, baseline, SARIF
# ---------------------------------------------------------------------------


def _finding(line: int = 3, message: str = "m") -> Finding:
    return Finding(path="src/repro/core/x.py", line=line, col=1, rule="RPR013", message=message)


def test_fingerprint_is_line_independent() -> None:
    assert fingerprint(_finding(line=3)) == fingerprint(_finding(line=30))
    assert fingerprint(_finding(message="a")) != fingerprint(_finding(message="b"))


def test_baseline_round_trip_and_split(tmp_path) -> None:  # type: ignore[no-untyped-def]
    grandfathered = _finding(message="old")
    fresh = _finding(message="new")
    baseline_path = tmp_path / "baseline.json"
    write_baseline(baseline_path, [grandfathered])
    baseline = load_baseline(baseline_path)
    new, old = split_baselined([grandfathered, fresh], baseline)
    assert [f.message for f in new] == ["new"]
    assert [f.message for f in old] == ["old"]
    assert load_baseline(tmp_path / "missing.json") == frozenset()


def test_sarif_structure() -> None:
    document = json.loads(render_sarif([_finding()], RULES))
    assert document["version"] == "2.1.0"
    (run,) = document["runs"]
    (result,) = run["results"]
    assert result["ruleId"] == "RPR013"
    assert result["locations"][0]["physicalLocation"]["region"]["startLine"] == 3
    assert result["partialFingerprints"]["reproFlow/v1"] == fingerprint(_finding())
    rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    assert set(RULES) <= rule_ids


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

_VIOLATION = (
    "def total(backend, n):\n"
    "    acc = 0.0\n"
    "    for start in range(0, n, 4096):\n"
    "        acc += backend.row_block(start, start + 4096).sum()\n"
    "    return acc\n"
)


def _violation_tree(tmp_path):  # type: ignore[no-untyped-def]
    package = tmp_path / "src" / "repro" / "core"
    package.mkdir(parents=True)
    (package / "snippet.py").write_text(_VIOLATION, encoding="utf-8")
    return tmp_path / "src"


def test_cli_text_json_and_exit_codes(tmp_path, capsys) -> None:  # type: ignore[no-untyped-def]
    root = _violation_tree(tmp_path)
    baseline = tmp_path / "baseline.json"
    assert main([str(root), "--baseline", str(baseline)]) == 1
    assert "RPR013" in capsys.readouterr().out
    assert main([str(root), "--baseline", str(baseline), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"][0]["rule"] == "RPR013"
    assert payload["baselined"] == []
    assert main([]) == 2  # no paths
    capsys.readouterr()


def test_cli_write_baseline_grandfathers(tmp_path, capsys) -> None:  # type: ignore[no-untyped-def]
    root = _violation_tree(tmp_path)
    baseline = tmp_path / "baseline.json"
    assert main([str(root), "--baseline", str(baseline), "--write-baseline"]) == 0
    assert main([str(root), "--baseline", str(baseline)]) == 0
    out = capsys.readouterr().out
    assert "1 baselined" in out


def test_cli_sarif_output_file(tmp_path, capsys) -> None:  # type: ignore[no-untyped-def]
    root = _violation_tree(tmp_path)
    sarif_path = tmp_path / "flow.sarif"
    status = main(
        [
            str(root),
            "--baseline",
            str(tmp_path / "baseline.json"),
            "--format",
            "sarif",
            "--output",
            str(sarif_path),
        ]
    )
    capsys.readouterr()
    assert status == 1
    document = json.loads(sarif_path.read_text(encoding="utf-8"))
    assert document["runs"][0]["results"][0]["ruleId"] == "RPR013"


def test_cli_max_seconds_budget(tmp_path, capsys) -> None:  # type: ignore[no-untyped-def]
    root = _violation_tree(tmp_path)
    baseline = tmp_path / "baseline.json"
    assert main([str(root), "--baseline", str(baseline), "--max-seconds", "0"]) == 3
    assert main([str(root), "--baseline", str(baseline), "--max-seconds", "300"]) == 1
    capsys.readouterr()


def test_cli_list_rules(capsys) -> None:  # type: ignore[no-untyped-def]
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in RULES:
        assert rule in out


# ---------------------------------------------------------------------------
# Repository gate: the tree itself is flow-clean and fast to analyze
# ---------------------------------------------------------------------------


def test_repository_is_flow_clean_and_fast() -> None:
    started = time.monotonic()
    findings, checked = analyze_paths(["src"])
    elapsed = time.monotonic() - started
    assert findings == [], [finding.format() for finding in findings]
    assert checked > 50
    assert elapsed < 30.0, f"flow analysis took {elapsed:.1f}s"
