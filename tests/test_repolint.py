"""repolint rule tests: true positives, clean negatives, suppressions, CLI.

Each rule is exercised through :func:`repro.analysis.lint.lint_source` with
a synthetic ``path`` argument, because rule scoping (RPR002/003/005) keys
off the file's location inside the ``repro`` package tree.
"""

from __future__ import annotations

import json
import textwrap
import time

import pytest

from repro.analysis.lint import RULES, Finding, lint_paths, lint_source, main

CORE = "src/repro/core/snippet.py"
ALGOS = "src/repro/algorithms/snippet.py"
OUTSIDE = "tests/snippet.py"


def codes(source: str, path: str = CORE) -> list[str]:
    return [finding.rule for finding in lint_source(textwrap.dedent(source), path=path)]


# ---------------------------------------------------------------------------
# RPR001: global-state RNG
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "source",
    [
        "import numpy as np\nx = np.random.rand(3)\n",
        "import numpy as np\nnp.random.seed(0)\n",
        "import numpy.random as npr\nnpr.shuffle([1, 2])\n",
        "from numpy import random\nx = random.rand(2)\n",
        "from numpy.random import rand\n",
        "import random\nx = random.random()\n",
        "from random import shuffle\n",
    ],
)
def test_rpr001_flags_global_rng(source: str) -> None:
    assert codes(source) == ["RPR001"]


@pytest.mark.parametrize(
    "source",
    [
        "import numpy as np\nrng = np.random.default_rng(0)\nx = rng.random(3)\n",
        "import numpy as np\ng = np.random.Generator(np.random.PCG64(1))\n",
        "from numpy.random import Generator, SeedSequence\n",
        "from random import Random\nr = Random(0)\nx = r.random()\n",
        # A local variable named `random` is not the stdlib module.
        "def f(random):\n    return random.choice([1])\n",
    ],
)
def test_rpr001_allows_generator_api(source: str) -> None:
    assert codes(source) == []


def test_rpr001_applies_outside_the_library_too() -> None:
    assert codes("import random\nrandom.seed(1)\n", path=OUTSIDE) == ["RPR001"]


# ---------------------------------------------------------------------------
# RPR002: Python-level pair loops
# ---------------------------------------------------------------------------

PAIR_LOOP = """
    def pair_sum(X, n):
        total = 0.0
        for i in range(n):
            for j in range(n):
                total += X[i, j]
        return total
"""

CHAINED_PAIR_LOOP = """
    def pair_sum(X, n):
        total = 0.0
        for i in range(n):
            for j in range(i):
                total += X[i][j]
        return total
"""

BLOCKED_LOOP = """
    def pair_sum(X, n, block):
        total = 0.0
        for start in range(0, n, block):
            stop = min(start + block, n)
            total += float(X[start:stop, :].sum())
        return total
"""


def test_rpr002_flags_nested_pair_loop() -> None:
    findings = lint_source(textwrap.dedent(PAIR_LOOP), path=CORE)
    assert [f.rule for f in findings] == ["RPR002"]
    # Reported at the outer loop.
    assert findings[0].line == 4


def test_rpr002_flags_chained_subscripts() -> None:
    assert codes(CHAINED_PAIR_LOOP) == ["RPR002"]


def test_rpr002_allows_blocked_kernels() -> None:
    assert codes(BLOCKED_LOOP) == []


def test_rpr002_allows_single_loops_and_non_pair_bodies() -> None:
    assert codes("def f(X, n):\n    for i in range(n):\n        X[i] = 0.0\n") == []
    assert (
        codes(
            "def f(X, n):\n"
            "    for i in range(n):\n"
            "        for j in range(n):\n"
            "            pass\n"
        )
        == []
    )


def test_rpr002_scoped_to_hot_packages() -> None:
    assert codes(PAIR_LOOP, path=OUTSIDE) == []
    assert codes(PAIR_LOOP, path="src/repro/datasets/snippet.py") == []


def test_rpr002_covers_the_algorithms_package() -> None:
    # The pivot module lives under algorithms/ and must stay inside the
    # pair-loop rule's scope — a sweep rewritten as a Python double loop
    # would silently lose the near-linear guarantee otherwise.
    assert codes(PAIR_LOOP, path=ALGOS) == ["RPR002"]
    assert codes(PAIR_LOOP, path="src/repro/algorithms/pivot.py") == ["RPR002"]


def test_pivot_module_is_lint_clean() -> None:
    """``src/repro/algorithms/pivot.py`` passes every repolint rule."""
    from pathlib import Path

    module = Path(__file__).resolve().parents[1] / "src/repro/algorithms/pivot.py"
    findings, checked = lint_paths([module])
    assert checked == 1
    assert findings == [], "\n".join(f.format() for f in findings)


# ---------------------------------------------------------------------------
# RPR003: allocations need an explicit dtype in kernel modules
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "alloc",
    ["np.zeros((3, 3))", "np.empty(5)", "np.ones(4)", "np.full(4, 1.5)"],
)
def test_rpr003_flags_dtypeless_allocations(alloc: str) -> None:
    assert codes(f"import numpy as np\nx = {alloc}\n") == ["RPR003"]


@pytest.mark.parametrize(
    "alloc",
    [
        "np.zeros((3, 3), dtype=np.float64)",
        "np.empty(5, np.float32)",  # positional dtype
        "np.full(4, 1.5, dtype=np.float64)",
        "np.zeros_like(y)",  # inherits dtype; not an RPR003 target
    ],
)
def test_rpr003_allows_explicit_dtype(alloc: str) -> None:
    assert codes(f"import numpy as np\ny = None\nx = {alloc}\n") == []


def test_rpr003_scoped_to_kernel_packages() -> None:
    source = "import numpy as np\nx = np.zeros(3)\n"
    assert codes(source, path=OUTSIDE) == []
    assert codes(source, path="src/repro/datasets/snippet.py") == []


# ---------------------------------------------------------------------------
# RPR004: mutable defaults and Clustering.labels mutation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "source",
    [
        "def f(items=[]):\n    return items\n",
        "def f(*, cache={}):\n    return cache\n",
        "def f(x=dict()):\n    return x\n",
        "def f(x=set()):\n    return x\n",
    ],
)
def test_rpr004_flags_mutable_defaults(source: str) -> None:
    assert codes(source) == ["RPR004"]


@pytest.mark.parametrize(
    "source",
    [
        "c.labels[0] = 1\n",
        "c.labels[2:4] = 0\n",
        "c.labels[0] += 1\n",
        "c.labels.sort()\n",
        "c.labels.fill(0)\n",
    ],
)
def test_rpr004_flags_labels_mutation(source: str) -> None:
    assert codes(source) == ["RPR004"]


@pytest.mark.parametrize(
    "source",
    [
        "def f(items=None):\n    return items or []\n",
        "def f(x=()):\n    return x\n",
        "labels = c.labels.copy()\nlabels[0] = 1\n",
        "k = c.labels.max()\n",  # non-mutating method is fine
    ],
)
def test_rpr004_clean_patterns(source: str) -> None:
    assert codes(source) == []


# ---------------------------------------------------------------------------
# RPR005: the rng signature convention (library files only)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "source",
    [
        "def sample(data, seed=0):\n    return data\n",
        "def sample(data, random_state=None):\n    return data\n",
        "def sample(data, rng=None):\n    return data\n",  # missing annotation
        "import numpy as np\n"
        "def sample(data, rng: np.random.Generator = None):\n    return data\n",
    ],
)
def test_rpr005_flags_nonconforming_signatures(source: str) -> None:
    assert codes(source, path=ALGOS) == ["RPR005"]


@pytest.mark.parametrize(
    "source",
    [
        "import numpy as np\n"
        "def sample(data, rng: np.random.Generator | int | None = None):\n"
        "    return data\n",
        "def _helper(rng):\n    return rng\n",  # private functions are exempt
        "def sample(data):\n    return data\n",
    ],
)
def test_rpr005_clean_signatures(source: str) -> None:
    assert codes(source, path=ALGOS) == []


def test_rpr005_scoped_to_library_files() -> None:
    assert codes("def sample(data, seed=0):\n    return data\n", path=OUTSIDE) == []


# ---------------------------------------------------------------------------
# Suppression comments
# ---------------------------------------------------------------------------


def test_line_suppression_silences_matching_rule() -> None:
    source = "import random\nrandom.seed(1)  # repolint: disable=RPR001\n"
    assert codes(source) == []


def test_line_suppression_ignores_other_rules() -> None:
    source = "import random\nrandom.seed(1)  # repolint: disable=RPR003\n"
    assert codes(source) == ["RPR001"]


def test_line_suppression_accepts_comma_separated_codes() -> None:
    source = "import random\nrandom.seed(1)  # repolint: disable=RPR003, RPR001\n"
    assert codes(source) == []


def test_file_wide_suppression() -> None:
    source = (
        "# repolint: disable-file=RPR001\n"
        "import random\n"
        "random.seed(1)\n"
        "random.random()\n"
    )
    assert codes(source) == []


def test_syntax_error_reports_rpr000() -> None:
    findings = lint_source("def broken(:\n", path=OUTSIDE)
    assert [f.rule for f in findings] == ["RPR000"]


# ---------------------------------------------------------------------------
# RPR006: multiprocessing pools outside repro.parallel
# ---------------------------------------------------------------------------

PARALLEL = "src/repro/parallel/snippet.py"


@pytest.mark.parametrize(
    "source",
    [
        "from multiprocessing import Pool\n",
        "from multiprocessing.pool import Pool\n",
        "from multiprocessing.pool import ThreadPool\n",
        "from multiprocessing.dummy import Pool\n",
        "import multiprocessing\np = multiprocessing.Pool(2)\n",
        "import multiprocessing as mp\np = mp.Pool(2)\n",
        "import multiprocessing as mp\np = mp.pool.Pool(2)\n",
        "import multiprocessing.pool as mpp\np = mpp.Pool(2)\n",
        "from multiprocessing import pool\np = pool.Pool(2)\n",
        "import multiprocessing as mp\np = mp.get_context('fork').Pool(2)\n",
        "from multiprocessing import get_context\np = get_context('fork').Pool(2)\n",
    ],
)
def test_rpr006_flags_direct_pools(source: str) -> None:
    assert codes(source) == ["RPR006"]
    assert codes(source, path=OUTSIDE) == ["RPR006"]


@pytest.mark.parametrize(
    "source",
    [
        "from multiprocessing import Pool\n",
        "import multiprocessing as mp\np = mp.Pool(2)\n",
        "from multiprocessing import get_context\np = get_context('fork').Pool(2)\n",
    ],
)
def test_rpr006_exempts_the_parallel_package(source: str) -> None:
    assert codes(source, path=PARALLEL) == []


@pytest.mark.parametrize(
    "source",
    [
        "import multiprocessing\n",
        "from multiprocessing import get_context\nctx = get_context('fork')\n",
        "from repro.parallel.build import pool\nworkers = pool(4)\n",
        # An unrelated object with a Pool attribute is not multiprocessing.
        "import threading\np = threading.Pool(2)\n",
    ],
)
def test_rpr006_allows_non_pool_multiprocessing(source: str) -> None:
    assert codes(source) == []


def test_rpr006_suppressible_inline() -> None:
    source = "from multiprocessing import Pool  # repolint: disable=RPR006\n"
    assert codes(source) == []


# ---------------------------------------------------------------------------
# RPR012: named shared memory in library code
# ---------------------------------------------------------------------------

_SHM_IMPORT = "from multiprocessing import shared_memory\n"


@pytest.mark.parametrize(
    "source",
    [
        _SHM_IMPORT + "def make(size, check):\n"
        "    shm = shared_memory.SharedMemory(create=True, size=size)\n"
        "    validate(check)\n"
        "    shm.close()\n"
        "    shm.unlink()\n",
        _SHM_IMPORT + "def make(size):\n"
        "    shm = shared_memory.SharedMemory(create=True, size=size)\n"
        "    shm.close()\n",
        _SHM_IMPORT + "def make(size, keep):\n"
        "    shm = shared_memory.SharedMemory(name='seg')\n"
        "    if keep:\n"
        "        shm.close()\n",
        _SHM_IMPORT + "def attach(name):\n"
        "    shm = shared_memory.SharedMemory(name=name)\n"
        "    return ('instance', shm)\n",
        _SHM_IMPORT,
        "import multiprocessing.shared_memory\n",
        "import multiprocessing.shared_memory as shm\n",
        "from multiprocessing.shared_memory import SharedMemory\n",
        "from multiprocessing.managers import SharedMemoryManager\n",
    ],
    ids=[
        "exception-path-leak",
        "owner-not-unlinked",
        "one-armed-close",
        "creator-returns-segment",
        "from-import-module",
        "import-module",
        "import-module-as",
        "from-import-class",
        "from-import-manager",
    ],
)
def test_rpr012_flags_named_shared_memory(source: str) -> None:
    # Every named segment is a finding, however carefully it is released.
    assert codes(source) == ["RPR012"]
    assert codes(source, path=PARALLEL) == ["RPR012"]


def test_rpr012_scoped_to_library_files() -> None:
    # Tests and benchmarks may inspect shared memory freely.
    assert codes(_SHM_IMPORT, path=OUTSIDE) == []
    assert codes(_SHM_IMPORT, path="benchmarks/bench_x.py") == []


def test_rpr012_allows_anonymous_mmap() -> None:
    source = "import mmap\nbuffer = mmap.mmap(-1, 4096)\n"
    assert codes(source, path=PARALLEL) == []


def test_rpr012_suppressible_inline() -> None:
    assert codes(_SHM_IMPORT.rstrip("\n") + "  # repolint: disable=RPR012\n") == []


# ---------------------------------------------------------------------------
# RPR007: raw perf_counter outside repro.obs
# ---------------------------------------------------------------------------

OBS = "src/repro/obs/snippet.py"


@pytest.mark.parametrize(
    "source",
    [
        "import time\nt = time.perf_counter()\n",
        "import time\nt = time.perf_counter_ns()\n",
        "import time as t\nstart = t.perf_counter()\n",
        "from time import perf_counter\n",
        "from time import perf_counter_ns\n",
        "from time import perf_counter as clock\n",
    ],
)
def test_rpr007_flags_raw_perf_counter(source: str) -> None:
    assert codes(source) == ["RPR007"]
    assert codes(source, path=ALGOS) == ["RPR007"]


@pytest.mark.parametrize(
    "source",
    [
        "import time\nt = time.perf_counter()\n",
        "from time import perf_counter\n",
    ],
)
def test_rpr007_exempts_the_obs_package(source: str) -> None:
    assert codes(source, path=OBS) == []


@pytest.mark.parametrize(
    "source",
    [
        "import time\nt = time.perf_counter()\n",
        "from time import perf_counter\n",
    ],
)
def test_rpr007_scoped_to_library_files(source: str) -> None:
    # Tests and benchmarks may time things however they like.
    assert codes(source, path=OUTSIDE) == []
    assert codes(source, path="benchmarks/bench_x.py") == []


@pytest.mark.parametrize(
    "source",
    [
        # Non-profiling time functions stay legal everywhere.
        "import time\ntime.sleep(0.1)\n",
        "import time\nnow = time.monotonic()\n",
        "from time import sleep\n",
        # A local variable named `time` is not the stdlib module.
        "def f(time):\n    return time.perf_counter()\n",
    ],
)
def test_rpr007_allows_other_time_functions(source: str) -> None:
    assert codes(source) == []


def test_rpr007_suppressible_inline() -> None:
    source = "import time\nt = time.perf_counter()  # repolint: disable=RPR007\n"
    assert codes(source) == []


# ---------------------------------------------------------------------------
# RPR008: raw pair-matrix access outside repro.core
# ---------------------------------------------------------------------------

WORKERS = "src/repro/parallel/workers.py"
PARALLEL = "src/repro/parallel/portfolio.py"


@pytest.mark.parametrize(
    "source",
    [
        "def f(instance):\n    return instance.X.sum()\n",
        "def f(instance):\n    return instance._X[0]\n",
        "def f(self):\n    self._X = None\n",
        "def f(instance, w):\n    return instance.X.astype(float) @ w\n",
    ],
)
def test_rpr008_flags_matrix_access_outside_core(source: str) -> None:
    assert codes(source, path=ALGOS) == ["RPR008"]
    assert codes(source, path=PARALLEL) == ["RPR008"]
    assert codes(source, path="src/repro/stream/engine.py") == ["RPR008"]


@pytest.mark.parametrize(
    "source",
    [
        "def f(instance):\n    return instance.X.sum()\n",
        "def f(self):\n    return self._X[0]\n",
    ],
)
def test_rpr008_exempts_core_and_the_shared_memory_fanout(source: str) -> None:
    assert codes(source) == []  # CORE path
    # Only core/ is exempt: the worker module gets no exemption either.
    assert codes(source, path=WORKERS) == ["RPR008"]


def test_rpr008_scoped_to_library_files() -> None:
    # Tests and benchmarks may poke the raw matrix freely.
    source = "def f(instance):\n    return instance.X\n"
    assert codes(source, path=OUTSIDE) == []
    assert codes(source, path="benchmarks/bench_x.py") == []


@pytest.mark.parametrize(
    "source",
    [
        # Other attribute names are untouched, including near-misses.
        "def f(instance):\n    return instance.Xs\n",
        "def f(instance):\n    return instance.backend.row_block(0, 8)\n",
        "def f(self):\n    return self._X_buffer\n",
    ],
)
def test_rpr008_allows_other_attributes(source: str) -> None:
    assert codes(source, path=ALGOS) == []


def test_rpr008_suppressible_inline() -> None:
    source = "def f(instance):\n    return instance.X  # repolint: disable=RPR008\n"
    assert codes(source, path=ALGOS) == []


# ---------------------------------------------------------------------------
# RPR009: blocking calls inside async def bodies (repro.serve only)
# ---------------------------------------------------------------------------

SERVE = "src/repro/serve/snippet.py"


@pytest.mark.parametrize(
    "source",
    [
        "import time\nasync def h():\n    time.sleep(1)\n",
        "from time import sleep\nasync def h():\n    sleep(0.1)\n",
        "async def h():\n    open('x')\n",
        "import numpy as np\nasync def h():\n    np.load('x.npz')\n",
        "import numpy as np\nasync def h():\n    np.savez_compressed('x.npz')\n",
        "async def h(path):\n    path.read_text()\n",
        "async def h(path):\n    path.write_bytes(b'x')\n",
        "from repro.parallel.build import pool\nasync def h():\n    pool(4)\n",
        "from repro.parallel import build\nasync def h():\n    build.pool(4)\n",
        "from repro.parallel.build import pool\nasync def h():\n    pool(4).map(str, [1])\n",
    ],
)
def test_rpr009_flags_blocking_calls_in_async_defs(source: str) -> None:
    assert "RPR009" in codes(source, path=SERVE)


@pytest.mark.parametrize(
    "source",
    [
        # Sync functions may block: the worker-thread targets live there.
        "import time\ndef apply():\n    time.sleep(1)\n    open('x')\n",
        # The sanctioned pattern: hand blocking work to the executor.
        "async def h(loop, fn):\n    await loop.run_in_executor(None, fn)\n",
        "import asyncio\nasync def h():\n    await asyncio.sleep(0.1)\n",
        # A sync helper nested inside an async def is executor fodder, not
        # event-loop code.
        "async def h():\n    def inner():\n        open('x')\n",
        # Non-file numpy stays usable in handlers.
        "import numpy as np\nasync def h(a):\n    return np.asarray(a)\n",
    ],
)
def test_rpr009_clean_async_patterns(source: str) -> None:
    assert codes(source, path=SERVE) == []


def test_rpr009_scoped_to_the_serve_package() -> None:
    source = "import time\nasync def h():\n    time.sleep(1)\n"
    assert codes(source, path=CORE) == []
    assert codes(source, path=OUTSIDE) == []


def test_rpr009_suppressible_inline() -> None:
    source = "async def h():\n    open('x')  # repolint: disable=RPR009\n"
    assert codes(source, path=SERVE) == []


# ---------------------------------------------------------------------------
# Findings, path handling, CLI
# ---------------------------------------------------------------------------


def test_finding_format_and_dict_round_trip() -> None:
    finding = Finding(path="a.py", line=3, col=7, rule="RPR001", message="boom")
    assert finding.format() == "a.py:3:7: RPR001 boom"
    assert finding.as_dict() == {
        "path": "a.py",
        "line": 3,
        "col": 7,
        "rule": "RPR001",
        "message": "boom",
    }


def test_lint_paths_walks_directories(tmp_path) -> None:
    package = tmp_path / "repro" / "core"
    package.mkdir(parents=True)
    (package / "bad.py").write_text("import numpy as np\nx = np.zeros(3)\n")
    (package / "good.py").write_text("import numpy as np\nx = np.zeros(3, dtype=np.float64)\n")
    findings, checked = lint_paths([tmp_path])
    assert checked == 2
    assert [f.rule for f in findings] == ["RPR003"]


def test_main_exit_codes(tmp_path, capsys) -> None:
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import random\nrandom.seed(1)\n")

    assert main([str(clean)]) == 0
    assert "clean" in capsys.readouterr().out
    assert main([str(dirty)]) == 1
    assert "RPR001" in capsys.readouterr().out
    assert main([]) == 2
    assert main(["--list-rules"]) == 0
    listing = capsys.readouterr().out
    for rule in RULES:
        assert rule in listing


def test_main_json_reports_every_rule_id(tmp_path, capsys) -> None:
    """Acceptance check: one fixture file per rule, each id surfaces in --json."""
    core = tmp_path / "repro" / "core"
    algos = tmp_path / "repro" / "algorithms"
    core.mkdir(parents=True)
    algos.mkdir(parents=True)
    (core / "r1.py").write_text("import random\nrandom.seed(1)\n")
    (core / "r2.py").write_text(textwrap.dedent(PAIR_LOOP))
    (core / "r3.py").write_text("import numpy as np\nx = np.zeros(3)\n")
    (core / "r4.py").write_text("def f(items=[]):\n    return items\n")
    (algos / "r5.py").write_text("def sample(data, seed=0):\n    return data\n")
    (core / "r6.py").write_text("from multiprocessing import Pool\n")
    (core / "r7.py").write_text("from time import perf_counter\n")
    (algos / "r8.py").write_text("def f(instance):\n    return instance.X\n")
    serve = tmp_path / "repro" / "serve"
    serve.mkdir(parents=True)
    (serve / "r9.py").write_text("import time\nasync def h():\n    time.sleep(1)\n")
    (core / "r12.py").write_text("from multiprocessing import shared_memory\n")

    exit_code = main(["--json", str(tmp_path)])
    report = json.loads(capsys.readouterr().out)

    assert exit_code == 1
    assert report["files_checked"] == 10
    seen = {finding["rule"] for finding in report["findings"]}
    assert seen == {
        "RPR001",
        "RPR002",
        "RPR003",
        "RPR004",
        "RPR005",
        "RPR006",
        "RPR007",
        "RPR008",
        "RPR009",
        "RPR012",
    }
    by_rule = {f["rule"]: f for f in report["findings"]}
    assert by_rule["RPR001"]["path"].endswith("r1.py")
    assert by_rule["RPR005"]["path"].endswith("r5.py")
    assert by_rule["RPR006"]["path"].endswith("r6.py")
    assert by_rule["RPR007"]["path"].endswith("r7.py")
    assert by_rule["RPR008"]["path"].endswith("r8.py")
    assert by_rule["RPR009"]["path"].endswith("r9.py")
    assert by_rule["RPR012"]["path"].endswith("r12.py")


def test_repository_is_lint_clean() -> None:
    """The shipped tree satisfies its own linter within 30 s (the CI gate)."""
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    started = time.monotonic()
    findings, checked = lint_paths([root / "src", root / "tests", root / "benchmarks"])
    elapsed = time.monotonic() - started
    assert checked > 50
    assert findings == [], "\n".join(f.format() for f in findings)
    assert elapsed < 30.0, f"repolint took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# RPR014: hand-rolled method dispatch outside repro.registry
# ---------------------------------------------------------------------------


def test_rpr014_flags_method_dispatch_dict() -> None:
    source = """\
    _METHODS = {"balls": balls, "furthest": furthest}
    """
    assert codes(source) == ["RPR014"]


def test_rpr014_flags_annotated_and_class_level_tables() -> None:
    annotated = 'SOLVERS: dict = {"a": solve_a, "b": lambda x: x}\n'
    assert codes(annotated) == ["RPR014"]
    class_level = """\
    class Runner:
        DISPATCH = {"a": run_a, "b": run_b}
    """
    assert codes(class_level) == ["RPR014"]


def test_rpr014_flags_method_elif_chain() -> None:
    source = """\
    def solve(method, instance):
        if method == "balls":
            return balls(instance)
        elif method == "furthest":
            return furthest(instance)
        elif method in ("agglomerative", "local-search"):
            return agglomerative(instance)
    """
    assert codes(source) == ["RPR014"]


def test_rpr014_flags_attribute_and_subscript_selectors() -> None:
    source = """\
    def route(args, spec):
        if args.method == "a":
            pass
        elif args.method == "b":
            pass
        elif args.method == "c":
            pass
    """
    assert codes(source) == ["RPR014"]
    subscript = """\
    def route(spec):
        if spec["method"] == "a":
            pass
        elif spec["method"] == "b":
            pass
        elif spec["method"] == "c":
            pass
    """
    assert codes(subscript) == ["RPR014"]


def test_rpr014_clean_patterns() -> None:
    # Tuples of accepted names are validation, not dispatch.
    assert codes('_METHODS = ("single", "complete", "average")\n') == []
    # Separate ifs (CLI parameter plumbing) are not an elif dispatch chain.
    assert (
        codes(
            """\
    def tune(args):
        if args.method == "balls":
            pass
        if args.method == "pivot":
            pass
        if args.method == "sampling":
            pass
    """
        )
        == []
    )
    # Two-branch chains stay under the threshold.
    assert (
        codes(
            """\
    def solve(method):
        if method == "a":
            return 1
        elif method == "b":
            return 2
    """
        )
        == []
    )
    # Dicts of data (not callables) under a METHOD name are fine.
    assert codes('_METHOD_DOCS = {"a": "doc a", "b": "doc b"}\n') == []
    # Function-local lookup tables are not module-level registries.
    assert (
        codes(
            """\
    def pick(name):
        methods = {"a": f, "b": g}
        return methods[name]
    """
        )
        == []
    )


def test_rpr014_scoped_to_library_outside_registry() -> None:
    table = '_METHODS = {"a": f, "b": g}\n'
    assert codes(table, path="src/repro/registry/store.py") == []
    assert codes(table, path=OUTSIDE) == []
    assert codes(table, path="src/repro/serve/app.py") == ["RPR014"]


def test_rpr014_suppressible() -> None:
    line = '_METHODS = {"a": f, "b": g}  # repolint: disable=RPR014\n'
    assert codes(line) == []
