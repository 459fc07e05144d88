"""repro.obs unit tests: spans/traces, the metrics registry, profiling glue.

The observability subsystem underpins every ``elapsed_seconds`` field in
the library, so these tests pin its contracts: spans always time, nesting
follows the per-thread stack, serialization round-trips, the registry is
free when disabled, and worker payloads graft back losslessly.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.obs import (
    MetricsRegistry,
    Span,
    Trace,
    collecting,
    current_trace,
    diff_snapshots,
    disable_metrics,
    enable_metrics,
    export_spans,
    get_registry,
    inc,
    is_tracing,
    merge_spans,
    metrics_enabled,
    observe,
    phase,
    profiled,
    set_gauge,
    span,
    tracing,
    worker_tracing,
)


@pytest.fixture(autouse=True)
def _clean_registry():
    """Each test starts with a disabled, empty default registry."""
    registry = get_registry()
    was_enabled = registry.enabled
    registry.enabled = False
    registry.reset()
    yield
    registry.enabled = was_enabled
    registry.reset()


# ---------------------------------------------------------------------------
# Spans and traces
# ---------------------------------------------------------------------------


def test_span_times_without_a_trace() -> None:
    assert not is_tracing()
    with span("standalone") as sp:
        sum(range(1000))
    assert sp.seconds > 0.0


def test_spans_nest_under_the_active_trace() -> None:
    with tracing() as trace:
        with span("outer", n=3):
            with span("inner"):
                pass
            with span("inner"):
                pass
    assert [root.name for root in trace.roots] == ["outer"]
    outer = trace.roots[0]
    assert [child.name for child in outer.children] == ["inner", "inner"]
    assert outer.attrs == {"n": 3}
    assert outer.seconds >= sum(child.seconds for child in outer.children)


def test_span_indices_are_monotonic_in_open_order() -> None:
    with tracing() as trace:
        with span("a"):
            with span("b"):
                pass
        with span("c"):
            pass
    indices = [node.index for node in (trace.find("a") + trace.find("b") + trace.find("c"))]
    assert indices == sorted(indices)
    assert len(set(indices)) == 3


def test_set_attaches_attributes_late() -> None:
    with tracing() as trace:
        with span("work") as sp:
            sp.set(k=7, note="done")
    assert trace.roots[0].attrs == {"k": 7, "note": "done"}


def test_spans_are_dropped_outside_tracing_blocks() -> None:
    with tracing() as trace:
        pass
    with span("after"):
        pass
    assert trace.roots == []
    assert current_trace() is None


def test_tracing_blocks_restore_the_previous_trace() -> None:
    with tracing() as outer_trace:
        with tracing() as inner_trace:
            with span("x"):
                pass
        assert current_trace() is outer_trace
        assert inner_trace.roots[0].name == "x"
    assert not is_tracing()


def test_trace_serializes_to_json_and_round_trips() -> None:
    with tracing() as trace:
        with span("root", n=np.int64(4), ratio=0.5, label=("a", "b")):
            with span("leaf"):
                pass
    payload = json.loads(trace.to_json())
    assert payload["spans"][0]["name"] == "root"
    # numpy scalars and tuples are cleaned into JSON-native types.
    assert payload["spans"][0]["attrs"] == {"n": 4, "ratio": 0.5, "label": ["a", "b"]}
    rebuilt = Span.from_dict(payload["spans"][0])
    assert rebuilt.name == "root"
    assert rebuilt.children[0].name == "leaf"
    assert rebuilt.seconds == trace.roots[0].seconds


def test_render_indents_and_prunes() -> None:
    with tracing() as trace:
        with span("parent", n=2):
            with span("child"):
                pass
    text = trace.render()
    lines = text.splitlines()
    assert lines[0].startswith("parent")
    assert lines[1].startswith("  child")
    assert "n=2" in lines[0]
    assert "ms" in lines[0]
    # A threshold higher than any recorded duration prunes everything.
    assert trace.render(min_seconds=60.0) == ""


def test_find_returns_spans_in_monotonic_order() -> None:
    with tracing() as trace:
        for _ in range(3):
            with span("repeat"):
                pass
    found = trace.find("repeat")
    assert len(found) == 3
    assert [node.index for node in found] == sorted(node.index for node in found)


def test_total_seconds_sums_roots() -> None:
    with tracing() as trace:
        with span("a"):
            pass
        with span("b"):
            pass
    assert trace.total_seconds() == pytest.approx(sum(root.seconds for root in trace.roots))


def test_threads_build_disjoint_subtrees() -> None:
    trace = Trace()

    def worker() -> None:
        with span("thread-root"):
            with span("thread-leaf"):
                pass

    with tracing(trace):
        threads = [threading.Thread(target=worker) for _ in range(4)]
        with span("main-root"):
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
    # Thread spans never nest under the main thread's open span.
    main_roots = [root for root in trace.roots if root.name == "main-root"]
    thread_roots = [root for root in trace.roots if root.name == "thread-root"]
    assert len(main_roots) == 1
    assert main_roots[0].children == []
    assert len(thread_roots) == 4
    assert all(child.name == "thread-leaf" for root in thread_roots for child in root.children)


def test_foreign_pid_deactivates_a_trace() -> None:
    with tracing() as trace:
        trace._pid = trace._pid + 1  # simulate inheritance across fork
        assert current_trace() is None
        with span("ghost"):
            pass
    assert trace.roots == []


def test_worker_payloads_graft_under_the_open_span() -> None:
    with tracing(Trace(name="worker")) as worker_trace:
        with span("member:balls", cost=12.5):
            with span("solve"):
                pass
    payloads = export_spans(worker_trace)
    assert [p["name"] for p in payloads] == ["member:balls"]

    with tracing() as parent:
        with span("portfolio"):
            merge_spans(payloads)
    grafted = parent.roots[0].children
    assert [node.name for node in grafted] == ["member:balls"]
    assert grafted[0].attrs["cost"] == 12.5
    assert grafted[0].children[0].name == "solve"


def test_merge_spans_is_a_noop_without_a_trace() -> None:
    merge_spans([{"name": "orphan", "seconds": 0.0}])  # must not raise


def test_worker_tracing_opens_a_fresh_local_trace() -> None:
    with tracing() as outer:
        with worker_tracing() as local:
            assert current_trace() is local
            with span("w"):
                pass
        assert current_trace() is outer
    assert [root.name for root in local.roots] == ["w"]
    assert outer.roots == []


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


def test_module_helpers_are_noops_while_disabled() -> None:
    assert not metrics_enabled()
    inc("c")
    set_gauge("g", 1.0)
    observe("h", 2.0)
    snapshot = get_registry().snapshot()
    assert snapshot == {"counters": {}, "gauges": {}, "histograms": {}}


def test_counters_gauges_histograms_record_when_enabled() -> None:
    enable_metrics()
    inc("runs")
    inc("runs", 2.0)
    set_gauge("jobs", 4)
    for value in (1.0, 2.0, 3.0, 4.0):
        observe("seconds", value)
    disable_metrics()

    snapshot = get_registry().snapshot()
    assert snapshot["counters"]["runs"] == 3.0
    assert snapshot["gauges"]["jobs"] == 4
    summary = snapshot["histograms"]["seconds"]
    assert summary["count"] == 4
    assert summary["sum"] == pytest.approx(10.0)
    assert summary["min"] == 1.0
    assert summary["max"] == 4.0
    assert summary["mean"] == pytest.approx(2.5)
    assert summary["p50"] <= summary["p90"] <= summary["p99"]


def test_collecting_scopes_the_enabled_flag() -> None:
    assert not metrics_enabled()
    with collecting() as registry:
        assert metrics_enabled()
        inc("inside")
        assert registry is get_registry()
    assert not metrics_enabled()
    assert get_registry().snapshot()["counters"] == {"inside": 1.0}


def test_reset_drops_instruments_but_keeps_the_flag() -> None:
    enable_metrics()
    inc("x")
    get_registry().reset()
    assert metrics_enabled()
    assert get_registry().snapshot()["counters"] == {}


def test_diff_snapshots_reports_deltas() -> None:
    enable_metrics()
    inc("moves", 5)
    observe("t", 1.0)
    before = get_registry().snapshot()
    inc("moves", 3)
    inc("fresh")
    set_gauge("jobs", 2)
    observe("t", 4.0)
    after = get_registry().snapshot()

    delta = diff_snapshots(before, after)
    assert delta["counters"] == {"moves": 3.0, "fresh": 1.0}
    assert delta["gauges"] == {"jobs": 2}
    assert delta["histograms"]["t"] == {"count": 1, "sum": pytest.approx(4.0)}


def test_histogram_reservoir_thins_but_keeps_exact_accumulators() -> None:
    registry = MetricsRegistry()
    registry.enabled = True
    total = 3 * registry.histogram("h")._MAX_KEPT
    for i in range(total):
        registry.observe("h", float(i))
    summary = registry.snapshot()["histograms"]["h"]
    assert summary["count"] == total
    assert summary["sum"] == pytest.approx(total * (total - 1) / 2.0)
    assert summary["min"] == 0.0
    assert summary["max"] == float(total - 1)
    assert len(registry.histogram("h")._kept) <= registry.histogram("h")._MAX_KEPT


def test_registry_to_json_is_valid_json() -> None:
    enable_metrics()
    inc("n")
    payload = json.loads(get_registry().to_json())
    assert payload["counters"] == {"n": 1.0}


# ---------------------------------------------------------------------------
# Profiling glue
# ---------------------------------------------------------------------------


def test_phase_records_span_and_histogram() -> None:
    enable_metrics()
    with tracing() as trace:
        with phase("unit.stage", n=9) as sp:
            pass
    assert trace.roots[0].name == "unit.stage"
    assert trace.roots[0].attrs == {"n": 9}
    summary = get_registry().snapshot()["histograms"]["phase.unit.stage.seconds"]
    assert summary["count"] == 1
    assert summary["sum"] == pytest.approx(sp.seconds)


def test_profiled_decorator_wraps_function_calls() -> None:
    @profiled("unit.fn")
    def double(x: int) -> int:
        """Doc survives."""
        return 2 * x

    assert double.__name__ == "double"
    assert double.__doc__ == "Doc survives."
    with tracing() as trace:
        assert double(21) == 42
    assert [root.name for root in trace.roots] == ["unit.fn"]


# ---------------------------------------------------------------------------
# Library integration: instrumented code paths
# ---------------------------------------------------------------------------


def test_aggregate_produces_the_documented_span_tree() -> None:
    rng = np.random.default_rng(7)
    matrix = rng.integers(0, 3, size=(40, 4))
    from repro.core.aggregate import aggregate

    with tracing() as trace:
        result = aggregate(matrix, method="local-search")
    (build,) = trace.find("aggregate.build")
    (solve,) = trace.find("aggregate.solve")
    assert trace.find("aggregate.score")
    assert trace.find("aggregate.lower_bound")
    assert build.attrs["method"] == "local-search"
    assert solve.attrs["k"] == result.k
    # AlgorithmResult timing fields are read from these very spans.
    assert result.elapsed_seconds == solve.seconds
    assert result.build_seconds == build.seconds
    assert trace.find("localsearch.refine")


def test_portfolio_member_spans_sum_close_to_root() -> None:
    rng = np.random.default_rng(11)
    matrix = rng.integers(0, 5, size=(120, 6))
    from repro.parallel.portfolio import portfolio

    with tracing() as trace:
        result = portfolio(matrix, rng=0, n_jobs=1)
    (root,) = trace.find("portfolio")
    members = [node for node in root.children if node.name.startswith("member:")]
    assert len(members) == len(result.runs)
    member_total = sum(node.seconds for node in members)
    # Members are the only real work under the root; the wrapper overhead
    # (argmin, dataclass assembly) stays within the 5% acceptance budget.
    assert abs(root.seconds - member_total) <= max(0.05 * root.seconds, 0.002)
    assert root.attrs["winner"] == result.best_method


def test_portfolio_grafts_worker_spans_across_the_pool() -> None:
    rng = np.random.default_rng(13)
    matrix = rng.integers(0, 5, size=(80, 5))
    from repro.parallel.portfolio import portfolio

    with tracing() as trace:
        result = portfolio(matrix, methods=("balls", "furthest"), rng=0, n_jobs=2)
    (root,) = trace.find("portfolio")
    members = {node.name for node in root.children if node.name.startswith("member:")}
    if result.jobs == 2:  # single-core hosts legitimately fall back to serial
        assert members == {"member:balls", "member:furthest"}


def test_streaming_engine_traces_updates() -> None:
    from repro.stream import StreamingAggregator

    rng = np.random.default_rng(5)
    matrix = rng.integers(0, 3, size=(30, 4))
    engine = StreamingAggregator(30, rng=0)
    with tracing() as trace:
        for j in range(matrix.shape[1]):
            engine.observe(matrix[:, j])
    observes = trace.find("stream.observe")
    refines = trace.find("stream.refine")
    assert len(observes) == matrix.shape[1]
    assert len(refines) == matrix.shape[1]
    assert all(node.attrs["mode"] in ("incremental", "rebuild", "sampling") for node in refines)


def test_metrics_capture_algorithm_counters() -> None:
    rng = np.random.default_rng(3)
    matrix = rng.integers(0, 4, size=(50, 5))
    from repro.core.aggregate import aggregate

    with collecting() as registry:
        aggregate(matrix, method="local-search")
    snapshot = registry.snapshot()
    assert snapshot["counters"]["instance.builds"] == 1.0
    assert snapshot["counters"]["instance.build.rows"] == 50.0
    assert "localsearch.sweeps" in snapshot["counters"]
    assert "phase.localsearch.refine.seconds" in snapshot["histograms"]
