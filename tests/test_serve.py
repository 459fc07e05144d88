"""Aggregation service tests: batching determinism, backpressure, lifecycle.

The in-process :class:`ServerHarness` runs a real
:class:`~repro.serve.AggregationService` — real sockets, real HTTP — on a
background event-loop thread, so concurrency tests drive the service the
way production clients would while assertions stay synchronous.  Every
request runs under the event-loop blocking guard (``tests/loopguard.py``),
and ``TestEventLoopGuard`` drives each route's success path through it.
The SIGTERM path (signal handlers must live on a main thread) is covered
by a ``python -m repro serve`` subprocess test at the bottom.
"""

from __future__ import annotations

import http.client
import json
import linecache
import os
import signal
import subprocess
import sys
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor

import asyncio

import loopguard
import numpy as np
import pytest

from repro.core.aggregate import aggregate
from repro.datasets import generate_votes
from repro.parallel.portfolio import portfolio
from repro.parallel.workers import pool
from repro.serve import AggregationService, ServeConfig
from repro.stream import StreamingAggregator, load_checkpoint


class ServerHarness:
    """One live service on a background event loop, plus an HTTP client."""

    def __init__(self, **config_kwargs) -> None:
        self.config = ServeConfig(port=0, **config_kwargs)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._loop.run_forever, daemon=True)
        self._thread.start()
        self.service = AggregationService(self.config)
        self.run(self.service.start())
        self.port = self.service.port

    def run(self, coro, timeout: float = 30.0):
        """Run a coroutine on the service loop from the test thread."""
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(timeout)

    def call(self, fn, timeout: float = 5.0):
        """Run a plain callable on the service loop thread (pause/resume)."""
        done = threading.Event()
        box: dict = {}

        def runner() -> None:
            try:
                box["value"] = fn()
            except BaseException as error:  # surfaced below
                box["error"] = error
            done.set()

        self._loop.call_soon_threadsafe(runner)
        assert done.wait(timeout), "loop callback did not run"
        if "error" in box:
            raise box["error"]
        return box.get("value")

    def request(self, method: str, path: str, body=None, timeout: float = 30.0):
        """One HTTP request; returns ``(status, payload, headers)``."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)
        try:
            conn.request(method, path, body=None if body is None else json.dumps(body))
            response = conn.getresponse()
            raw = response.read()
            payload = json.loads(raw) if raw else None
            return response.status, payload, dict(response.getheaders())
        finally:
            conn.close()

    def close(self) -> dict:
        summary = self.run(self.service.shutdown())
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._loop.close()
        return summary


@pytest.fixture
def harness():
    """A default-config service; closed (gracefully) after the test."""
    server = ServerHarness(batch_window=0.001)
    yield server
    if server.service is not None:
        server.close()


def _columns(n_rows: int = 60, m: int = 8, rng: int = 5) -> list[list[int]]:
    matrix = generate_votes(n=n_rows, rng=rng).label_matrix()
    return [matrix[:, j].tolist() for j in range(min(m, matrix.shape[1]))]


# ---------------------------------------------------------------------------
# Routing, health, validation
# ---------------------------------------------------------------------------


class TestRoutingAndValidation:
    def test_healthz_and_unknown_routes(self, harness):
        status, payload, _ = harness.request("GET", "/healthz")
        assert (status, payload) == (200, {"status": "ok", "sessions": 0})
        assert harness.request("GET", "/nope")[0] == 404
        assert harness.request("PUT", "/sessions")[0] == 405
        assert harness.request("GET", "/sessions/ghost")[0] == 404
        assert harness.request("GET", "/sessions/ghost/consensus")[0] == 404

    @pytest.mark.parametrize(
        "body",
        [
            None,  # empty body
            {"n": 5},  # no name
            {"name": "bad name", "n": 5},  # space in name
            {"name": "../evil", "n": 5},  # path traversal
            {"name": "s", "n": 0},  # n < 1
            {"name": "s", "n": 5, "p": 1.5},  # p out of range
            {"name": "s", "n": 5, "decay": 0.0},  # decay out of range
            {"name": "s", "n": 5, "missing": "guess"},  # unknown mode
            {"name": "s", "n": 5, "weird": 1},  # unknown field
            {"name": "s", "n": 5.0},  # float n
            {"name": "s", "n": True},  # bool n
        ],
    )
    def test_create_session_rejects_bad_bodies(self, harness, body):
        status, payload, _ = harness.request("POST", "/sessions", body)
        assert status == 400
        assert "error" in payload

    def test_create_session_n_guard_is_413(self):
        server = ServerHarness(max_n=100)
        try:
            status, payload, _ = server.request(
                "POST", "/sessions", {"name": "big", "n": 101}
            )
            assert status == 413
            assert "max_n" in payload["error"]
        finally:
            server.close()

    @pytest.mark.parametrize(
        "labels",
        [
            None,
            [0, 1],  # wrong length
            [0.5] * 4,  # floats
            ["a"] * 4,  # strings
            [0, 1, None, 1],  # null hole
            [-2, 0, 1, 1],  # below the missing marker
            [-1, -1, -1, -1],  # entirely missing
        ],
    )
    def test_observe_rejects_bad_labels(self, harness, labels):
        assert harness.request("POST", "/sessions", {"name": "v", "n": 4})[0] == 201
        status, payload, _ = harness.request(
            "POST", "/sessions/v/observe", {"labels": labels}
        )
        assert status == 400
        assert "error" in payload

    def test_list_and_info_sessions(self, harness):
        assert harness.request("GET", "/sessions")[1] == {"sessions": []}
        harness.request("POST", "/sessions", {"name": "one", "n": 4, "decay": 0.5})
        status, listing, _ = harness.request("GET", "/sessions")
        assert status == 200
        assert [info["name"] for info in listing["sessions"]] == ["one"]
        status, info, _ = harness.request("GET", "/sessions/one")
        assert status == 200
        assert info == listing["sessions"][0]
        assert (info["n"], info["count"], info["decay"]) == (4, 0, 0.5)

    def test_consensus_before_first_update_is_409(self, harness):
        harness.request("POST", "/sessions", {"name": "empty", "n": 4})
        status, payload, _ = harness.request("GET", "/sessions/empty/consensus")
        assert status == 409
        assert "no consensus" in payload["error"]

    def test_duplicate_session_is_409_and_table_limit_503(self):
        server = ServerHarness(max_sessions=2)
        try:
            assert server.request("POST", "/sessions", {"name": "a", "n": 4})[0] == 201
            assert server.request("POST", "/sessions", {"name": "a", "n": 4})[0] == 409
            assert server.request("POST", "/sessions", {"name": "b", "n": 4})[0] == 201
            status, _, headers = server.request("POST", "/sessions", {"name": "c", "n": 4})
            assert status == 503
            assert "Retry-After" in headers
        finally:
            server.close()


# ---------------------------------------------------------------------------
# Observe semantics: serial parity, concurrent determinism, coalescing
# ---------------------------------------------------------------------------


class TestObserveDeterminism:
    def test_serial_observes_match_streaming_engine(self, harness):
        columns = _columns()
        n = len(columns[0])
        harness.request("POST", "/sessions", {"name": "serial", "n": n, "seed": 11})
        engine = StreamingAggregator(n, rng=11)
        for column in columns:
            status, payload, _ = harness.request(
                "POST", "/sessions/serial/observe", {"labels": column}
            )
            update = engine.observe(np.asarray(column, dtype=np.int64))
            assert status == 200
            assert payload["index"] == update.index
            assert payload["cost"] == update.cost
            assert payload["k"] == update.k
        status, payload, _ = harness.request("GET", "/sessions/serial/consensus")
        assert status == 200
        assert payload["labels"] == engine.consensus.labels.tolist()
        assert payload["cost"] == engine.cost()

    def test_concurrent_observes_are_bit_identical_to_serial_replay(self, harness):
        """The acceptance criterion: batching must not change results.

        Concurrent clients race their columns in; whatever arrival order
        the server picked (reported via ``update.index``) must yield the
        exact state a serial engine produces replaying that same order.
        """
        columns = _columns(n_rows=50, m=8)
        n = len(columns[0])
        harness.request("POST", "/sessions", {"name": "race", "n": n, "seed": 23})

        def submit(column):
            status, payload, _ = harness.request(
                "POST", "/sessions/race/observe", {"labels": column}
            )
            assert status == 200
            return payload["index"], column

        with ThreadPoolExecutor(max_workers=len(columns)) as pool:
            arrived = sorted(pool.map(submit, columns))

        assert [index for index, _ in arrived] == list(range(1, len(columns) + 1))
        replay = StreamingAggregator(n, rng=23)
        for _, column in arrived:
            replay.observe(np.asarray(column, dtype=np.int64))

        _, payload, _ = harness.request("GET", "/sessions/race/consensus")
        assert payload["labels"] == replay.consensus.labels.tolist()
        assert payload["cost"] == replay.cost()
        assert payload["count"] == len(columns)

    def test_concurrent_observes_coalesce_into_batches(self):
        server = ServerHarness(batch_window=0.05, max_batch=64)
        try:
            columns = _columns(n_rows=40, m=6)
            n = len(columns[0])
            server.request("POST", "/sessions", {"name": "co", "n": n})
            session = server.call(lambda: server.service.sessions.get("co"))

            # Park the worker: it holds at most one early batch at the
            # pause gate while the rest of the burst queues behind it, so
            # the post-resume batch deterministically coalesces.
            server.call(session.pause)
            with ThreadPoolExecutor(max_workers=len(columns)) as pool:
                futures = [
                    pool.submit(
                        server.request, "POST", "/sessions/co/observe", {"labels": c}
                    )
                    for c in columns
                ]
                time.sleep(0.5)  # let every request reach the queue
                server.call(session.resume)
                results = [f.result() for f in futures]

            sizes = [payload["batched"] for status, payload, _ in results]
            assert all(status == 200 for status, _, _ in results)
            assert max(sizes) >= 2, f"no coalescing observed: {sizes}"
            # One publish per batch, not per request.
            versions = {payload["version"] for _, payload, _ in results}
            assert len(versions) < len(columns)
        finally:
            server.close()


# ---------------------------------------------------------------------------
# Backpressure and non-blocking reads
# ---------------------------------------------------------------------------


class TestBackpressureAndReads:
    def test_queue_limit_yields_429_with_retry_after(self):
        server = ServerHarness(queue_limit=2, batch_window=0.0, max_batch=1)
        try:
            columns = _columns(n_rows=30, m=6)
            n = len(columns[0])
            server.request("POST", "/sessions", {"name": "bp", "n": n})
            session = server.call(lambda: server.service.sessions.get("bp"))
            server.call(session.pause)

            with ThreadPoolExecutor(max_workers=len(columns)) as pool:
                futures = [
                    pool.submit(
                        server.request, "POST", "/sessions/bp/observe", {"labels": c}
                    )
                    for c in columns
                ]
                deadline = time.monotonic() + 5
                while time.monotonic() < deadline:
                    statuses = [f.result()[0] for f in futures if f.done()]
                    if statuses.count(429) >= len(columns) - 3:
                        break
                server.call(session.resume)
                results = [f.result() for f in futures]

            accepted = [r for r in results if r[0] == 200]
            rejected = [r for r in results if r[0] == 429]
            assert len(accepted) + len(rejected) == len(columns)
            # queue_limit=2 plus at most one batch in the worker's hands.
            assert 1 <= len(accepted) <= 3
            for _, payload, headers in rejected:
                assert "Retry-After" in headers
                assert int(headers["Retry-After"]) >= 1
                assert "queue is full" in payload["error"]
        finally:
            server.close()

    def test_aggregate_waiting_room_full_yields_429_on_sharded(self):
        """The one-shot waiting room signals per-client backpressure the
        same way the observe queue does: 429 plus a Retry-After hint."""
        server = ServerHarness(aggregate_pending=1, aggregate_concurrency=1)
        release = threading.Event()
        try:
            columns = _columns(n_rows=30, m=4)
            service = server.service
            original = service._run_aggregate

            def gated(spec):
                assert release.wait(20), "test never released the gate"
                return original(spec)

            service._run_aggregate = gated
            body = {"clusterings": columns, "method": "sharded", "n_shards": 2, "seed": 1}
            with ThreadPoolExecutor(max_workers=1) as pool:
                first = pool.submit(server.request, "POST", "/aggregate", body)
                deadline = time.monotonic() + 5
                while time.monotonic() < deadline:
                    if server.call(lambda: service._aggregate_waiting) >= 1:
                        break
                status, payload, headers = server.request("POST", "/aggregate", body)
                assert status == 429
                assert "Retry-After" in headers
                assert int(headers["Retry-After"]) >= 1
                assert "waiting room" in payload["error"]
                release.set()
                status, payload, _ = first.result(timeout=30)
            assert status == 200
            assert payload["method"] == "sharded"
            assert payload["shard"]["n_shards"] == 2
        finally:
            release.set()
            server.close()

    def test_consensus_reads_do_not_wait_for_writes(self):
        server = ServerHarness(batch_window=0.0)
        try:
            columns = _columns(n_rows=40, m=4)
            n = len(columns[0])
            server.request("POST", "/sessions", {"name": "nb", "n": n})
            server.request("POST", "/sessions/nb/observe", {"labels": columns[0]})
            server.request("POST", "/sessions/nb/observe", {"labels": columns[1]})
            _, before, _ = server.request("GET", "/sessions/nb/consensus")

            session = server.call(lambda: server.service.sessions.get("nb"))
            server.call(session.pause)
            blocked = ThreadPoolExecutor(max_workers=1).submit(
                server.request, "POST", "/sessions/nb/observe", {"labels": columns[2]}
            )
            # With a write parked in the queue, reads still answer instantly
            # from the published snapshot.
            start = time.monotonic()
            status, during, _ = server.request("GET", "/sessions/nb/consensus")
            elapsed = time.monotonic() - start
            assert status == 200
            assert during == before
            assert elapsed < 1.0
            assert not blocked.done()

            server.call(session.resume)
            assert blocked.result(timeout=10)[0] == 200
            _, after, _ = server.request("GET", "/sessions/nb/consensus")
            assert after["version"] == before["version"] + 1
        finally:
            server.close()

    def test_consensus_labels_flag_trims_payload(self, harness):
        columns = _columns(n_rows=30, m=2)
        harness.request("POST", "/sessions", {"name": "sm", "n": len(columns[0])})
        harness.request("POST", "/sessions/sm/observe", {"labels": columns[0]})
        _, slim, _ = harness.request("GET", "/sessions/sm/consensus?labels=false")
        assert "labels" not in slim
        assert slim["version"] == 1


# ---------------------------------------------------------------------------
# One-shot /aggregate
# ---------------------------------------------------------------------------


class TestAggregateEndpoint:
    def test_portfolio_parity_with_library_call(self, harness):
        matrix = generate_votes(n=40, rng=9).label_matrix()[:, :5]
        clusterings = [matrix[:, j].tolist() for j in range(matrix.shape[1])]
        status, payload, _ = harness.request(
            "POST", "/aggregate", {"clusterings": clusterings, "seed": 4}
        )
        local = portfolio(matrix, rng=4)
        assert status == 200
        assert payload["method"] == "portfolio"
        assert payload["best_method"] == local.best_method
        assert payload["cost"] == local.cost
        assert payload["labels"] == local.best.labels.tolist()

    def test_named_method_parity_with_library_call(self, harness):
        matrix = generate_votes(n=40, rng=9).label_matrix()[:, :5]
        clusterings = [matrix[:, j].tolist() for j in range(matrix.shape[1])]
        status, payload, _ = harness.request(
            "POST",
            "/aggregate",
            {"clusterings": clusterings, "method": "agglomerative"},
        )
        local = aggregate(matrix, method="agglomerative", compute_lower_bound=False)
        assert status == 200
        assert payload["method"] == "agglomerative"
        assert payload["cost"] == local.cost
        assert payload["k"] == local.k
        assert payload["labels"] == local.clustering.labels.tolist()

    def test_sharded_method_parity_and_report(self, harness):
        matrix = generate_votes(n=60, rng=3).label_matrix()[:, :6]
        clusterings = [matrix[:, j].tolist() for j in range(matrix.shape[1])]
        status, payload, _ = harness.request(
            "POST",
            "/aggregate",
            {"clusterings": clusterings, "method": "sharded", "n_shards": 2, "seed": 5},
        )
        local = aggregate(
            matrix, method="sharded", n_shards=2, rng=5, compute_lower_bound=False
        )
        assert status == 200
        assert payload["method"] == "sharded"
        assert payload["labels"] == local.clustering.labels.tolist()
        assert payload["cost"] == local.cost
        # The per-shard report rides along for observability parity.
        assert payload["shard"]["n_shards"] == 2
        assert len(payload["shard"]["shards"]) == 2
        assert payload["shard"]["merge_method"] in ("exact", "local-search", "trivial")

    def test_n_shards_validation(self, harness):
        clusterings = [[0, 1, 0, 1], [0, 1, 1, 0]]
        status, payload, _ = harness.request(
            "POST", "/aggregate", {"clusterings": clusterings, "n_shards": 2}
        )
        assert status == 400
        assert "sharded" in payload["error"]
        status, payload, _ = harness.request(
            "POST",
            "/aggregate",
            {"clusterings": clusterings, "method": "sharded", "n_shards": 0},
        )
        assert status == 400
        assert "n_shards" in payload["error"]

    def test_aggregate_validation(self, harness):
        assert harness.request("POST", "/aggregate", {"clusterings": []})[0] == 400
        assert (
            harness.request(
                "POST", "/aggregate", {"clusterings": [[0, 1]], "method": "telepathy"}
            )[0]
            == 400
        )
        status, payload, _ = harness.request(
            "POST", "/aggregate", {"clusterings": [[0, 1], [0, 1, 2]]}
        )
        assert status == 400
        assert "clusterings[1]" in payload["error"]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_per_endpoint_counters_and_latency(self, harness):
        from repro.obs import get_registry

        # The registry is process-global; count only this test's traffic.
        harness.call(get_registry().reset)
        harness.request("POST", "/sessions", {"name": "m", "n": 4})
        harness.request("POST", "/sessions/m/observe", {"labels": [0, 0, 1, 1]})
        harness.request("GET", "/sessions/m/consensus")
        harness.request("GET", "/sessions/ghost")

        status, payload, _ = harness.request("GET", "/metrics")
        assert status == 200
        counters = payload["counters"]
        assert counters["serve.sessions.create.requests"] == 1
        assert counters["serve.sessions.create.status.201"] == 1
        assert counters["serve.observe.requests"] == 1
        assert counters["serve.observe.status.200"] == 1
        assert counters["serve.consensus.status.200"] == 1
        assert counters["serve.sessions.info.status.404"] == 1
        histograms = payload["histograms"]
        assert histograms["serve.observe.seconds"]["count"] == 1
        assert histograms["serve.batch.size"]["count"] == 1
        assert payload["sessions"]["m"]["count"] == 1


# ---------------------------------------------------------------------------
# The event-loop blocking guard
# ---------------------------------------------------------------------------


def _sleep(directory):
    time.sleep(0.01)


def _read_text(directory):
    return (directory / "note.txt").read_text(encoding="utf-8")


def _np_save(directory):
    np.save(directory / "array.npy", np.zeros(3, dtype=np.float64))


def _pool(directory):
    with pool(2) as workers:
        return workers.map(abs, [-1, 1])


#: Each blocking shape, reached from a handler through a sync helper, and
#: the audit event the guard reports for it.
_BLOCKING_SHAPES = {
    "sleep": (_sleep, "time.sleep"),
    "read_text": (_read_text, "open"),
    "np.save": (_np_save, "open"),
    "pool": (_pool, "os.fork"),
}


class TestEventLoopGuard:
    def test_registry_loads_off_the_loop_at_start(self, monkeypatch):
        """The registry's built-in modules load in start(), in the executor."""
        from repro.registry import store

        ensure_loaded = store._ensure_loaded
        loading_threads = []

        def recording_ensure_loaded():
            if not store._loaded:
                loading_threads.append(threading.get_ident())
            ensure_loaded()

        monkeypatch.setattr(store, "_loaded", False)
        monkeypatch.setattr(store, "_ensure_loaded", recording_ensure_loaded)
        server = ServerHarness(batch_window=0.001)
        try:
            assert len(loading_threads) == 1
            loop_thread = server._thread.ident
            assert loading_threads[0] not in (loop_thread, threading.get_ident())
            status, _, _ = server.request(
                "POST", "/aggregate", {"clusterings": [[0, 0, 1], [0, 1, 1]]}
            )
            assert status == 200
            assert len(loading_threads) == 1
        finally:
            server.close()

    @pytest.fixture
    def files(self, tmp_path):
        (tmp_path / "note.txt").write_text("x", encoding="utf-8")
        return tmp_path

    @pytest.mark.parametrize("shape", sorted(_BLOCKING_SHAPES))
    def test_blocking_helper_on_the_loop_fails(self, harness, files, monkeypatch, shape):
        blocking, event = _BLOCKING_SHAPES[shape]
        harness.request("POST", "/sessions", {"name": "g", "n": 4})
        session = harness.call(lambda: harness.service.sessions.get("g"))
        info = session.info

        def blocking_info():
            blocking(files)
            return info()

        # GET /sessions/{name} calls Session.info() on the loop thread.
        monkeypatch.setattr(session, "info", blocking_info)
        status, payload, _ = harness.request("GET", "/sessions/g")
        assert status == 500
        assert "event-loop thread" in payload["error"]
        (violation,) = loopguard.take()
        assert violation.startswith(f"{event}(")

    @pytest.mark.parametrize("shape", sorted(_BLOCKING_SHAPES))
    def test_same_helper_in_the_executor_passes(self, harness, files, monkeypatch, shape):
        blocking, _ = _BLOCKING_SHAPES[shape]
        run_aggregate = harness.service._run_aggregate

        def blocking_aggregate(spec):
            blocking(files)
            return run_aggregate(spec)

        # POST /aggregate hands _run_aggregate to loop.run_in_executor.
        monkeypatch.setattr(harness.service, "_run_aggregate", blocking_aggregate)
        status, payload, _ = harness.request(
            "POST", "/aggregate", {"clusterings": [[0, 0, 1], [0, 1, 1]]}
        )
        assert (status, payload["method"]) == (200, "portfolio")
        assert loopguard.VIOLATIONS == []

    def test_swallowed_errors_are_recorded(self):
        # Swallowing the guard's exception still leaves the violation for
        # the teardown check.
        async def swallowing():
            try:
                time.sleep(0)
            except loopguard.BlockingOnEventLoop:
                pass

        asyncio.run(swallowing())
        assert [line.split("(")[0] for line in loopguard.take()] == ["time.sleep"]
        time.sleep(0)  # no running loop on this thread: allowed
        assert loopguard.VIOLATIONS == []

    def test_imports_on_the_loop_are_allowed(self, tmp_path, monkeypatch):
        module = tmp_path / "loopguard_probe.py"
        module.write_text("VALUE = 1\n", encoding="utf-8")
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.delitem(sys.modules, "loopguard_probe", raising=False)

        async def load():
            import loopguard_probe

            return loopguard_probe.VALUE

        assert asyncio.run(load()) == 1
        assert loopguard.VIOLATIONS == []

    def test_traceback_formatting_on_the_loop_is_allowed(self):
        # linecache opens this file to show the failing line.
        async def format_error():
            linecache.clearcache()
            try:
                raise ValueError("shown")
            except ValueError as error:
                return "".join(traceback.format_exception(error))

        assert 'raise ValueError("shown")' in asyncio.run(format_error())
        assert loopguard.VIOLATIONS == []

    def test_every_route_succeeds_under_the_guard(self, harness):
        requests = [
            ("GET", "/healthz", None),
            ("POST", "/sessions", {"name": "all", "n": 4}),
            ("GET", "/sessions", None),
            ("GET", "/sessions/all", None),
            ("POST", "/sessions/all/observe", {"labels": [0, 0, 1, 1]}),
            ("GET", "/sessions/all/consensus", None),
            ("POST", "/aggregate", {"clusterings": [[0, 0, 1, 1], [0, 1, 1, 1]]}),
            ("GET", "/metrics", None),
            ("DELETE", "/sessions/all", None),
        ]
        router = harness.service._router
        driven = set()
        for method, path, body in requests:
            status, payload, _ = harness.request(method, path, body)
            assert 200 <= status < 300, (method, path, payload)
            driven.add(router.resolve(method, path)[0].name)
        # A new route must join this list, and so run under the guard.
        assert driven == {route.name for route in router._routes}


# ---------------------------------------------------------------------------
# Checkpoint persistence and graceful shutdown
# ---------------------------------------------------------------------------


class TestLifecycle:
    def test_shutdown_checkpoints_every_session_and_restores(self, tmp_path):
        columns = _columns(n_rows=30, m=4)
        n = len(columns[0])
        server = ServerHarness(checkpoint_dir=tmp_path)
        server.request("POST", "/sessions", {"name": "alpha", "n": n, "seed": 2})
        server.request("POST", "/sessions", {"name": "beta", "n": n, "seed": 3})
        for column in columns:
            server.request("POST", "/sessions/alpha/observe", {"labels": column})
        server.request("POST", "/sessions/beta/observe", {"labels": columns[0]})
        _, final, _ = server.request("GET", "/sessions/alpha/consensus")
        summary = server.close()

        assert sorted(summary["checkpoints"]) == [
            str(tmp_path / "alpha.npz"),
            str(tmp_path / "beta.npz"),
        ]
        engine = load_checkpoint(tmp_path / "alpha.npz", n=n)
        assert engine.count == len(columns)
        assert engine.consensus.labels.tolist() == final["labels"]

        # A new server over the same directory adopts the saved state.
        revived = ServerHarness(checkpoint_dir=tmp_path)
        try:
            status, payload, _ = revived.request(
                "POST", "/sessions", {"name": "alpha", "n": n, "seed": 2}
            )
            assert (status, payload["restored"], payload["count"]) == (
                201,
                True,
                len(columns),
            )
            _, consensus, _ = revived.request("GET", "/sessions/alpha/consensus")
            assert consensus["labels"] == final["labels"]

            # ... but refuses to graft it onto a different configuration.
            revived.request("DELETE", "/sessions/alpha")
            status, payload, _ = revived.request(
                "POST", "/sessions", {"name": "alpha", "n": n, "decay": 0.5}
            )
            assert status == 409
            assert "checkpoint" in payload["error"]
        finally:
            revived.close()

    def test_delete_drains_and_checkpoints(self, tmp_path):
        server = ServerHarness(checkpoint_dir=tmp_path)
        try:
            server.request("POST", "/sessions", {"name": "gone", "n": 4})
            server.request("POST", "/sessions/gone/observe", {"labels": [0, 0, 1, 1]})
            status, payload, _ = server.request("DELETE", "/sessions/gone")
            assert status == 200
            assert payload["checkpoint"] == str(tmp_path / "gone.npz")
            assert server.request("GET", "/sessions/gone")[0] == 404
            # The name is free again; the checkpoint restores on re-create.
            status, payload, _ = server.request(
                "POST", "/sessions", {"name": "gone", "n": 4}
            )
            assert (status, payload["restored"]) == (201, True)
        finally:
            server.close()

    def test_shutdown_waits_for_inflight_aggregate(self, tmp_path):
        """Drain consistency: shutdown blocks (up to ``drain_timeout``)
        until in-flight one-shot aggregates flush their responses, and
        still checkpoints every session."""
        server = ServerHarness(checkpoint_dir=tmp_path)
        release = threading.Event()
        shutdown_box: dict = {}
        try:
            columns = _columns(n_rows=30, m=4)
            server.request("POST", "/sessions", {"name": "keep", "n": len(columns[0])})
            server.request("POST", "/sessions/keep/observe", {"labels": columns[0]})
            service = server.service
            original = service._run_aggregate

            def gated(spec):
                assert release.wait(20), "test never released the gate"
                return original(spec)

            service._run_aggregate = gated
            body = {"clusterings": columns, "method": "sharded", "n_shards": 2, "seed": 0}
            with ThreadPoolExecutor(max_workers=2) as pool:
                inflight = pool.submit(server.request, "POST", "/aggregate", body)
                deadline = time.monotonic() + 5
                while time.monotonic() < deadline:
                    if server.call(lambda: service._aggregate_waiting) >= 1:
                        break

                def close():
                    shutdown_box["summary"] = server.close()

                closing = pool.submit(close)
                time.sleep(0.2)
                # Shutdown is parked on the idle event, not done yet.
                assert not closing.done()
                release.set()
                status, payload, _ = inflight.result(timeout=30)
                closing.result(timeout=30)
            assert status == 200
            assert payload["method"] == "sharded"
            assert shutdown_box["summary"]["checkpoints"] == [
                str(tmp_path / "keep.npz")
            ]
            server.service = None  # already closed
        finally:
            release.set()
            if server.service is not None:
                server.close()

    def test_draining_server_refuses_new_work(self):
        server = ServerHarness()
        try:
            server.request("POST", "/sessions", {"name": "d", "n": 4})
            # Flip the drain flag the way shutdown() does while the
            # listener still accepts: new work must 503, health stays up.
            server.call(lambda: setattr(server.service, "_draining", True))
            status, _, headers = server.request("POST", "/sessions", {"name": "e", "n": 4})
            assert status == 503
            assert "Retry-After" in headers
            assert server.request("POST", "/sessions/d/observe", {"labels": [0] * 4})[0] == 503
            status, payload, _ = server.request("GET", "/healthz")
            assert (status, payload["status"]) == (200, "draining")
            server.call(lambda: setattr(server.service, "_draining", False))
        finally:
            server.close()


_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.mark.no_contracts
def test_sigterm_drains_and_checkpoints(tmp_path):
    """``repro serve`` under SIGTERM: clean exit, checkpoint on disk."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--checkpoint-dir",
            str(tmp_path),
            "--json",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        banner = json.loads(proc.stdout.readline())
        assert banner["event"] == "serve.start"
        port = banner["port"]
        assert port > 0

        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        conn.request("POST", "/sessions", body=json.dumps({"name": "sig", "n": 4}))
        response = conn.getresponse()
        response.read()
        assert response.status == 201
        conn.request(
            "POST", "/sessions/sig/observe", body=json.dumps({"labels": [0, 0, 1, 1]})
        )
        response = conn.getresponse()
        response.read()
        assert response.status == 200
        conn.close()

        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()

    assert proc.returncode == 0, err
    stop = json.loads(out.strip().splitlines()[-1])
    assert stop["event"] == "serve.stop"
    assert stop["sessions"] == 1
    assert (tmp_path / "sig.npz").exists()
    assert load_checkpoint(tmp_path / "sig.npz", n=4).count == 1
