"""Aggregation-service throughput: observe requests/s vs. writer concurrency.

Starts one in-process :class:`repro.serve.AggregationService` (real
sockets, background event loop) and hammers a streaming session with 1,
8, and 64 concurrent writers, each on its own keep-alive connection.
The interesting number is how sustained requests/s scales with writers:
micro-batching should let the single engine worker absorb a 64-writer
burst at a small multiple of the serial rate (one executor dispatch and
one snapshot publish per batch, not per request), with zero failed
requests below the queue limit.  Results land in
``reports/BENCH_serve.json`` — the mean batch size per level makes the
coalescing visible directly.

Runs two ways:

- under pytest-benchmark with the other benches
  (``pytest benchmarks/bench_serve.py``);
- standalone for the committed report: ``python benchmarks/bench_serve.py``
  emits ``reports/BENCH_serve.json`` + ``reports/serve_throughput.txt``;
  ``--quick`` (the CI smoke) runs a smaller size and writes nothing.
"""

from __future__ import annotations

import argparse
import asyncio
import http.client
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from fresh import write_report  # first: puts src/ on sys.path
from repro.experiments import banner, render_table
from repro.serve import AggregationService, ServeConfig

_N = 400
_QUICK_N = 120
_REQUESTS = 384  # divisible by every writer count
_QUICK_REQUESTS = 128
_WRITERS = (1, 8, 64)
_K = 12  # label alphabet of the synthetic clusterings


class _Server:
    """The service on a background event loop (bench-local harness)."""

    def __init__(self, config: ServeConfig) -> None:
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._loop.run_forever, daemon=True)
        self._thread.start()
        self.service = AggregationService(config)
        self._run(self.service.start())
        self.port = self.service.port

    def _run(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(60)

    def close(self) -> None:
        self._run(self.service.shutdown())
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._loop.close()


def _columns(n: int, count: int, rng: np.random.Generator) -> list[bytes]:
    """Pre-encoded observe bodies so the timed loop measures the service."""
    bodies = []
    for _ in range(count):
        labels = rng.integers(0, _K, size=n).tolist()
        bodies.append(json.dumps({"labels": labels}).encode("utf-8"))
    return bodies


def _writer(port: int, session: str, bodies: list[bytes]) -> tuple[int, int, list[int]]:
    """Send ``bodies`` on one keep-alive connection; returns (ok, errors, batches)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    ok = errors = 0
    batches: list[int] = []
    try:
        for body in bodies:
            conn.request("POST", f"/sessions/{session}/observe", body=body)
            response = conn.getresponse()
            payload = response.read()
            if response.status == 200:
                ok += 1
                batches.append(json.loads(payload)["batched"])
            else:
                errors += 1
    finally:
        conn.close()
    return ok, errors, batches


def _level(
    server: _Server, n: int, writers: int, requests: int, seed: int, tag: str = "w"
) -> dict:
    """One concurrency level: ``requests`` observes spread over ``writers``."""
    session = f"bench-{tag}{writers}"
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
    conn.request(
        "POST", "/sessions", body=json.dumps({"name": session, "n": n, "seed": seed})
    )
    response = conn.getresponse()
    response.read()
    assert response.status == 201, f"session create failed: {response.status}"
    conn.close()

    rng = np.random.default_rng(seed)
    bodies = _columns(n, requests, rng)
    share = requests // writers
    chunks = [bodies[i * share : (i + 1) * share] for i in range(writers)]

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=writers) as pool:
        outcomes = list(
            pool.map(lambda chunk: _writer(server.port, session, chunk), chunks)
        )
    elapsed = time.perf_counter() - start

    ok = sum(o[0] for o in outcomes)
    errors = sum(o[1] for o in outcomes)
    batches = [size for o in outcomes for size in o[2]]
    return {
        "writers": writers,
        "requests": requests,
        "ok": ok,
        "errors": errors,
        "seconds": elapsed,
        "requests_per_second": ok / elapsed,
        "mean_batch": float(np.mean(batches)) if batches else 0.0,
        "max_batch": int(np.max(batches)) if batches else 0,
    }


def _run(n: int, requests: int) -> tuple[str, dict]:
    server = _Server(ServeConfig(port=0, queue_limit=1024, batch_window=0.002))
    try:
        _level(server, n, 1, min(requests, 32), seed=99, tag="warmup")  # warm-up
        levels = [
            _level(server, n, writers, requests, seed=writers) for writers in _WRITERS
        ]
    finally:
        server.close()

    payload = {"n": n, "requests_per_level": requests, "levels": levels}
    rows = [
        (
            str(level["writers"]),
            f"{level['requests_per_second']:.0f}",
            f"{level['mean_batch']:.2f}",
            str(level["max_batch"]),
            str(level["errors"]),
        )
        for level in levels
    ]
    text = render_table(
        ("writers", "req/s", "mean batch", "max batch", "errors"),
        rows,
        title=banner(f"repro.serve — observe throughput (n={n}, {requests} requests/level)"),
    )
    return text, payload


def bench_serve(benchmark, report):
    from conftest import once

    text, payload = once(benchmark, lambda: _run(_N, _REQUESTS))
    write_report("serve", "serve_throughput", payload, text)
    report("serve_throughput", text)
    by_writers = {level["writers"]: level for level in payload["levels"]}
    assert all(level["errors"] == 0 for level in payload["levels"])
    # The acceptance bar: sustained throughput at >= 8 concurrent writers,
    # and visible coalescing once writers outnumber the engine worker.
    assert by_writers[8]["requests_per_second"] > 0
    assert by_writers[64]["mean_batch"] > 1.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small size for CI smoke runs")
    args = parser.parse_args(argv)
    n = _QUICK_N if args.quick else _N
    requests = _QUICK_REQUESTS if args.quick else _REQUESTS
    text, payload = _run(n, requests)
    print(text)
    if not args.quick:
        path = write_report("serve", "serve_throughput", payload, text)
        print(f"\nstructured output: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
