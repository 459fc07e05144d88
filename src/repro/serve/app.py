"""The aggregation service application: routes, limits, lifecycle.

:class:`AggregationService` wires the HTTP layer, schemas, and session
table into the endpoint surface:

====== ================================== ===================================
method path                               purpose
====== ================================== ===================================
GET    ``/healthz``                       liveness + session count
GET    ``/metrics``                       :mod:`repro.obs` registry snapshot
GET    ``/sessions``                      list sessions
POST   ``/sessions``                      create/restore a streaming session
GET    ``/sessions/{name}``               session info
DELETE ``/sessions/{name}``               drain + checkpoint + remove
POST   ``/sessions/{name}/observe``       fold one clustering in (batched)
GET    ``/sessions/{name}/consensus``     latest published snapshot (no wait)
POST   ``/aggregate``                     one-shot portfolio/heuristic run
====== ================================== ===================================

Every request is wrapped in a ``serve.<endpoint>`` span and recorded
into per-endpoint counters (``serve.<endpoint>.requests``, per-status
counts) and latency histograms (``serve.<endpoint>.seconds``), all
exported by ``GET /metrics``.  One-shot aggregates run in the executor
under a concurrency semaphore with a bounded waiting room (429 with
``Retry-After`` beyond it); heavy work — observes, aggregates,
checkpoint I/O — never runs on the event loop.  Graceful shutdown waits
for in-flight aggregates, drains every session queue, resolves the
in-flight observes, checkpoints every session, then closes the
listener.
"""

from __future__ import annotations

import asyncio
import signal
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

from ..core.aggregate import aggregate
from ..registry import aggregate_method_names, is_stochastic
from ..obs.metrics import enable_metrics, get_registry, inc, observe
from ..obs.trace import span
from ..parallel.portfolio import portfolio
from . import schemas
from .http import HTTPError, HTTPServer, Request, Response, Router, error_response
from .sessions import SessionManager

__all__ = ["AggregationService", "ServeConfig", "run_server", "run_service"]


@dataclass(frozen=True)
class ServeConfig:
    """Operational limits and tuning knobs of one service instance."""

    host: str = "127.0.0.1"
    port: int = 8765  #: 0 picks a free port (read it back from ``service.port``)
    checkpoint_dir: str | Path | None = None  #: sessions persist here when set
    max_sessions: int = 64
    max_n: int = 100_000  #: per-session/aggregate object-count guard (413 beyond)
    queue_limit: int = 256  #: per-session pending observes (429 beyond)
    batch_window: float = 0.002  #: micro-batch coalescing window, seconds
    max_batch: int = 64  #: observes per micro-batch
    aggregate_concurrency: int = 2  #: one-shot aggregates running at once
    aggregate_pending: int = 8  #: one-shot aggregates waiting (429 beyond)
    n_jobs: int | None = None  #: repro.parallel worker budget for /aggregate
    drain_timeout: float = 30.0  #: max seconds to wait for in-flight aggregates on drain
    max_body_bytes: int = 64 * 1024 * 1024


class AggregationService:
    """The multi-tenant aggregation service (embed or run via the CLI)."""

    def __init__(self, config: ServeConfig | None = None) -> None:
        self._config = config if config is not None else ServeConfig()
        checkpoint_dir = (
            None
            if self._config.checkpoint_dir is None
            else Path(self._config.checkpoint_dir)
        )
        self._sessions = SessionManager(
            max_sessions=self._config.max_sessions,
            queue_limit=self._config.queue_limit,
            batch_window=self._config.batch_window,
            max_batch=self._config.max_batch,
            checkpoint_dir=checkpoint_dir,
        )
        self._aggregate_semaphore = asyncio.Semaphore(
            max(1, self._config.aggregate_concurrency)
        )
        self._aggregate_waiting = 0
        self._aggregate_idle = asyncio.Event()
        self._aggregate_idle.set()
        self._draining = False
        self._http = HTTPServer(self._dispatch, max_body_bytes=self._config.max_body_bytes)
        self._router = Router()
        self._add_routes()

    def _add_routes(self) -> None:
        add = self._router.add
        add("GET", "/healthz", "healthz", self._healthz)
        add("GET", "/metrics", "metrics", self._metrics)
        add("GET", "/sessions", "sessions.list", self._list_sessions)
        add("POST", "/sessions", "sessions.create", self._create_session)
        add("GET", "/sessions/{name}", "sessions.info", self._session_info)
        add("DELETE", "/sessions/{name}", "sessions.delete", self._delete_session)
        add("POST", "/sessions/{name}/observe", "observe", self._observe)
        add("GET", "/sessions/{name}/consensus", "consensus", self._consensus)
        add("POST", "/aggregate", "aggregate", self._aggregate)

    # -- lifecycle ------------------------------------------------------

    @property
    def config(self) -> ServeConfig:
        return self._config

    @property
    def sessions(self) -> SessionManager:
        return self._sessions

    @property
    def port(self) -> int:
        """The bound port (after :meth:`start`; differs from config at port 0)."""
        return self._http.port

    async def start(self) -> None:
        """Load the method registry, bind the listener and enable the metrics registry.

        The registry imports its built-in method modules on first use; that
        happens here, in the executor, and not on the event loop at the
        first ``POST /aggregate``.
        """
        if self._config.checkpoint_dir is not None:
            Path(self._config.checkpoint_dir).mkdir(parents=True, exist_ok=True)
        await asyncio.get_running_loop().run_in_executor(None, aggregate_method_names)
        enable_metrics()
        await self._http.start(self._config.host, self._config.port)

    async def shutdown(self) -> dict[str, Any]:
        """Graceful stop: drain queues, checkpoint sessions, close listener.

        New work is refused (503) the moment draining starts; observes
        already queued are applied and answered before their sessions
        checkpoint, and in-flight one-shot aggregates (sharded runs
        included) get to flush their responses before the listener — and
        with it every connection task — is torn down.  The aggregate
        wait is bounded by ``config.drain_timeout`` so a wedged executor
        job cannot hold the shutdown hostage.  Returns a drain summary
        for operator logs.
        """
        self._draining = True
        drained = len(self._sessions)
        try:
            await asyncio.wait_for(
                self._aggregate_idle.wait(), timeout=self._config.drain_timeout
            )
        except asyncio.TimeoutError:
            inc("serve.drain.aggregate_timeouts")
        checkpoints = await self._sessions.shutdown()
        await self._http.stop()
        return {"sessions": drained, "checkpoints": checkpoints}

    # -- dispatch with per-endpoint observability -----------------------

    async def _dispatch(self, request: Request) -> Response:
        try:
            route, params = self._router.resolve(request.method, request.path)
        except HTTPError as error:
            inc("serve.unrouted.requests")
            return error_response(error)
        if self._draining and route.name not in ("healthz", "metrics"):
            return error_response(
                HTTPError(503, "server is shutting down", retry_after=1.0)
            )
        with span(f"serve.{route.name}", method=request.method, path=request.path) as sp:
            try:
                response = await route.handler(request, params)
            except HTTPError as error:
                response = error_response(error)
            except Exception as error:
                inc("serve.internal_errors")
                response = Response(status=500, payload={"error": f"internal error: {error}"})
            sp.set(status=response.status)
        inc(f"serve.{route.name}.requests")
        inc(f"serve.{route.name}.status.{response.status}")
        observe(f"serve.{route.name}.seconds", sp.seconds)
        return response

    # -- handlers -------------------------------------------------------

    async def _healthz(self, request: Request, params: dict[str, str]) -> Response:
        return Response(
            payload={
                "status": "draining" if self._draining else "ok",
                "sessions": len(self._sessions),
            }
        )

    async def _metrics(self, request: Request, params: dict[str, str]) -> Response:
        snapshot = get_registry().snapshot()
        snapshot["sessions"] = {
            session.name: session.info() for session in self._sessions.values()
        }
        return Response(payload=snapshot)

    async def _list_sessions(self, request: Request, params: dict[str, str]) -> Response:
        return Response(
            payload={"sessions": [session.info() for session in self._sessions.values()]}
        )

    async def _create_session(self, request: Request, params: dict[str, str]) -> Response:
        config = schemas.session_config(request.json(), max_n=self._config.max_n)
        session, restored = await self._sessions.create(config)
        payload = session.info()
        payload["restored"] = restored
        return Response(status=201, payload=payload)

    async def _session_info(self, request: Request, params: dict[str, str]) -> Response:
        return Response(payload=self._sessions.get(params["name"]).info())

    async def _delete_session(self, request: Request, params: dict[str, str]) -> Response:
        return Response(payload=await self._sessions.remove(params["name"]))

    async def _observe(self, request: Request, params: dict[str, str]) -> Response:
        session = self._sessions.get(params["name"])
        column = schemas.observe_labels(request.json(), session.n)
        future = session.submit(column)
        return Response(payload=await future)

    async def _consensus(self, request: Request, params: dict[str, str]) -> Response:
        session = self._sessions.get(params["name"])
        snapshot = session.snapshot
        if snapshot is None:
            raise HTTPError(409, f"session {params['name']!r} has no consensus yet")
        include_labels = request.query.get("labels", "true").lower() != "false"
        return Response(payload=snapshot.to_dict(include_labels=include_labels))

    async def _aggregate(self, request: Request, params: dict[str, str]) -> Response:
        spec = schemas.aggregate_request(request.json(), max_n=self._config.max_n)
        if self._aggregate_waiting >= self._config.aggregate_pending:
            # Per-client backpressure, not server failure: 429 with a
            # Retry-After hint, matching the observe-queue convention.
            raise HTTPError(
                429,
                f"aggregate waiting room is full ({self._config.aggregate_pending})",
                retry_after=1.0,
            )
        loop = asyncio.get_running_loop()
        self._aggregate_waiting += 1
        self._aggregate_idle.clear()
        try:
            async with self._aggregate_semaphore:
                result = await loop.run_in_executor(
                    None, partial(self._run_aggregate, spec)
                )
        finally:
            self._aggregate_waiting -= 1
            if self._aggregate_waiting == 0:
                self._aggregate_idle.set()
        return Response(payload=result)

    def _run_aggregate(self, spec: dict[str, Any]) -> dict[str, Any]:
        """One-shot aggregation (runs in the executor, off the loop)."""
        matrix = spec["matrix"]
        if spec["method"] == "portfolio":
            result = portfolio(
                matrix, p=spec["p"], n_jobs=self._config.n_jobs, rng=spec["rng"]
            )
            payload = result.to_dict()
            payload["method"] = "portfolio"
            payload["labels"] = result.best.labels.tolist()
            return payload
        extra: dict[str, Any] = {}
        if is_stochastic(spec["method"]):
            extra["rng"] = spec["rng"]
        if spec["method"] == "sharded" and spec.get("n_shards") is not None:
            extra["n_shards"] = spec["n_shards"]
        outcome = aggregate(
            matrix,
            method=spec["method"],
            p=spec["p"],
            compute_lower_bound=False,
            n_jobs=self._config.n_jobs,
            **extra,
        )
        payload = {
            "method": outcome.method,
            "cost": outcome.cost,
            "disagreements": outcome.disagreements,
            "k": outcome.k,
            "elapsed_seconds": outcome.elapsed_seconds,
            "labels": outcome.clustering.labels.tolist(),
        }
        if "shard" in outcome.params:
            payload["shard"] = outcome.params["shard"]
        return payload


async def run_service(
    config: ServeConfig | None = None,
    *,
    ready: Callable[[AggregationService], None] | None = None,
    install_signal_handlers: bool = True,
) -> dict[str, Any]:
    """Start a service, run until SIGTERM/SIGINT, drain, and return a summary.

    ``ready`` is called once the listener is bound (the CLI prints its
    startup banner there — with the real port, so ``port=0`` works for
    scripted callers).
    """
    service = AggregationService(config)
    await service.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    installed: list[signal.Signals] = []
    if install_signal_handlers:
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # non-main thread, Windows
                continue
            installed.append(signum)
    try:
        if ready is not None:
            ready(service)
        await stop.wait()
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)
    return await service.shutdown()


def run_server(
    config: ServeConfig | None = None,
    *,
    ready: Callable[[AggregationService], None] | None = None,
) -> dict[str, Any]:
    """Blocking entry point: run the service until a termination signal."""
    return asyncio.run(run_service(config, ready=ready))
