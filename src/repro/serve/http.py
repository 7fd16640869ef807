"""Stdlib HTTP router for the prescription serving tier (the /v1 API).

This module is the *router* of a three-layer tier — it parses requests,
enforces transport policy, and renders responses; all serving logic lives
in :class:`~repro.serve.service.PrescriptionService` (service layer) and
:class:`~repro.serve.registry.ArtifactRegistry` (repository layer).
Zero dependencies beyond the stdlib: :class:`http.server.HTTPServer` with
a fixed pool of worker threads behind the accept loop.

Endpoints (``docs/serving.md`` is the full reference):

- ``GET  /v1/health``             — liveness, rule count, cache stats,
  active ruleset version;
- ``GET  /v1/rules``              — the served ruleset (artifact format);
- ``GET  /v1/metrics``            — Prometheus text exposition;
- ``GET  /v1/artifacts``          — registry listing + active version;
- ``POST /v1/artifacts/activate`` — hot-reload: ``{"version": N}`` or
  ``{"rollback": true}``;
- ``POST /v1/prescribe``          — ``{"individual": {...}}`` or
  ``{"individuals": [...]}``.

Any other path, the unversioned ``/health``, ``/rules``, ``/metrics`` and
``/prescribe`` included, answers 404.

Every non-2xx response carries one uniform JSON envelope::

    {"error": {"code": "...", "message": "...", "request_id": "..."}}

with stable codes (``bad_request``, ``not_found``, ``method_not_allowed``,
``artifact_invalid``, ``over_capacity``, ``draining``,
``deadline_exceeded``, ``internal``) — see :mod:`repro.serve.schemas`.

Concurrency model:

- a fixed worker pool (``ServeConfig.workers``) runs connections; each
  live connection occupies one worker, so ``workers`` bounds connection
  concurrency and idle keep-alive sockets time out after
  ``_CONNECTION_IDLE_SECONDS`` to release their worker;
- ``max_concurrency`` bounds *admitted* requests below that; excess
  requests get an immediate 503 + ``Retry-After``
  (``http.backpressure_rejections``).  Ops endpoints (health, metrics)
  bypass the gate — operators need them most exactly when it is closed;
- hot reload is an RCU-style pointer swap in the service layer: each
  request snapshots the serving state once in ``_begin_request`` and uses
  it for its whole lifetime, so a swap mid-request can never produce a
  hybrid response and no request is ever dropped.

Resilience surfaces preserved from the pre-/v1 tier: per-request
deadlines (``X-Request-Deadline-Ms``, 504 on expiry), graceful drain on
SIGTERM (503 to new requests, in-flight requests finish), and client
disconnects counted (``http.client_disconnects``) instead of logged as
500s.  Every response carries ``X-Request-Id`` (echoing the request's own
when present); successful bodies also carry a ``request_id`` field.

Start a server programmatically with :func:`make_server` (``port=0`` picks
an ephemeral port — the tests and the load benchmark do this) or from the
CLI::

    python -m repro serve --artifact ruleset.json --port 8080
    python -m repro serve --artifact-dir artifacts/ --port 8080
"""

from __future__ import annotations

import json
import queue
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

from repro.obs import MetricsRegistry, StructuredLogger, new_request_id, render_prometheus
from repro.serve.config import ServeConfig
from repro.serve.engine import PrescriptionEngine
from repro.serve.registry import ArtifactRegistry
from repro.serve.schemas import (
    ActivateRequest,
    ApiError,
    PrescribeRequest,
    error_envelope,
)
from repro.serve.service import PrescriptionService
from repro.utils.errors import ReproError, ServeError

MAX_BODY_BYTES = 8 * 1024 * 1024  # refuse absurd request bodies early

#: Idle keep-alive connections release their worker after this long.
_CONNECTION_IDLE_SECONDS = 30.0

_V1_GET = frozenset({"/v1/health", "/v1/rules", "/v1/metrics", "/v1/artifacts"})
_V1_POST = frozenset({"/v1/prescribe", "/v1/artifacts/activate"})

#: Routes that get their own ``path`` metric label; anything else is folded
#: into ``other`` so arbitrary scanned paths cannot blow up label
#: cardinality.
_KNOWN_PATHS = _V1_GET | _V1_POST

#: Endpoints operators need while the gate is closed or the server drains.
_OPS_PATHS = frozenset({"/v1/health", "/v1/metrics"})

_HANDLERS = {
    "/v1/health": "_handle_health",
    "/v1/rules": "_handle_rules",
    "/v1/metrics": "_handle_metrics",
    "/v1/artifacts": "_handle_artifacts",
    "/v1/artifacts/activate": "_handle_activate",
    "/v1/prescribe": "_handle_prescribe",
}

_HELP_TEXTS = {
    "http.requests": "HTTP requests served, by method/path/status.",
    "http.request_seconds": "Request wall-clock latency in seconds.",
    "http.backpressure_rejections": "Requests rejected with 503, by reason.",
    "http.deadline_exceeded": "Requests aborted with 504 past their deadline.",
    "http.client_disconnects": "Requests whose peer hung up mid-response.",
    "serve.reloads": "Successful artifact hot-reloads since start.",
    "serve.ruleset_version": "Active ruleset artifact version (0 = unversioned).",
    "engine.cache.hits": "Prescription-engine LRU hits since start.",
    "engine.cache.misses": "Prescription-engine LRU misses since start.",
    "engine.cache.size": "Prescription-engine LRU entries right now.",
    "engine.rules": "Rules loaded in the serving ruleset.",
}


class _DeadlineExceeded(Exception):
    """Internal: a request ran past its deadline (mapped to 504)."""


class _WorkerPool:
    """A fixed pool of daemon worker threads draining one queue.

    Deliberately not :class:`concurrent.futures.ThreadPoolExecutor`: its
    non-daemon threads are joined at interpreter exit, so one connection
    wedged in a keep-alive read would hang process shutdown.  Daemon
    threads + an unbounded handoff queue give the same semantics without
    that failure mode.
    """

    def __init__(self, size: int, name: str = "serve-worker") -> None:
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._threads = [
            threading.Thread(
                target=self._run, name=f"{name}-{i}", daemon=True
            )
            for i in range(size)
        ]
        for thread in self._threads:
            thread.start()

    def submit(self, fn, *args) -> None:
        self._queue.put((fn, args))

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            fn, args = item
            fn(*args)

    def close(self) -> None:
        for _ in self._threads:
            self._queue.put(None)


class PrescriptionServer(HTTPServer):
    """The serving tier's transport: accept loop + worker pool + gates."""

    # socketserver's default listen backlog of 5 resets concurrent
    # connection bursts (RST before accept) well below the concurrency the
    # worker pool and admission gate are sized for; let the kernel queue a
    # burst and the 503 gate do the load shedding instead.
    request_queue_size = 128

    def __init__(
        self,
        address: tuple[str, int],
        service: PrescriptionService,
        config: ServeConfig | None = None,
        log_stream=None,
    ) -> None:
        super().__init__(address, PrescriptionRequestHandler)
        self.config = config if config is not None else ServeConfig(port=0)
        self.service = service
        self.quiet = self.config.quiet
        self.metrics = MetricsRegistry()
        self.logger = StructuredLogger(
            stream=log_stream, enabled=not self.config.quiet, component="serve"
        )
        self.request_deadline_seconds = self.config.request_deadline_seconds
        self._gate = (
            threading.BoundedSemaphore(self.config.max_concurrency)
            if self.config.max_concurrency is not None
            else None
        )
        self._pool = _WorkerPool(self.config.workers)
        self.draining = False
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._shutdown_started = False

    @property
    def engine(self) -> PrescriptionEngine:
        """The engine of the *current* generation (changes on hot reload)."""
        return self.service.state.engine

    # -- worker pool -------------------------------------------------------------

    def process_request(self, request, client_address) -> None:
        # The accept loop hands every connection to the pool; a worker owns
        # it for its keep-alive lifetime (bounded by the idle timeout).
        self._pool.submit(self._process_in_worker, request, client_address)

    def _process_in_worker(self, request, client_address) -> None:
        try:
            self.finish_request(request, client_address)
        except Exception:
            self.handle_error(request, client_address)
        finally:
            self.shutdown_request(request)

    # -- resilience plumbing ----------------------------------------------------

    def try_acquire_slot(self) -> bool:
        """One unit of the bounded-concurrency gate (non-blocking)."""
        if self._gate is None:
            return True
        return self._gate.acquire(blocking=False)

    def release_slot(self) -> None:
        if self._gate is not None:
            self._gate.release()

    def track_request(self, delta: int) -> None:
        with self._inflight_lock:
            self._inflight += delta

    @property
    def inflight(self) -> int:
        with self._inflight_lock:
            return self._inflight

    def begin_graceful_shutdown(self, drain_timeout: float = 10.0) -> None:
        """Reject new requests with 503, drain in-flight ones, then stop.

        The accept loop keeps running through the drain — a stopped loop
        would leave freshly-connected peers hanging in the TCP backlog
        with no response at all, which is worse than an honest 503.  Safe
        to call from a signal handler (``shutdown()`` blocks until the
        accept loop exits, so the sequence runs on a helper thread) and
        idempotent.
        """
        if self._shutdown_started:
            return
        self._shutdown_started = True
        self.draining = True

        def _drain_then_stop() -> None:
            self.drain(timeout=drain_timeout)
            self.shutdown()

        threading.Thread(target=_drain_then_stop, daemon=True).start()

    def drain(self, timeout: float = 10.0) -> bool:
        """Wait until no request is in flight; ``False`` on timeout."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.inflight == 0:
                return True
            time.sleep(0.02)
        return self.inflight == 0

    def handle_error(self, request, client_address) -> None:
        # A peer that hangs up mid-response surfaces here when the write
        # fails outside the handler's own try (e.g. the keep-alive flush);
        # count it instead of spraying a traceback to stderr.
        import sys

        exc = sys.exc_info()[1]
        if isinstance(exc, (BrokenPipeError, ConnectionResetError)):
            self.metrics.inc("http.client_disconnects", 1, stage="connection")
            return
        self.logger.log(
            "http.error", error=repr(exc), client=str(client_address)
        )

    def render_metrics(self) -> str:
        """The /v1/metrics document: request metrics + live engine gauges."""
        state = self.service.state
        info = state.engine.cache_info()
        self.metrics.set_gauge("engine.cache.hits", info["hits"])
        self.metrics.set_gauge("engine.cache.misses", info["misses"])
        self.metrics.set_gauge("engine.cache.size", info["size"])
        self.metrics.set_gauge("engine.rules", len(state.engine.ruleset))
        self.metrics.set_gauge(
            "serve.ruleset_version",
            state.version if state.version is not None else 0,
        )
        return render_prometheus(self.metrics.snapshot(), help_texts=_HELP_TEXTS)

    def server_close(self) -> None:
        super().server_close()
        self._pool.close()

    @property
    def port(self) -> int:
        """The bound port (useful when constructed with port 0)."""
        return int(self.server_address[1])


class PrescriptionRequestHandler(BaseHTTPRequestHandler):
    """Routes the /v1 surface to the service."""

    server: PrescriptionServer
    protocol_version = "HTTP/1.1"
    timeout = _CONNECTION_IDLE_SECONDS  # idle keep-alive frees its worker
    # Nagle + delayed ACK costs ~40ms per keep-alive round-trip on small
    # JSON bodies; a serving tier answers now, not on the next ACK.
    disable_nagle_algorithm = True

    # -- plumbing ---------------------------------------------------------------

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        # BaseHTTPRequestHandler funnels its own diagnostics (parse errors,
        # log_request) through here; route them to the structured logger so
        # quiet mode and the JSON-lines format are honored uniformly.
        self.server.logger.log(
            "http.message",
            message=format % args,
            client=self.address_string(),
            request_id=getattr(self, "_request_id", None),
        )

    def log_request(self, code: object = "-", size: object = "-") -> None:
        # Replaced by the access-log line in _finish_request (which carries
        # the request id and latency); suppress the default per-response log.
        pass

    def _send_json(
        self,
        status: int,
        payload: dict,
        headers: dict | None = None,
        inject_request_id: bool = True,
    ) -> None:
        request_id = getattr(self, "_request_id", None)
        if (
            inject_request_id
            and request_id is not None
            and "request_id" not in payload
        ):
            payload = {**payload, "request_id": request_id}
        body = json.dumps(payload).encode("utf-8")
        self._status = status
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, str(value))
        if request_id is not None:
            self.send_header("X-Request-Id", request_id)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_error_envelope(
        self,
        status: int,
        code: str,
        message: str,
        headers: dict | None = None,
    ) -> None:
        self._send_json(
            status,
            error_envelope(code, message, getattr(self, "_request_id", None)),
            headers=headers,
            inject_request_id=False,
        )

    def _send_text(self, status: int, text: str) -> None:
        body = text.encode("utf-8")
        self._status = status
        self.send_response(status)
        self.send_header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        if getattr(self, "_request_id", None) is not None:
            self.send_header("X-Request-Id", self._request_id)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _begin_request(self) -> None:
        self._started = time.perf_counter()
        self._status = 0
        self._request_id = self.headers.get("X-Request-Id") or new_request_id()
        self._client_disconnected = False
        self._slot_held = False
        # One snapshot per request: a hot reload mid-request cannot hand
        # this handler a hybrid of two ruleset generations.
        self._snapshot = self.server.service.state
        self.server.track_request(1)
        deadline = self.server.request_deadline_seconds
        header = self.headers.get("X-Request-Deadline-Ms")
        if header is not None:
            try:
                requested = float(header) / 1e3
            except ValueError:
                requested = None
            if requested is not None and requested > 0:
                deadline = (
                    requested if deadline is None else min(deadline, requested)
                )
        self._deadline = None if deadline is None else self._started + deadline

    def _check_deadline(self) -> None:
        if (
            self._deadline is not None
            and time.perf_counter() > self._deadline
        ):
            raise _DeadlineExceeded()

    def _admit(self) -> bool:
        """Backpressure + drain gate; ops endpoints always pass.

        Returns False after sending the 503 itself — the caller just
        returns.  A held slot is released in ``_finish_request``.
        """
        server = self.server
        if self.path in _OPS_PATHS:
            return True
        if server.draining:
            self.close_connection = True
            server.metrics.inc("http.backpressure_rejections", 1, reason="draining")
            self._send_error_envelope(
                503,
                "draining",
                "server is shutting down",
                headers={"Retry-After": 1},
            )
            return False
        if not server.try_acquire_slot():
            server.metrics.inc("http.backpressure_rejections", 1, reason="capacity")
            self._send_error_envelope(
                503,
                "over_capacity",
                "server at capacity",
                headers={"Retry-After": 1},
            )
            return False
        self._slot_held = True
        return True

    def _finish_request(self, method: str) -> None:
        duration = time.perf_counter() - self._started
        path = self.path if self.path in _KNOWN_PATHS else "other"
        server = self.server
        if self._slot_held:
            server.release_slot()
        server.track_request(-1)
        metrics = server.metrics
        if self._client_disconnected:
            # The peer hung up mid-response: there is no meaningful status
            # to record (and recording a 500 would page someone for a
            # client-side event); count the disconnect instead.
            metrics.inc("http.client_disconnects", 1, method=method, path=path)
            server.logger.log(
                "http.client_disconnect",
                request_id=self._request_id,
                method=method,
                path=self.path,
                duration_ms=round(duration * 1e3, 3),
                client=self.address_string(),
            )
            return
        metrics.inc(
            "http.requests", 1, method=method, path=path, status=self._status
        )
        metrics.observe("http.request_seconds", duration, method=method, path=path)
        server.logger.log(
            "http.request",
            request_id=self._request_id,
            method=method,
            path=self.path,
            status=self._status,
            duration_ms=round(duration * 1e3, 3),
            client=self.address_string(),
        )

    def _read_json_body(self) -> object:
        try:
            length = int(self.headers.get("Content-Length", 0) or 0)
        except ValueError:
            self.close_connection = True  # body length unknown: cannot drain
            raise ServeError("Content-Length header is not an integer") from None
        if length <= 0:
            raise ServeError("request body is empty")
        if length > MAX_BODY_BYTES:
            self.close_connection = True  # body left unread on the socket
            raise ServeError(f"request body exceeds {MAX_BODY_BYTES} bytes")
        # rfile wraps a socket: one read may legally return fewer than
        # ``length`` bytes (e.g. the body arrives in several TCP segments).
        # Loop until the declared length is in hand; a premature EOF means
        # the peer hung up mid-body, so the connection cannot be reused.
        chunks = []
        remaining = length
        while remaining > 0:
            chunk = self.rfile.read(remaining)
            if not chunk:
                self.close_connection = True
                raise ServeError(
                    f"request body truncated: expected {length} bytes, "
                    f"got {length - remaining}"
                )
            chunks.append(chunk)
            remaining -= len(chunk)
        raw = b"".join(chunks)
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ServeError(f"request body is not valid JSON: {exc}") from None

    # -- routing ----------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._route("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._route("POST")

    def _route(self, method: str) -> None:
        self._begin_request()
        try:
            try:
                if not self._admit():
                    return
                path = self.path
                if path not in _KNOWN_PATHS:
                    if method == "POST":
                        # The request body is never read on this path;
                        # close the connection so leftover bytes cannot
                        # corrupt a keep-alive peer.
                        self.close_connection = True
                    raise ApiError.not_found(f"unknown path {path!r}")
                allowed = "POST" if path in _V1_POST else "GET"
                if method != allowed:
                    if method == "POST":
                        self.close_connection = True  # body left unread
                    raise ApiError(
                        405,
                        "method_not_allowed",
                        f"{path} only supports {allowed}",
                    )
                getattr(self, _HANDLERS[path])()
            except (BrokenPipeError, ConnectionResetError):
                raise  # the outer handler owns disconnects, not the 500 path
            except _DeadlineExceeded:
                self._send_deadline_exceeded(method)
            except ApiError as exc:
                self._send_error_envelope(exc.status, exc.code, str(exc))
            except ReproError as exc:
                self._send_error_envelope(400, "bad_request", str(exc))
            except Exception as exc:
                # Without this, a crashed route escapes to http.server: the
                # client gets no response while the metric/access-log record
                # status=0.  Answer the uniform envelope instead.
                self._send_error_envelope(
                    500, "internal", f"internal error: {exc}"
                )
        except (BrokenPipeError, ConnectionResetError):
            self._client_disconnected = True
            self.close_connection = True
        finally:
            self._finish_request(method)

    def _send_deadline_exceeded(self, method: str) -> None:
        path = self.path if self.path in _KNOWN_PATHS else "other"
        self.server.metrics.inc(
            "http.deadline_exceeded", 1, method=method, path=path
        )
        self.close_connection = True  # the peer has likely given up waiting
        self._send_error_envelope(
            504, "deadline_exceeded", "request deadline exceeded"
        )

    # -- route handlers ----------------------------------------------------------

    def _handle_health(self) -> None:
        response = self.server.service.health(
            self._snapshot, self.server.draining
        )
        self._send_json(200, response.to_payload())

    def _handle_rules(self) -> None:
        self._check_deadline()
        self._send_json(200, self.server.service.rules(self._snapshot).to_payload())

    def _handle_metrics(self) -> None:
        self._send_text(200, self.server.render_metrics())

    def _handle_artifacts(self) -> None:
        self._check_deadline()
        response = self.server.service.list_artifacts(self._snapshot)
        self._send_json(200, response.to_payload())

    def _handle_activate(self) -> None:
        self._check_deadline()
        request = ActivateRequest.parse(self._read_json_body())
        response = self.server.service.activate(request)
        self.server.metrics.inc("serve.reloads", 1)
        self._send_json(200, response.to_payload())

    def _handle_prescribe(self) -> None:
        self._check_deadline()
        request = PrescribeRequest.parse(self._read_json_body())
        response = self.server.service.prescribe(
            request,
            self._snapshot,
            deadline_check=self._check_deadline if self._deadline else None,
        )
        self._check_deadline()
        self._send_json(200, response.to_payload())


def make_server(
    engine: PrescriptionEngine | None = None,
    host: str = "127.0.0.1",
    port: int = 8080,
    quiet: bool = True,
    log_stream=None,
    max_concurrency: int | None = 64,
    request_deadline_seconds: float | None = None,
    config: ServeConfig | None = None,
    service: PrescriptionService | None = None,
    registry: ArtifactRegistry | None = None,
) -> PrescriptionServer:
    """Bind a :class:`PrescriptionServer` (``port=0`` picks a free port).

    Three ways to say what to serve, in precedence order: a ready
    ``service``, a ``registry`` (or ``config.artifact_dir``) to build one
    from, or a bare ``engine`` (single-artifact mode).  A full
    :class:`ServeConfig` supersedes the individual keyword arguments,
    which remain for the common programmatic case::

        server = make_server(engine, port=0)                      # simple
        server = make_server(config=cfg, registry=reg)            # full tier

    ``log_stream`` redirects the structured access log (stderr by default);
    the tests pass a ``StringIO`` to assert on the emitted JSON lines.
    """
    if config is None:
        config = ServeConfig(
            host=host,
            port=port,
            quiet=quiet,
            max_concurrency=max_concurrency,
            request_deadline_seconds=request_deadline_seconds,
        )
    if service is None:
        if registry is None and config.artifact_dir is not None:
            registry = ArtifactRegistry(config.artifact_dir)
        if registry is not None:
            service = PrescriptionService.from_registry(
                registry, cache_size=config.cache_size
            )
        elif engine is not None:
            service = PrescriptionService.from_engine(engine)
        else:
            raise ServeError(
                "make_server needs an engine, a service, or an artifact "
                "directory to serve from"
            )
    return PrescriptionServer(
        (config.host, config.port), service, config=config, log_stream=log_stream
    )


def run_server(
    engine: PrescriptionEngine | None = None,
    config: ServeConfig | None = None,
    service: PrescriptionService | None = None,
) -> None:
    """Serve until interrupted (the blocking path behind the CLI).

    All tunables come from ``config`` (a :class:`ServeConfig`); SIGTERM
    triggers a graceful shutdown: the accept loop stops, new requests are
    rejected with 503, and in-flight requests get up to
    ``config.drain_timeout_seconds`` to finish before the socket closes —
    the contract a rolling deploy or an orchestrator's preStop hook
    expects.
    """
    if config is None:
        config = ServeConfig(quiet=False)
    server = make_server(engine, config=config, service=service)
    state = server.service.state
    version = (
        f" (artifact v{state.version})" if state.version is not None else ""
    )
    print(
        f"serving {len(state.engine.ruleset)} prescription rules{version} "
        f"on http://{config.host}:{server.port} (Ctrl-C to stop)"
    )

    def _on_sigterm(signum, frame):  # pragma: no cover - signal path
        server.begin_graceful_shutdown(
            drain_timeout=config.drain_timeout_seconds
        )

    try:
        previous = signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:  # pragma: no cover - non-main thread (tests)
        previous = None
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        server.draining = True
    finally:
        drained = server.drain(timeout=config.drain_timeout_seconds)
        if not drained:  # pragma: no cover - only on a wedged handler
            server.logger.log(
                "http.drain_timeout", inflight=server.inflight
            )
        server.server_close()
        if previous is not None:
            try:
                signal.signal(signal.SIGTERM, previous)
            except ValueError:  # pragma: no cover
                pass
