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

Transport: the handler parses request heads itself (``parse_request``)
into the same :class:`http.client.HTTPMessage` http.server builds, but
without ``http.client.parse_headers`` and the email package.  It keeps
http.server's request-line rules and http.client's limits: a request line
over 65,536 bytes answers 414, and a head line over 65,536 bytes or a
head of more than 100 lines answers 431.  A malformed head line answers
400.  These transport rejections (and 501 for a method without a
handler, 505 from HTTP/2.0) carry the JSON envelope too, as
``bad_request`` or, for 501, ``method_not_allowed``.  Every response
leaves in one ``wfile.write`` of status line, headers, blank line and
body.

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
import re
import signal
import threading
import time
from http.client import HTTPMessage
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

#: http.client's head limits, which http.server applies through
#: ``http.client.parse_headers``: a head line longer than this many bytes,
#: or a head of more lines than ``_MAX_HEAD_LINES`` (the blank line that
#: ends it counts, so 99 fields fit), answers 431.
_MAX_HEAD_LINE = 65536
_MAX_HEAD_LINES = 100

#: One head line: a field name as http.client's header pattern accepts
#: one (printable ASCII without the colon), the colon, optional blanks,
#: then a value without CR or LF up to the line ending.  Whitespace
#: before the colon or at the start of the line (an obs-fold
#: continuation) and a line without a colon fail it.
_HEAD_LINE = re.compile(r"([!-9;-~]+):[ \t]*([^\r\n]*)\r?\n?")

_WEEKDAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = (
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
)

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


def _http_date() -> str:
    """The ``Date`` header value for now (IMF-fixdate, always GMT)."""
    t = time.gmtime()
    return (
        f"{_WEEKDAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon - 1]} "
        f"{t.tm_year:04d} {t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT"
    )


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

    # -- request head ------------------------------------------------------------

    def parse_request(self) -> bool:
        """Parse the request line and head; False if there is nothing to serve.

        Replaces http.server's parser, which reads the head through
        ``http.client.parse_headers`` and the email package's feed parser.
        This one fills the same :class:`http.client.HTTPMessage`, one
        ``msg[name] = value`` per line, and keeps http.server's rules: the
        request-line and version checks (400, 505 from HTTP/2.0, HTTP/0.9
        for GET only, a leading ``//`` collapsed), http.client's limits
        (431), ``Connection`` and ``Expect: 100-continue``.  A head line
        without a colon, with whitespace before the colon, continuing the
        previous one (obs-fold) or holding a bare CR answers 400, where
        http.server ended the head early or folded the line, CRLF and
        all, into the previous value.  Every rejection is sent before
        returning.
        """
        # Reset first: send_error trusts ``headers`` only once ``command``
        # is set again.
        self.command = None
        self.request_version = self.default_request_version
        self.close_connection = True
        requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        self.requestline = requestline
        words = requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            # Set before the checks, unlike http.server, so that a bad or
            # too-new version is answered with a status line, not a bare
            # HTTP/0.9 body.
            self.request_version = version = words[-1]
            try:
                if not version.startswith("HTTP/"):
                    raise ValueError
                major, minor = version[5:].split(".")
                if not (major.isdigit() and minor.isdigit()):
                    raise ValueError
                if len(major) > 10 or len(minor) > 10:
                    raise ValueError
                version_number = int(major), int(minor)
            except ValueError:
                self.send_error(400, f"Bad request version ({version!r})")
                return False
            if version_number >= (1, 1) and self.protocol_version >= "HTTP/1.1":
                self.close_connection = False
            if version_number >= (2, 0):
                self.send_error(505, f"Invalid HTTP version ({version[5:]})")
                return False
        if not 2 <= len(words) <= 3:
            self.send_error(400, f"Bad request syntax ({requestline!r})")
            return False
        command, path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if command != "GET":
                self.send_error(400, f"Bad HTTP/0.9 request type ({command!r})")
                return False
        # Clients read a leading '//' as a network-path reference (an open
        # redirect); http.server collapses it and so does this parser.
        if path.startswith("//"):
            path = "/" + path.lstrip("/")
        self.command, self.path = command, path
        self.headers = headers = self.MessageClass()
        if not self._read_head(headers):
            return False

        conntype = headers.get("Connection", "").lower()
        if conntype == "close":
            self.close_connection = True
        elif conntype == "keep-alive" and self.protocol_version >= "HTTP/1.1":
            self.close_connection = False
        if (
            headers.get("Expect", "").lower() == "100-continue"
            and self.protocol_version >= "HTTP/1.1"
            and self.request_version >= "HTTP/1.1"
        ):
            return self.handle_expect_100()
        return True

    def _read_head(self, headers: HTTPMessage) -> bool:
        """Read head lines into ``headers`` up to the blank line (or EOF).

        Stores what http.client's parser stores: the name as sent and the
        value with leading blanks and the line ending stripped (trailing
        blanks stay).  False once a 400 or 431 is sent.
        """
        readline = self.rfile.readline
        for _ in range(_MAX_HEAD_LINES):
            line = readline(_MAX_HEAD_LINE + 1)
            if len(line) > _MAX_HEAD_LINE:
                self.send_error(431, f"header line longer than {_MAX_HEAD_LINE} bytes")
                return False
            if line in (b"\r\n", b"\n", b""):
                return True
            text = str(line, "iso-8859-1")
            match = _HEAD_LINE.fullmatch(text)
            if match is None:
                shown = text.rstrip("\r\n")[:64]
                self.send_error(400, f"malformed header line {shown!r}")
                return False
            headers[match[1]] = match[2]
        self.send_error(431, f"request head has more than {_MAX_HEAD_LINES} lines")
        return False

    # -- responses ---------------------------------------------------------------

    def _write_response(
        self,
        status: int,
        content_type: str,
        body: bytes,
        headers: dict | None = None,
    ) -> None:
        """Send status line, headers, blank line and body in one write.

        One write releases the GIL once and lets the client read the whole
        response with one ``recv``.  ``wfile`` stays unbuffered: a write
        into a hung-up socket raises here, once, inside ``_route``; a
        buffered ``wfile`` would keep the bytes and raise again in
        http.server's own ``flush``, counting the disconnect twice.
        """
        self._status = status
        if self.request_version == "HTTP/0.9":  # http.server's rule: no head
            self.wfile.write(body)
            return
        phrase = self.responses.get(status, ("",))[0]
        lines = [
            f"{self.protocol_version} {status} {phrase}",
            f"Server: {self.version_string()}",
            f"Date: {_http_date()}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
        ]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        request_id = getattr(self, "_request_id", None)
        if request_id is not None:
            lines.append(f"X-Request-Id: {request_id}")
        if self.close_connection:
            lines.append("Connection: close")
        lines.append("\r\n")
        head = "\r\n".join(lines).encode("latin-1")
        # A HEAD request is only ever answered by send_error (no do_HEAD):
        # its length is stated, its body is not sent.
        self.wfile.write(head if self.command == "HEAD" else head + body)

    def send_error(
        self, code: int, message: str | None = None, explain: str | None = None
    ) -> None:
        """Answer http.server's own rejections with the JSON envelope.

        http.server calls this for a request line longer than 65,536 bytes
        (414) and a method without a ``do_`` handler (501); ``parse_request``
        for a malformed request line or version (400), a version from 2.0
        (505), a malformed head line (400) and an oversized head (431).
        The connection closes after each.  ``explain`` is ignored.
        """
        self.close_connection = True
        # ``headers`` is this request's own (possibly partial) head once
        # parse_request has set ``command``; before that it may be the
        # previous request's on this connection.
        sent_id = self.headers.get("X-Request-Id") if self.command else None
        self._request_id = request_id = sent_id or new_request_id()
        message = message or self.responses.get(code, ("error",))[0]
        self.log_error("code %d, message %s", code, message)
        error_code = "method_not_allowed" if code == 501 else "bad_request"
        body = json.dumps(error_envelope(error_code, message, request_id))
        self._write_response(code, "application/json", body.encode("utf-8"))

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
        self._write_response(
            status,
            "application/json",
            json.dumps(payload).encode("utf-8"),
            headers=headers,
        )

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
        self._write_response(
            status,
            "text/plain; version=0.0.4; charset=utf-8",
            text.encode("utf-8"),
        )

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
