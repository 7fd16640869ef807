"""Regression tests for HTTP-layer robustness bugs.

Covers two serving-tier fixes:

- ``_read_json_body`` must loop until the declared ``Content-Length`` is in
  hand (a single ``rfile.read`` may legally return fewer bytes when the
  body arrives in several TCP segments) and must map a premature EOF to a
  400 that closes the connection;
- a crashed GET route must produce the same JSON 500 fallback ``do_POST``
  has, so the client gets a response and the request metric records the
  real status instead of 0.
"""

from __future__ import annotations

import io
import json
import socket
import threading
import time

import pytest

from repro.serve.engine import PrescriptionEngine
from repro.serve.http import PrescriptionRequestHandler, make_server
from repro.utils.errors import ServeError


@pytest.fixture()
def live_server(toy_ruleset, serve_protected):
    """A server on an ephemeral port, torn down after the test."""
    engine = PrescriptionEngine(toy_ruleset, protected=serve_protected)
    server = make_server(engine, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _drain(sock: socket.socket) -> str:
    chunks = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            break
        chunks.append(chunk)
    return b"".join(chunks).decode()


# -- wire-level: segmented and truncated bodies -------------------------------


def test_body_delivered_in_two_tcp_segments(live_server):
    """A body split across TCP segments must still be read in full."""
    body = json.dumps(
        {"individual": {"Country": "US", "Age": 35.0, "Gender": "M"}}
    ).encode()
    head = (
        b"POST /v1/prescribe HTTP/1.1\r\nHost: test\r\n"
        b"Content-Type: application/json\r\nConnection: close\r\n"
        + f"Content-Length: {len(body)}\r\n\r\n".encode()
    )
    split = len(body) // 2
    with socket.create_connection(("127.0.0.1", live_server.port), timeout=5) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.sendall(head + body[:split])
        time.sleep(0.2)  # force the remainder into a separate segment
        sock.sendall(body[split:])
        response = _drain(sock)
    assert response.startswith("HTTP/1.1 200")
    assert '"rule_index": 0' in response


def test_truncated_body_is_400_and_closes_connection(live_server):
    """EOF before Content-Length bytes arrive is a client error, not a hang."""
    body = json.dumps({"individual": {"Country": "US"}}).encode()
    head = (
        b"POST /v1/prescribe HTTP/1.1\r\nHost: test\r\n"
        b"Content-Type: application/json\r\n"
        + f"Content-Length: {len(body)}\r\n\r\n".encode()
    )
    with socket.create_connection(("127.0.0.1", live_server.port), timeout=5) as sock:
        sock.sendall(head + body[: len(body) // 2])
        sock.shutdown(socket.SHUT_WR)  # half-close: server sees EOF mid-body
        response = _drain(sock)
    assert response.startswith("HTTP/1.1 400")
    assert "truncated" in response
    assert "Connection: close" in response


# -- unit-level: the read loop against a stub stream --------------------------


class _Headers:
    def __init__(self, length: int) -> None:
        self._length = length

    def get(self, name: str, default=None):
        if name == "Content-Length":
            return str(self._length)
        return default


class _DribblingStream:
    """A stream that returns at most ``chunk`` bytes per read call."""

    def __init__(self, payload: bytes, chunk: int) -> None:
        self._stream = io.BytesIO(payload)
        self._chunk = chunk

    def read(self, n: int) -> bytes:
        return self._stream.read(min(n, self._chunk))


def _bare_handler(payload: bytes, declared: int, chunk: int):
    handler = object.__new__(PrescriptionRequestHandler)
    handler.headers = _Headers(declared)
    handler.rfile = _DribblingStream(payload, chunk)
    handler.close_connection = False
    return handler


def test_read_json_body_loops_over_short_reads():
    payload = json.dumps({"individuals": [{"a": 1}, {"a": 2}]}).encode()
    handler = _bare_handler(payload, declared=len(payload), chunk=3)
    assert handler._read_json_body() == {"individuals": [{"a": 1}, {"a": 2}]}
    assert handler.close_connection is False


def test_read_json_body_reports_byte_counts_on_eof():
    payload = b'{"individual": {}}'
    handler = _bare_handler(payload[:7], declared=len(payload), chunk=4)
    with pytest.raises(ServeError, match=r"expected 18 bytes, got 7"):
        handler._read_json_body()
    assert handler.close_connection is True


# -- GET crash fallback -------------------------------------------------------


def _boom_rules(state):
    raise RuntimeError("kaboom")


def test_crashed_get_route_returns_json_500(live_server):
    live_server.service.rules = _boom_rules  # the /v1/rules service call crashes
    with socket.create_connection(("127.0.0.1", live_server.port), timeout=5) as sock:
        sock.sendall(b"GET /v1/rules HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        response = _drain(sock)
    status_line, _, rest = response.partition("\r\n")
    assert status_line == "HTTP/1.1 500 Internal Server Error"
    body = json.loads(rest.split("\r\n\r\n", 1)[1])
    assert body["error"]["code"] == "internal"
    assert body["error"]["message"] == "internal error: kaboom"
    assert body["error"]["request_id"]

    # The request metric must record the real status, not 0 (folded under
    # the canonical /v1 label even for the alias path).
    deadline = time.monotonic() + 2.0
    want = 'http_requests_total{method="GET",path="/v1/rules",status="500"} 1'
    while time.monotonic() < deadline:
        if want in live_server.render_metrics():
            break
        time.sleep(0.01)
    assert want in live_server.render_metrics()
    stale = 'status="0"'
    assert stale not in live_server.render_metrics()
