"""Serving-tier resilience: backpressure, deadlines, drain, disconnects.

Each test drives a live :class:`~repro.serve.http.PrescriptionServer` into
one production failure mode and asserts the contract: overload answers an
honest 503 + ``Retry-After`` (never a hang), late requests answer 504, a
draining server finishes in-flight work while rejecting new work, and a
peer hanging up mid-response is counted — never recorded as a 500.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.serve.engine import PrescriptionEngine
from repro.serve.http import make_server
from repro.utils.errors import ServeError
from tests.serve.conftest import wait_until

US_ROW = {"Country": "US", "Age": 35.0, "Gender": "M"}


class _GatedEngine:
    """Wraps an engine so ``prescribe`` blocks until the test releases it."""

    def __init__(self, engine: PrescriptionEngine):
        self._engine = engine
        self.entered = threading.Event()
        self.release = threading.Event()

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def prescribe(self, individual):
        self.entered.set()
        assert self.release.wait(timeout=10.0), "test forgot to release the gate"
        return self._engine.prescribe(individual)


@pytest.fixture()
def gated_engine(toy_ruleset, serve_protected):
    return _GatedEngine(PrescriptionEngine(toy_ruleset, protected=serve_protected))


def _serve(server):
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread


def _get(url: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _post(url: str, payload: object) -> tuple[int, dict, dict]:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read()), dict(
                response.headers
            )
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


def _counter_total(server, name: str) -> float:
    counter = server.metrics.snapshot()["counters"].get(name)
    if counter is None:
        return 0.0
    return sum(counter["values"].values())


# -- backpressure -------------------------------------------------------------


def test_capacity_overflow_rejects_with_503_retry_after(gated_engine):
    server = make_server(gated_engine, port=0, max_concurrency=1)
    thread = _serve(server)
    base = f"http://127.0.0.1:{server.port}"
    slow_result: dict = {}

    def slow_request():
        slow_result["response"] = _post(
            base + "/prescribe", {"individual": US_ROW}
        )

    worker = threading.Thread(target=slow_request)
    worker.start()
    try:
        assert gated_engine.entered.wait(timeout=10.0)
        # The only slot is held by the in-flight request: reject, don't queue.
        status, payload, headers = _post(
            base + "/prescribe", {"individual": US_ROW}
        )
        assert status == 503
        assert payload["error"]["code"] == "over_capacity"
        assert "capacity" in payload["error"]["message"]
        assert headers.get("Retry-After") == "1"
        # Ops endpoints bypass the gate: reachable exactly when overloaded.
        assert _get(base + "/health")[0] == 200
        assert _counter_total(server, "http.backpressure_rejections") == 1.0
    finally:
        gated_engine.release.set()
        worker.join(timeout=10)
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert slow_result["response"][0] == 200  # the admitted request finished


def test_concurrency_gate_validation(toy_ruleset, serve_protected):
    engine = PrescriptionEngine(toy_ruleset, protected=serve_protected)
    with pytest.raises(ServeError):
        make_server(engine, port=0, max_concurrency=0)
    with pytest.raises(ServeError):
        make_server(engine, port=0, request_deadline_seconds=0.0)


# -- deadlines ----------------------------------------------------------------


@pytest.fixture()
def live_server(toy_ruleset, serve_protected):
    engine = PrescriptionEngine(toy_ruleset, protected=serve_protected)
    server = make_server(engine, port=0)
    thread = _serve(server)
    try:
        yield server, f"http://127.0.0.1:{server.port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def test_request_deadline_header_maps_to_504(live_server):
    server, base = live_server
    request = urllib.request.Request(
        base + "/prescribe",
        data=json.dumps({"individual": US_ROW}).encode("utf-8"),
        headers={
            "Content-Type": "application/json",
            # A microsecond deadline is already in the past by dispatch time.
            "X-Request-Deadline-Ms": "0.001",
        },
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=10)
    assert excinfo.value.code == 504
    body = json.loads(excinfo.value.read())
    assert body["error"]["code"] == "deadline_exceeded"
    assert "deadline" in body["error"]["message"]
    assert _counter_total(server, "http.deadline_exceeded") == 1.0
    # A 504 is not a success and not a 500: recorded under its own status.
    # The alias request is folded under its canonical /v1 label.  The
    # handler counts the request after writing the response, so poll.
    assert wait_until(lambda: _counter_total(server, "http.requests"))
    requests = server.metrics.snapshot()["counters"]["http.requests"]["values"]
    assert requests == {"method=POST,path=/v1/prescribe,status=504": 1.0}


def test_server_level_deadline_bounds_batches(toy_ruleset, serve_protected):
    engine = PrescriptionEngine(toy_ruleset, protected=serve_protected)
    server = make_server(engine, port=0, request_deadline_seconds=1e-6)
    thread = _serve(server)
    try:
        status, payload, _ = _post(
            f"http://127.0.0.1:{server.port}/prescribe",
            {"individuals": [US_ROW] * 50},
        )
        assert status == 504
        assert payload["error"]["code"] == "deadline_exceeded"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def test_generous_deadline_does_not_interfere(live_server):
    _, base = live_server
    request = urllib.request.Request(
        base + "/prescribe",
        data=json.dumps({"individuals": [US_ROW, US_ROW]}).encode("utf-8"),
        headers={
            "Content-Type": "application/json",
            "X-Request-Deadline-Ms": "30000",
        },
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        assert response.status == 200
        assert json.loads(response.read())["count"] == 2


# -- graceful shutdown --------------------------------------------------------


def test_graceful_shutdown_drains_inflight_and_rejects_new(gated_engine):
    server = make_server(gated_engine, port=0)
    thread = _serve(server)
    base = f"http://127.0.0.1:{server.port}"
    slow_result: dict = {}

    def slow_request():
        slow_result["response"] = _post(
            base + "/prescribe", {"individual": US_ROW}
        )

    worker = threading.Thread(target=slow_request)
    worker.start()
    try:
        assert gated_engine.entered.wait(timeout=10.0)
        server.begin_graceful_shutdown(drain_timeout=10.0)
        # The accept loop keeps answering during the drain: new work gets
        # an honest 503, health reports the draining state.
        status, payload, headers = _post(
            base + "/prescribe", {"individual": US_ROW}
        )
        assert status == 503
        assert payload["error"]["code"] == "draining"
        assert "shutting down" in payload["error"]["message"]
        assert headers.get("Retry-After") == "1"
        status, payload = _get(base + "/health")
        assert status == 200 and payload["draining"] is True
    finally:
        gated_engine.release.set()
        worker.join(timeout=10)
    # The in-flight request was drained, not killed.
    assert slow_result["response"][0] == 200
    thread.join(timeout=10)
    assert not thread.is_alive(), "accept loop kept running after the drain"
    server.server_close()
    # Idempotent: a second signal must not start a second drain thread.
    server.begin_graceful_shutdown()


# -- client disconnects -------------------------------------------------------


def test_client_disconnect_is_counted_not_a_500(gated_engine):
    server = make_server(gated_engine, port=0)
    thread = _serve(server)
    try:
        body = json.dumps({"individual": US_ROW}).encode()
        sock = socket.create_connection(("127.0.0.1", server.port), timeout=10)
        sock.sendall(
            b"POST /prescribe HTTP/1.1\r\n"
            b"Host: test\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n"
            b"\r\n" + body
        )
        # Wait until the handler holds the request, then reset the
        # connection (SO_LINGER 0 sends RST, not FIN) and let it respond
        # into the dead socket.
        assert gated_engine.entered.wait(timeout=10.0)
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        sock.close()
        gated_engine.release.set()

        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if _counter_total(server, "http.client_disconnects") >= 1.0:
                break
            time.sleep(0.01)
        assert _counter_total(server, "http.client_disconnects") >= 1.0
        # The disconnect is the client's event, not a server failure: no
        # request may be recorded with a 5xx status.
        requests = (
            server.metrics.snapshot()["counters"]
            .get("http.requests", {"values": {}})["values"]
        )
        assert not any("status=5" in key for key in requests)
    finally:
        gated_engine.release.set()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
