"""Serving-tier observability: /v1/metrics, request ids, structured logs."""

from __future__ import annotations

import io
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.serve.engine import PrescriptionEngine
from repro.serve.http import make_server
from tests.serve.conftest import exchange, wait_until


@pytest.fixture()
def observed_server(toy_ruleset, serve_protected):
    """A live server with structured logging captured into a StringIO."""
    engine = PrescriptionEngine(toy_ruleset, protected=serve_protected)
    stream = io.StringIO()
    server = make_server(engine, port=0, quiet=False, log_stream=stream)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.port}", stream
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _get(url: str, headers: dict | None = None):
    request = urllib.request.Request(url, headers=headers or {})
    with urllib.request.urlopen(request) as response:
        return response, response.read()


def _log_events(stream: io.StringIO, event: str) -> list[dict]:
    records = [json.loads(line) for line in stream.getvalue().splitlines()]
    return [r for r in records if r["event"] == event]


def test_metrics_exposition_after_traffic(observed_server):
    base, _ = observed_server
    _get(base + "/v1/health")
    _get(base + "/v1/health")
    want = 'http_requests_total{method="GET",path="/v1/health",status="200"} 2'

    def scrape():
        response, body = _get(base + "/v1/metrics")
        assert response.status == 200
        assert response.headers["Content-Type"].startswith("text/plain")
        text = body.decode("utf-8")
        return text if want in text else ""

    text = wait_until(scrape)
    assert "# TYPE http_requests_total counter" in text
    assert want in text
    assert 'http_request_seconds_bucket{method="GET",path="/v1/health",le="+Inf"} 2' in text
    assert 'http_request_seconds_count{method="GET",path="/v1/health"} 2' in text
    assert "# TYPE engine_rules gauge" in text
    assert "engine_rules 3" in text
    assert "engine_cache_size" in text


def test_unknown_paths_fold_into_other_label(observed_server):
    base, _ = observed_server
    for path in ("/nope", "/admin", "/nope/deeper"):
        try:
            _get(base + path)
        except urllib.error.HTTPError:
            pass
    want = 'http_requests_total{method="GET",path="other",status="404"} 3'
    text = wait_until(
        lambda: next(
            (t for t in [_get(base + "/v1/metrics")[1].decode("utf-8")] if want in t),
            "",
        )
    )
    assert want in text
    assert "/nope" not in text  # scanned paths never become label values


def test_request_id_minted_and_echoed(observed_server):
    base, _ = observed_server
    response, body = _get(base + "/v1/health")
    minted = response.headers["X-Request-Id"]
    assert minted and len(minted) == 12
    assert json.loads(body)["request_id"] == minted

    response, body = _get(base + "/v1/health", headers={"X-Request-Id": "abc-123"})
    assert response.headers["X-Request-Id"] == "abc-123"
    assert json.loads(body)["request_id"] == "abc-123"


def test_access_log_lines_correlate_with_responses(observed_server):
    base, stream = observed_server
    response, _ = _get(base + "/v1/health", headers={"X-Request-Id": "corr-1"})
    assert response.status == 200
    events = wait_until(lambda: _log_events(stream, "http.request"))
    assert len(events) == 1
    record = events[0]
    assert record["component"] == "serve"
    assert record["request_id"] == "corr-1"
    assert record["method"] == "GET"
    assert record["path"] == "/v1/health"
    assert record["status"] == 200
    assert record["duration_ms"] >= 0
    assert "ts" in record and "client" in record


def test_quiet_server_logs_nothing(toy_ruleset, serve_protected):
    engine = PrescriptionEngine(toy_ruleset, protected=serve_protected)
    stream = io.StringIO()
    server = make_server(engine, port=0, quiet=True, log_stream=stream)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        _get(f"http://127.0.0.1:{server.port}/v1/health")
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    time.sleep(0.05)  # let any stray handler thread finish before asserting
    assert stream.getvalue() == ""


def test_prescribe_latency_lands_in_the_histogram(observed_server):
    base, stream = observed_server
    request = urllib.request.Request(
        base + "/v1/prescribe",
        data=json.dumps({"individual": {"Country": "US", "Age": 35.0}}).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        payload = json.loads(response.read())
    assert "request_id" in payload
    want = ('http_requests_total{method="POST",path="/v1/prescribe",status="200"} 1')
    text = wait_until(
        lambda: next(
            (t for t in [_get(base + "/v1/metrics")[1].decode("utf-8")] if want in t),
            "",
        )
    )
    assert want in text
    assert 'http_request_seconds_count{method="POST",path="/v1/prescribe"} 1' in text
    events = wait_until(lambda: _log_events(stream, "http.request"))
    assert any(r["path"] == "/v1/prescribe" and r["status"] == 200 for r in events)


def test_transport_rejections_are_counted_and_logged(observed_server):
    base, stream = observed_server
    port = int(base.rsplit(":", 1)[1])
    put = b"PUT /v1/prescribe HTTP/1.1\r\nX-Request-Id: put-1\r\n\r\n"
    assert exchange(port, put).startswith(b"HTTP/1.1 501 ")
    # 100 fields: with the blank line, one line over the 100-line head limit.
    fields = "".join(f"X-F{i}: v\r\n" for i in range(99))
    oversized = f"GET /v1/health HTTP/1.1\r\nX-Request-Id: big-1\r\n{fields}\r\n"
    assert exchange(port, oversized.encode()).startswith(b"HTTP/1.1 431 ")

    want = (
        'http_requests_total{method="other",path="/v1/prescribe",status="501"} 1',
        'http_requests_total{method="GET",path="/v1/health",status="431"} 1',
    )
    text = wait_until(
        lambda: next(
            (
                t for t in [_get(base + "/v1/metrics")[1].decode("utf-8")]
                if all(line in t for line in want)
            ),
            "",
        )
    )
    assert all(line in text for line in want)
    # A rejection has no latency: it never reaches a route's clock.
    assert 'http_request_seconds_count{method="other"' not in text

    def rejections():
        events = {r["request_id"]: r for r in _log_events(stream, "http.request")}
        return events if {"put-1", "big-1"} <= set(events) else {}

    events = wait_until(rejections)
    assert events["put-1"]["method"] == "PUT"
    assert events["put-1"]["path"] == "/v1/prescribe"
    assert events["put-1"]["status"] == 501
    assert events["big-1"]["status"] == 431
    assert "100 lines" in events["big-1"]["error"]
    assert _log_events(stream, "http.message") == []
