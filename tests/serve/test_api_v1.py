"""The /v1 API surface: versioned routes, the uniform error envelope, and
method handling.  The unversioned pre-/v1 paths are gone: they answer 404."""

from __future__ import annotations

import http.client
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.serve.engine import PrescriptionEngine
from repro.serve.http import make_server

US_ROW = {"Country": "US", "Age": 35.0, "Gender": "M"}


@pytest.fixture()
def live_server(toy_ruleset, serve_protected):
    engine = PrescriptionEngine(toy_ruleset, protected=serve_protected)
    server = make_server(engine, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, f"http://127.0.0.1:{server.port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _request(
    url: str,
    data: bytes | None = None,
    headers: dict | None = None,
    method: str | None = None,
):
    """(status, raw body bytes, headers) without raising on HTTP errors."""
    request = urllib.request.Request(
        url, data=data, headers=headers or {}, method=method
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, response.read(), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, error.read(), dict(error.headers)


# -- /v1 surface ---------------------------------------------------------------


def test_v1_prescribe_carries_request_id_and_version(live_server):
    _, base = live_server
    status, body, headers = _request(
        base + "/v1/prescribe",
        data=json.dumps({"individual": US_ROW}).encode(),
        headers={"Content-Type": "application/json"},
    )
    assert status == 200
    payload = json.loads(body)
    assert payload["prescription"]["rule_index"] == 0
    assert payload["ruleset_version"] is None  # single-artifact mode
    assert payload["request_id"] == headers["X-Request-Id"]


def test_v1_health_and_rules(live_server):
    _, base = live_server
    status, body, __ = _request(base + "/v1/health")
    assert status == 200
    payload = json.loads(body)
    assert payload["status"] == "ok"
    assert payload["n_rules"] == 3
    assert payload["ruleset_version"] is None

    status, body, __ = _request(base + "/v1/rules")
    assert status == 200
    assert json.loads(body)["n_rules"] == 3


def test_v1_metrics_is_prometheus_text(live_server):
    _, base = live_server
    status, body, headers = _request(base + "/v1/metrics")
    assert status == 200
    assert headers["Content-Type"].startswith("text/plain")
    assert b"serve_ruleset_version" in body


def test_v1_artifacts_single_mode_is_read_only(live_server):
    _, base = live_server
    status, body, __ = _request(base + "/v1/artifacts")
    assert status == 200
    payload = json.loads(body)
    assert payload["registry"] is False
    assert payload["artifacts"] == []

    status, body, __ = _request(
        base + "/v1/artifacts/activate",
        data=json.dumps({"version": 1}).encode(),
        headers={"Content-Type": "application/json"},
    )
    assert status == 400
    assert json.loads(body)["error"]["code"] == "bad_request"


# -- error envelope and methods ------------------------------------------------


@pytest.mark.parametrize(
    ("method", "path"),
    [
        ("GET", "/v1/nope"),
        ("GET", "/health"),
        ("GET", "/rules"),
        ("GET", "/metrics"),
        ("POST", "/prescribe"),
    ],
    ids=["v1-nope", "health", "rules", "metrics", "prescribe"],
)
def test_unknown_path_envelope(live_server, method, path):
    server, _ = live_server
    body = json.dumps({"individual": US_ROW}).encode() if method == "POST" else None
    # http.client keeps the connection alive unless the server closes it
    # (urllib asks for ``Connection: close`` on every request).
    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
    try:
        connection.request(
            method, path, body=body, headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        payload = json.loads(response.read())
    finally:
        connection.close()
    assert response.status == 404
    assert set(payload) == {"error"}
    assert set(payload["error"]) == {"code", "message", "request_id"}
    assert payload["error"]["code"] == "not_found"
    assert repr(path) in payload["error"]["message"]
    # A POST body to an unknown path is never read, so its connection closes.
    assert (response.getheader("Connection") == "close") == (method == "POST")


def test_error_envelope_echoes_pinned_request_id(live_server):
    _, base = live_server
    status, body, __ = _request(
        base + "/v1/prescribe",
        data=json.dumps({"wrong": 1}).encode(),
        headers={"Content-Type": "application/json", "X-Request-Id": "pin-2"},
    )
    assert status == 400
    payload = json.loads(body)
    assert payload["error"]["code"] == "bad_request"
    assert payload["error"]["request_id"] == "pin-2"


def test_wrong_method_is_405_not_404(live_server):
    _, base = live_server
    status, body, __ = _request(base + "/v1/prescribe")  # GET on a POST route
    assert status == 405
    assert json.loads(body)["error"]["code"] == "method_not_allowed"

    status, body, __ = _request(
        base + "/v1/health",
        data=b"{}",
        headers={"Content-Type": "application/json"},
    )
    assert status == 405
    assert json.loads(body)["error"]["code"] == "method_not_allowed"


def test_activate_request_validation(live_server):
    _, base = live_server

    def post_activate(payload):
        status, body, __ = _request(
            base + "/v1/artifacts/activate",
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        return status, json.loads(body)

    status, payload = post_activate({"version": "two"})
    assert status == 400 and "integer" in payload["error"]["message"]
    status, payload = post_activate({"version": True})
    assert status == 400 and "integer" in payload["error"]["message"]
    status, payload = post_activate({"version": 1, "rollback": True})
    assert status == 400 and "mutually exclusive" in payload["error"]["message"]
    status, payload = post_activate([1, 2])
    assert status == 400 and "JSON object" in payload["error"]["message"]
