"""HTTP round-trip smoke tests against a live PrescriptionServer.

These run through the legacy (pre-/v1) alias paths on purpose: the aliases
must answer identically to their /v1 counterparts (test_api_v1.py pins the
byte-for-byte equivalence).
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.serve.engine import PrescriptionEngine
from repro.serve.http import make_server


@pytest.fixture()
def live_server(toy_ruleset, serve_protected):
    """A server on an ephemeral port, torn down after the test."""
    engine = PrescriptionEngine(toy_ruleset, protected=serve_protected)
    server = make_server(engine, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _get(url: str) -> tuple[int, dict]:
    with urllib.request.urlopen(url) as response:
        return response.status, json.loads(response.read())


def _post(url: str, payload: object) -> tuple[int, dict]:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def test_health(live_server):
    status, payload = _get(live_server + "/v1/health")
    assert status == 200
    assert payload["status"] == "ok"
    assert payload["n_rules"] == 3
    assert set(payload["cache"]) == {"hits", "misses", "size", "max_size"}


def test_rules_lists_the_served_ruleset(live_server, toy_ruleset):
    status, payload = _get(live_server + "/v1/rules")
    assert status == 200
    assert payload["n_rules"] == len(toy_ruleset)
    assert payload["rules"][0]["utility"] == 5.0
    assert payload["rules"][0]["grouping"][0]["attribute"] == "Country"


def test_prescribe_single(live_server):
    status, payload = _post(
        live_server + "/v1/prescribe",
        {"individual": {"Country": "US", "Age": 35.0, "Gender": "M"}},
    )
    assert status == 200
    prescription = payload["prescription"]
    assert prescription["rule_index"] == 0
    assert prescription["expected_utility"] == 5.0
    assert prescription["matched_rules"] == [0, 1, 2]


def test_prescribe_batch(live_server):
    individuals = [
        {"Country": "US", "Age": 35.0, "Gender": "M"},
        {"Country": "DE", "Age": 20.0, "Gender": "F"},
    ]
    status, payload = _post(
        live_server + "/v1/prescribe", {"individuals": individuals}
    )
    assert status == 200
    assert payload["count"] == 2
    assert payload["prescriptions"][0]["rule_index"] == 0
    # The German 20-year-old only matches the catch-all rule; she is
    # protected, so the worst-case protected utility applies.
    assert payload["prescriptions"][1]["rule_index"] == 2
    assert payload["prescriptions"][1]["protected"] is True


def test_prescribe_missing_attributes_is_400(live_server):
    status, payload = _post(
        live_server + "/v1/prescribe", {"individual": {"Country": "US"}}
    )
    assert status == 400
    assert payload["error"]["code"] == "bad_request"
    assert "missing attributes" in payload["error"]["message"]


def test_prescribe_numeric_string_is_400(live_server):
    """A number sent as a string on a numeric attribute is a bad request,
    not a match on the number it spells."""
    status, payload = _post(
        live_server + "/v1/prescribe",
        {"individual": {"Country": "US", "Age": "35", "Gender": "M"}},
    )
    assert status == 400
    assert payload["error"]["code"] == "bad_request"
    assert "cannot compare value '35'" in payload["error"]["message"]
    assert payload["error"]["request_id"]


def test_prescribe_malformed_json_is_400(live_server):
    request = urllib.request.Request(
        live_server + "/v1/prescribe",
        data=b"{nope",
        headers={"Content-Type": "application/json"},
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request)
    assert excinfo.value.code == 400
    body = json.loads(excinfo.value.read())
    assert "not valid JSON" in body["error"]["message"]


def test_prescribe_requires_individuals_key(live_server):
    status, payload = _post(live_server + "/v1/prescribe", {"wrong": 1})
    assert status == 400
    assert "individual" in payload["error"]["message"]


def test_post_unknown_path_closes_keepalive_connection(live_server):
    """The unread body must not bleed into the next keep-alive request."""
    import http.client

    host = live_server.removeprefix("http://")
    connection = http.client.HTTPConnection(host, timeout=5)
    connection.request(
        "POST", "/nope", body=json.dumps({"individual": {}}).encode()
    )
    response = connection.getresponse()
    assert response.status == 404
    assert response.getheader("Connection") == "close"
    response.read()
    connection.close()
    # A fresh connection still serves normally.
    status, __ = _get(live_server + "/v1/health")
    assert status == 200


def test_non_integer_content_length_is_400(live_server):
    import socket

    host, port = live_server.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        sock.sendall(
            b"POST /v1/prescribe HTTP/1.1\r\n"
            b"Host: test\r\nContent-Length: abc\r\n\r\n"
        )
        response = sock.recv(65536).decode()
    assert response.startswith("HTTP/1.1 400")
    assert "Content-Length" in response


def test_unknown_paths_are_404(live_server):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(live_server + "/nope")
    assert excinfo.value.code == 404
    status, __ = _post(live_server + "/nope", {})
    assert status == 404


def test_oversized_body_is_rejected_with_400(live_server):
    """A Content-Length beyond MAX_BODY_BYTES is refused before reading."""
    import socket

    from repro.serve.http import MAX_BODY_BYTES

    host, port = live_server.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        sock.sendall(
            b"POST /v1/prescribe HTTP/1.1\r\n"
            b"Host: test\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode()
        )
        chunks = []
        while True:  # drain to EOF: the 400 closes the connection
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    response = b"".join(chunks).decode()
    assert response.startswith("HTTP/1.1 400")
    assert "exceeds" in response
    # The body was never read, so the connection must be closed.
    assert "Connection: close" in response


def test_oversized_batch_round_trips_under_the_limit(live_server):
    """A large-but-legal batch is served; every element gets an answer."""
    individuals = [
        {"Country": "US", "Age": 35.0, "Gender": "M"} for __ in range(500)
    ]
    status, payload = _post(
        live_server + "/v1/prescribe", {"individuals": individuals}
    )
    assert status == 200
    assert payload["count"] == 500


def test_empty_body_is_400(live_server):
    request = urllib.request.Request(
        live_server + "/v1/prescribe", data=b"", headers={}
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request)
    assert excinfo.value.code == 400
    assert "empty" in json.loads(excinfo.value.read())["error"]["message"]


def test_unknown_ruleset_version_fails_at_load(toy_ruleset, serve_protected):
    """Serving an artifact from a newer format version must refuse early."""
    from repro.serve.artifact import ServingArtifact
    from repro.serve.engine import PrescriptionEngine
    from repro.utils.errors import ServeError

    artifact = ServingArtifact(toy_ruleset, protected=serve_protected)
    payload = json.loads(artifact.to_json())
    payload["version"] = 99
    with pytest.raises(ServeError, match="newer than supported"):
        PrescriptionEngine.from_artifact(
            ServingArtifact.from_json(json.dumps(payload))
        )


def test_individuals_must_be_objects(live_server):
    status, payload = _post(
        live_server + "/v1/prescribe", {"individuals": ["not-an-object"]}
    )
    assert status == 400
    assert "list of JSON objects" in payload["error"]["message"]
