"""The serving tier's transport: its own request-head parser and one write
per response.

:class:`~repro.serve.http.PrescriptionRequestHandler` parses request heads
itself instead of through ``http.client.parse_headers`` and the email
package, and sends every response (status line, headers, blank line and
body) in one ``wfile.write``.  These tests pin that:

- on well-formed heads the parsed ``headers`` answer exactly as
  ``http.client.parse_headers`` would (a hypothesis differential);
- http.server's limits and version rules still hold, malformed head lines
  answer 400, and every rejection http.server used to answer with an HTML
  page carries the JSON error envelope;
- each response reaches the socket in one write, counted by a proxy
  around ``wfile``;
- serving a request runs neither ``http.client.parse_headers`` nor the
  email package's parser or date formatter.
"""

from __future__ import annotations

import email.utils
import http.client
import io
import json
import socket
import string
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.engine import PrescriptionEngine
from repro.serve.http import PrescriptionRequestHandler, make_server

US_ROW = {"Country": "US", "Age": 35.0, "Gender": "M"}


class _CountingWriter:
    """Records every ``write`` before passing it to the real ``wfile``."""

    def __init__(self, wfile, writes: list) -> None:
        self._wfile = wfile
        self._writes = writes

    def write(self, data):
        self._writes.append(bytes(data))
        return self._wfile.write(data)

    def __getattr__(self, name):
        return getattr(self._wfile, name)


class _CountingHandler(PrescriptionRequestHandler):
    """Gives each connection a list of the writes made on it."""

    def setup(self) -> None:
        super().setup()
        writes: list[bytes] = []
        self.server.connection_writes.append(writes)
        self.wfile = _CountingWriter(self.wfile, writes)


def _start(server):
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread


def _stop(server, thread) -> None:
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.fixture()
def engine(toy_ruleset, serve_protected):
    return PrescriptionEngine(toy_ruleset, protected=serve_protected)


@pytest.fixture()
def live_server(engine):
    """A server whose handler counts the writes on each connection."""
    server = make_server(engine, port=0)
    server.RequestHandlerClass = _CountingHandler
    server.connection_writes = []
    thread = _start(server)
    try:
        yield server
    finally:
        _stop(server, thread)


def _exchange(port: int, data: bytes) -> bytes:
    """Send ``data``, half-close, and read until the server closes."""
    chunks = []
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        try:
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except ConnectionResetError:
            # A rejection closes with part of an oversized request unread,
            # so the close is a reset; the response was read before it.
            pass
    return b"".join(chunks)


def _split(response: bytes) -> tuple[str, dict[str, str], bytes]:
    """Status line, headers (last value wins) and body of one response."""
    head, _, body = response.partition(b"\r\n\r\n")
    status, *lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines)
    return status, headers, body


def _read_one(sock: socket.socket) -> tuple[str, dict[str, str], bytes]:
    """Read exactly one response (by Content-Length) from a live socket."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        assert chunk, "connection closed before the head ended"
        data += chunk
    status, headers, body = _split(data)
    while len(body) < int(headers["Content-Length"]):
        chunk = sock.recv(65536)
        assert chunk, "connection closed before the body ended"
        body += chunk
    return status, headers, body


def _envelope(response: bytes, status: int, code: str) -> dict:
    """Assert ``response`` is one JSON error envelope; return its error."""
    status_line, headers, body = _split(response)
    assert status_line.startswith(f"HTTP/1.1 {status} ")
    assert headers["Content-Type"] == "application/json"
    assert headers["Connection"] == "close"
    assert int(headers["Content-Length"]) == len(body)
    error = json.loads(body)["error"]
    assert error["code"] == code
    assert error["request_id"] == headers["X-Request-Id"]
    return error


def _request(method: str, path: str, *lines: str, body: bytes = b"") -> bytes:
    head = [f"{method} {path} HTTP/1.1", "Host: test", *lines]
    if body:
        head.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


# -- the head parser against http.client.parse_headers ------------------------

_TOKEN = string.ascii_letters + string.digits + "!#$%&'*+-.^_`|~"
_NAMES = st.one_of(
    st.text(_TOKEN, min_size=1, max_size=12),
    # A small pool, so duplicates and case variants of one name are common.
    st.sampled_from(
        ["Host", "host", "HOST", "X-Request-Id", "x-request-id", "Accept", "X-Dup"]
    ),
)
_BLANKS = st.sampled_from(["", " ", "  ", "\t", " \t "])
# Every latin-1 character but CR and LF, so high bytes and controls too.
_VALUES = st.text(
    st.characters(min_codepoint=0, max_codepoint=0xFF, exclude_characters="\r\n"),
    max_size=16,
)
_FIELDS = st.lists(
    st.tuples(_NAMES, _BLANKS, _VALUES, _BLANKS, st.sampled_from(["\r\n", "\n"])),
    max_size=20,
)


def _parse(head_block: bytes) -> PrescriptionRequestHandler:
    """Run the handler's parser on one head, without a socket."""
    handler = object.__new__(PrescriptionRequestHandler)
    handler.raw_requestline = b"GET /v1/health HTTP/1.1\r\n"
    handler.rfile = io.BytesIO(head_block)
    handler.wfile = io.BytesIO()
    assert handler.parse_request()
    return handler


@settings(max_examples=300, deadline=None)
@given(_FIELDS)
def test_head_parser_matches_http_client(fields):
    block = "".join(
        f"{name}:{before}{value}{after}{end}"
        for name, before, value, after, end in fields
    ).encode("latin-1") + b"\r\n"
    ours = _parse(block).headers
    reference = http.client.parse_headers(io.BytesIO(block))
    assert type(ours) is type(reference)
    assert ours.items() == reference.items()
    for name, *_ in fields:
        for variant in (name, name.lower(), name.upper()):
            assert ours.get(variant) == reference.get(variant)
            assert ours.get_all(variant) == reference.get_all(variant)
            assert (variant in ours) == (variant in reference)
    assert ours.get("X-Absent", "d") == reference.get("X-Absent", "d") == "d"


def test_duplicate_names_keep_every_value_and_get_the_first():
    headers = _parse(b"X-Dup: one\r\nx-dup:two \r\nX-DUP:\t\r\n\r\n").headers
    assert headers.get("x-dup") == "one"
    assert headers.get_all("X-Dup") == ["one", "two ", ""]
    assert headers.items() == [("X-Dup", "one"), ("x-dup", "two "), ("X-DUP", "")]


# -- limits, version rules and malformed lines, over a real socket ------------


def test_header_line_over_the_limit_is_431(live_server):
    line = "X-Long: " + "a" * (65537 - len("X-Long: ") - 2)
    assert len(line) + 2 == 65537
    response = _exchange(live_server.port, _request("GET", "/v1/health", line))
    error = _envelope(response, 431, "bad_request")
    assert "65536" in error["message"]


def test_a_line_at_the_limit_is_accepted(live_server):
    line = "X-Long: " + "a" * (65536 - len("X-Long: ") - 2)
    response = _exchange(
        live_server.port, _request("GET", "/v1/health", line, "Connection: close")
    )
    assert response.startswith(b"HTTP/1.1 200 OK\r\n")


@pytest.mark.parametrize(("fields", "status"), [(99, 200), (100, 431), (101, 431)])
def test_head_line_count_limit(live_server, fields, status):
    # http.client counts the blank line that ends the head toward its
    # 100-line limit; "Host" and "Connection" are two of the fields.
    lines = [f"X-F{i}: v" for i in range(fields - 2)]
    response = _exchange(
        live_server.port, _request("GET", "/v1/health", "Connection: close", *lines)
    )
    if status == 200:
        assert response.startswith(b"HTTP/1.1 200 OK\r\n")
    else:
        _envelope(response, 431, "bad_request")


@pytest.mark.parametrize(
    "line",
    ["No-Colon-Here", "X-Request-Id : abc", "X-Bad\tName: x", " continued"],
    ids=["no-colon", "space-before-colon", "tab-before-colon", "obs-fold"],
)
def test_malformed_head_line_is_400(live_server, line):
    response = _exchange(
        live_server.port,
        _request("GET", "/v1/health", "X-Request-Id: rid-1", line),
    )
    error = _envelope(response, 400, "bad_request")
    assert error["message"].startswith("malformed header line")
    # The id sent before the bad line is echoed, never a folded value.
    assert error["request_id"] == "rid-1"


def test_bare_cr_inside_a_value_is_400(live_server):
    response = _exchange(
        live_server.port,
        b"GET /v1/health HTTP/1.1\r\nX-A: one\rX-B: two\r\n\r\n",
    )
    _envelope(response, 400, "bad_request")


@pytest.mark.parametrize(
    ("request_line", "status"),
    [
        (b"GET /v1/health HTTP/2.0", 505),
        (b"GET /v1/health HTTP/3.1", 505),
        (b"GET /v1/health HTTP/1.x", 400),
        (b"GET /v1/health FTP/1.1", 400),
        (b"GET /v1/health extra HTTP/1.1", 400),
    ],
    ids=["http2", "http3", "bad-minor", "not-http", "four-words"],
)
def test_request_line_rejections(live_server, request_line, status):
    response = _exchange(live_server.port, request_line + b"\r\n\r\n")
    _envelope(response, status, "bad_request")


def test_http09_allows_only_get(live_server):
    # HTTP/0.9 answers carry no head: the body alone is the envelope.
    response = _exchange(live_server.port, b"POST /v1/prescribe\r\n\r\n")
    assert json.loads(response)["error"]["code"] == "bad_request"
    response = _exchange(live_server.port, b"GET /v1/health\r\n\r\n")
    assert json.loads(response)["status"] == "ok"


def test_request_line_over_the_limit_is_414(live_server):
    path = "/" + "a" * 65540
    response = _exchange(live_server.port, f"GET {path} HTTP/1.1\r\n\r\n".encode())
    _envelope(response, 414, "bad_request")


def test_unsupported_method_is_501_json(live_server):
    response = _exchange(
        live_server.port,
        _request("PUT", "/v1/prescribe", "X-Request-Id: put-1", body=b"{}"),
    )
    error = _envelope(response, 501, "method_not_allowed")
    assert error["request_id"] == "put-1"
    assert "PUT" in error["message"]


def test_head_method_states_the_length_but_sends_no_body(live_server):
    response = _exchange(live_server.port, _request("HEAD", "/v1/health"))
    status, headers, body = _split(response)
    assert status == "HTTP/1.1 501 Not Implemented"
    assert int(headers["Content-Length"]) > 0
    assert body == b""


def test_leading_double_slash_collapses(live_server):
    response = _exchange(
        live_server.port, _request("GET", "//v1/health", "Connection: close")
    )
    assert response.startswith(b"HTTP/1.1 200 OK\r\n")


def test_expect_100_continue_precedes_the_answer(live_server):
    body = json.dumps({"individual": US_ROW}).encode()
    head = (
        "POST /v1/prescribe HTTP/1.1\r\nHost: test\r\nExpect: 100-continue\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    with socket.create_connection(("127.0.0.1", live_server.port), timeout=10) as sock:
        sock.sendall(head.encode())
        # The body is sent only once the interim response has arrived.
        assert sock.recv(65536) == b"HTTP/1.1 100 Continue\r\n\r\n"
        sock.sendall(body)
        status, headers, payload = _read_one(sock)
    assert status == "HTTP/1.1 200 OK"
    assert json.loads(payload)["prescription"]["rule_index"] == 0
    assert "Connection" not in headers  # HTTP/1.1 stays open


def _closed_by_server(sock: socket.socket) -> bool:
    sock.settimeout(5)
    return sock.recv(1) == b""


@pytest.mark.parametrize(
    ("version", "connection", "closes"),
    [
        ("HTTP/1.0", None, True),
        ("HTTP/1.0", "keep-alive", False),
        ("HTTP/1.1", None, False),
        ("HTTP/1.1", "close", True),
    ],
)
def test_connection_persistence(live_server, version, connection, closes):
    lines = ["Host: test"] + ([f"Connection: {connection}"] if connection else [])
    request = ("\r\n".join([f"GET /v1/health {version}", *lines]) + "\r\n\r\n").encode()
    with socket.create_connection(("127.0.0.1", live_server.port), timeout=10) as sock:
        sock.sendall(request)
        status, headers, _ = _read_one(sock)
        assert status == "HTTP/1.1 200 OK"
        assert (headers.get("Connection") == "close") is closes
        if closes:
            assert _closed_by_server(sock)
        else:
            sock.sendall(request)  # the connection serves a second request
            assert _read_one(sock)[0] == "HTTP/1.1 200 OK"


# -- one write per response ----------------------------------------------------


def _one_write(server, request: bytes) -> bytes:
    """Exchange ``request`` on a fresh connection; assert one write made it."""
    before = len(server.connection_writes)
    response = _exchange(server.port, request)
    writes = server.connection_writes[before:]
    assert [len(w) for w in writes] == [1], writes
    assert writes[0][0] == response
    return response


def test_every_response_is_one_write(live_server):
    prescribe = json.dumps({"individual": US_ROW}).encode()
    batch = json.dumps({"individuals": [US_ROW] * 3}).encode()
    close = "Connection: close"
    cases = [
        (_request("POST", "/v1/prescribe", close, body=prescribe), 200),
        (_request("POST", "/v1/prescribe", close, body=batch), 200),
        (_request("GET", "/v1/health", close), 200),
        (_request("GET", "/v1/rules", close), 200),
        (_request("GET", "/v1/metrics", close), 200),
        (_request("GET", "/v1/nope", close), 404),
        (_request("GET", "/v1/prescribe", close), 405),
        (_request("POST", "/v1/prescribe", close, body=b"{not json"), 400),
        (
            _request(
                "POST", "/v1/prescribe", close, "X-Request-Deadline-Ms: 0.001",
                body=prescribe,
            ),
            504,
        ),
        # Transport rejections.
        (_request("PUT", "/v1/prescribe", body=b"{}"), 501),
        (_request("GET", "/v1/health", "Bad Line"), 400),
        (b"GET /v1/health HTTP/2.0\r\n\r\n", 505),
        (b"GET /v1/health HTTP/1.1\r\nX: " + b"a" * 70_000 + b"\r\n\r\n", 431),
        (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", 414),
    ]
    for request, status in cases:
        response = _one_write(live_server, request)
        assert response.startswith(f"HTTP/1.1 {status} ".encode()), response[:80]
    metrics = _one_write(live_server, _request("GET", "/v1/metrics", close))
    assert b"Content-Type: text/plain; version=0.0.4" in metrics


def test_internal_error_is_one_write(live_server):
    def crash(state):
        raise RuntimeError("kaboom")

    live_server.service.rules = crash
    response = _one_write(
        live_server, _request("GET", "/v1/rules", "Connection: close")
    )
    _envelope(response, 500, "internal")


def test_keep_alive_responses_are_one_write_each(live_server):
    body = json.dumps({"individual": US_ROW}).encode()
    with socket.create_connection(("127.0.0.1", live_server.port), timeout=10) as sock:
        for _ in range(3):
            sock.sendall(_request("POST", "/v1/prescribe", body=body))
            assert _read_one(sock)[0] == "HTTP/1.1 200 OK"
    assert [len(w) for w in live_server.connection_writes] == [3]


def test_date_header_is_an_http_date(live_server):
    response = _exchange(
        live_server.port, _request("GET", "/v1/health", "Connection: close")
    )
    date = _split(response)[1]["Date"]
    parsed = email.utils.parsedate_to_datetime(date)
    assert email.utils.format_datetime(parsed, usegmt=True) == date
    assert abs(parsed.timestamp() - time.time()) < 60


# -- the parse path leaves the email package alone ----------------------------


def test_serving_calls_neither_parse_headers_nor_the_email_parser(engine):
    """Profiles the server's threads while they answer real requests.

    ``headers`` is still an ``http.client.HTTPMessage``, so the accessors
    of ``email.message.Message`` run when a handler reads it; what must not
    run is the parse path http.server uses (``http.client.parse_headers``,
    the email package's parser and feed parser) or its ``Date`` formatter
    (``email.utils.formatdate``).
    """
    seen: set[tuple[str, str]] = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename.replace("\\", "/"), code.co_name))

    threading.setprofile(profile)
    try:
        server = make_server(engine, port=0)  # its worker threads start here
    finally:
        threading.setprofile(None)
    thread = _start(server)
    try:
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            conn.request(
                "POST", "/v1/prescribe", json.dumps({"individual": US_ROW}),
                {"Content-Type": "application/json", "X-Request-Id": "p-1"},
            )
            response = conn.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["request_id"] == "p-1"
            conn.request("GET", "/v1/health")
            response = conn.getresponse()
            assert response.status == 200
            response.read()
        finally:
            conn.close()
    finally:
        _stop(server, thread)

    # The profile saw the handler's own parser, so it watched the workers.
    assert any(
        path.endswith("repro/serve/http.py") and name == "parse_request"
        for path, name in seen
    )
    forbidden = sorted(
        (path, name)
        for path, name in seen
        if path.endswith(("/email/parser.py", "/email/feedparser.py"))
        or (path.endswith("/http/client.py") and name in {"parse_headers", "_read_headers"})
        or (path.endswith("/email/utils.py") and name in {"formatdate", "format_datetime"})
    )
    assert forbidden == []
