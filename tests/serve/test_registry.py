"""ArtifactRegistry: versioning, activation, rollback, torn-file rejection,
and atomic hot-reload under concurrent load (no hybrid responses)."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.mining.patterns import Pattern
from repro.rules.rule import PrescriptionRule
from repro.rules.ruleset import RuleSet
from repro.serve.artifact import ServingArtifact
from repro.serve.config import ServeConfig
from repro.serve.http import make_server
from repro.serve.registry import ArtifactRegistry
from repro.serve.schemas import ApiError

US_ROW = {"Country": "US", "Age": 35.0, "Gender": "M"}


def _ruleset_with_utility(utility: float) -> RuleSet:
    """One catch-all rule whose utility identifies the ruleset version."""
    return RuleSet(
        [
            PrescriptionRule(
                Pattern.empty(),
                Pattern.of(Training="Yes"),
                utility, utility, utility, 100, 30,
            )
        ]
    )


@pytest.fixture()
def registry(tmp_path) -> ArtifactRegistry:
    return ArtifactRegistry(tmp_path / "artifacts")


# -- versioning ---------------------------------------------------------------


def test_publish_assigns_monotonic_versions(registry, toy_ruleset):
    artifact = ServingArtifact(toy_ruleset)
    assert registry.list_versions() == []
    assert registry.latest_version() is None
    assert registry.publish(artifact) == 1
    assert registry.publish(artifact) == 2
    assert registry.publish(artifact) == 3
    records = registry.list_versions()
    assert [r.version for r in records] == [1, 2, 3]
    assert all(r.size_bytes > 0 for r in records)
    assert registry.latest_version() == 3


def test_listing_ignores_stray_temp_files(registry, toy_ruleset):
    registry.publish(ServingArtifact(toy_ruleset))
    (registry.root / "v000001.json.abc123.tmp").write_text("{", encoding="utf-8")
    (registry.root / "notes.txt").write_text("hi", encoding="utf-8")
    assert [r.version for r in registry.list_versions()] == [1]


def test_get_round_trips_published_artifact(registry, toy_ruleset):
    registry.publish(ServingArtifact(toy_ruleset))
    loaded = registry.get(1)
    assert len(loaded.ruleset) == len(toy_ruleset)
    assert loaded.ruleset[0].utility == toy_ruleset[0].utility


def test_get_absent_version_is_404(registry):
    with pytest.raises(ApiError) as excinfo:
        registry.get(7)
    assert excinfo.value.status == 404
    assert excinfo.value.code == "not_found"


@pytest.mark.parametrize(
    "torn",
    [
        b"",                           # zero-byte file (crashed writer)
        b'{"format": "faircap-rule',   # truncated mid-JSON
        b'{"format": "other", "version": 1}',  # parseable but wrong format
        b"\x00\x01\x02 garbage",       # not JSON at all
    ],
)
def test_torn_artifact_is_409_never_500(registry, torn):
    registry.path_for(1).write_bytes(torn)
    with pytest.raises(ApiError) as excinfo:
        registry.get(1)
    assert excinfo.value.status == 409
    assert excinfo.value.code == "artifact_invalid"


# -- activation and rollback --------------------------------------------------


def test_activate_rollback_round_trip(registry, toy_ruleset):
    registry.publish(ServingArtifact(_ruleset_with_utility(1.0)))
    registry.publish(ServingArtifact(_ruleset_with_utility(2.0)))
    assert registry.active_version() is None

    registry.activate(1)
    assert registry.active_version() == 1
    assert registry.previous_version() is None

    registry.activate(2)
    assert registry.active_version() == 2
    assert registry.previous_version() == 1

    version, artifact = registry.rollback()
    assert version == 1
    assert artifact.ruleset[0].utility == 1.0
    assert registry.active_version() == 1
    assert registry.previous_version() == 2  # rollback is itself reversible


def test_rollback_without_history_is_409(registry, toy_ruleset):
    registry.publish(ServingArtifact(toy_ruleset))
    with pytest.raises(ApiError) as excinfo:
        registry.rollback()
    assert excinfo.value.status == 409


def test_activating_torn_version_leaves_pointer_untouched(registry, toy_ruleset):
    registry.publish(ServingArtifact(toy_ruleset))
    registry.activate(1)
    registry.path_for(2).write_bytes(b'{"torn":')
    with pytest.raises(ApiError) as excinfo:
        registry.activate(2)
    assert excinfo.value.status == 409
    assert registry.active_version() == 1  # the swap never happened


def test_torn_active_pointer_reads_as_nothing_active(registry, toy_ruleset):
    registry.publish(ServingArtifact(toy_ruleset))
    registry.activate(1)
    (registry.root / "ACTIVE").write_bytes(b'{"version"')
    assert registry.active_version() is None
    registry.activate(1)  # recoverable by re-activating
    assert registry.active_version() == 1


# -- the full tier: HTTP hot reload -------------------------------------------


def _post(url: str, payload: object):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


@pytest.fixture()
def registry_server(tmp_path):
    """A live server over a two-version registry (v1 active)."""
    registry = ArtifactRegistry(tmp_path / "artifacts")
    registry.publish(ServingArtifact(_ruleset_with_utility(5.0)))
    registry.publish(ServingArtifact(_ruleset_with_utility(9.0)))
    registry.activate(1)
    server = make_server(
        config=ServeConfig(port=0, artifact_dir=str(registry.root))
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, f"http://127.0.0.1:{server.port}", registry
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def test_artifacts_endpoint_lists_registry(registry_server):
    _, base, __ = registry_server
    with urllib.request.urlopen(base + "/v1/artifacts", timeout=10) as response:
        payload = json.loads(response.read())
    assert payload["registry"] is True
    assert payload["active_version"] == 1
    assert [a["version"] for a in payload["artifacts"]] == [1, 2]
    assert [a["active"] for a in payload["artifacts"]] == [True, False]
    # The listing does not parse artifacts, so it reports nothing it
    # would have to read from one.
    for entry in payload["artifacts"]:
        assert set(entry) == {"version", "active", "size_bytes"}
        assert entry["size_bytes"] > 0


def test_http_activate_and_rollback_round_trip(registry_server):
    _, base, __ = registry_server
    status, payload = _post(base + "/v1/artifacts/activate", {"version": 2})
    assert status == 200
    assert payload["active_version"] == 2
    assert payload["previous_version"] == 1

    status, payload = _post(base + "/v1/prescribe", {"individual": US_ROW})
    assert status == 200
    assert payload["ruleset_version"] == 2
    assert payload["prescription"]["expected_utility"] == 9.0

    status, payload = _post(base + "/v1/artifacts/activate", {"rollback": True})
    assert status == 200
    assert payload["active_version"] == 1

    status, payload = _post(base + "/v1/prescribe", {"individual": US_ROW})
    assert status == 200
    assert payload["ruleset_version"] == 1
    assert payload["prescription"]["expected_utility"] == 5.0


def test_http_activating_torn_artifact_is_409_and_keeps_serving(registry_server):
    _, base, registry = registry_server
    registry.path_for(3).write_bytes(b'{"torn":')
    status, payload = _post(base + "/v1/artifacts/activate", {"version": 3})
    assert status == 409
    assert payload["error"]["code"] == "artifact_invalid"
    # The old generation keeps serving.
    status, payload = _post(base + "/v1/prescribe", {"individual": US_ROW})
    assert status == 200
    assert payload["ruleset_version"] == 1


def test_http_activating_absent_version_is_404(registry_server):
    _, base, __ = registry_server
    status, payload = _post(base + "/v1/artifacts/activate", {"version": 42})
    assert status == 404
    assert payload["error"]["code"] == "not_found"


def test_hot_reload_under_concurrent_load_no_hybrids(registry_server):
    """Every response during a mid-load swap is wholly v1 or wholly v2, and
    every request sent after the swap returned is answered by v2.

    The version-utility pairing is the tell: v1 answers 5.0, v2 answers
    9.0.  A torn generation (new version number with the old engine, or
    vice versa) would break the pairing; a dropped request would surface
    as a non-200 or an exception.  The load threads keep sending until the
    activation response is back, then send a fixed number more, so the
    post-swap check never depends on how long the swap took.
    """
    _, base, __ = registry_server
    utility_by_version = {1: 5.0, 2: 9.0}
    after_swap = 10
    results: list[tuple] = []
    errors: list[BaseException] = []
    lock = threading.Lock()
    start = threading.Barrier(4)
    activated = threading.Event()

    def hammer():
        try:
            start.wait(timeout=10)
            remaining = after_swap
            while remaining:
                sent_after_swap = activated.is_set()
                status, payload = _post(
                    base + "/v1/prescribe", {"individual": US_ROW}
                )
                with lock:
                    results.append(
                        (
                            sent_after_swap,
                            status,
                            payload.get("ruleset_version"),
                            payload["prescription"]["expected_utility"],
                        )
                    )
                if sent_after_swap:
                    remaining -= 1
        except BaseException as exc:  # noqa: BLE001 - collected for assert
            with lock:
                errors.append(exc)

    threads = [threading.Thread(target=hammer) for __ in range(3)]
    for thread in threads:
        thread.start()
    start.wait(timeout=10)
    # Swap mid-load.
    try:
        status, __ = _post(base + "/v1/artifacts/activate", {"version": 2})
    finally:
        activated.set()
    assert status == 200
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert not errors, errors
    for sent_after_swap, status, version, utility in results:
        assert status == 200
        assert version in utility_by_version
        assert utility == utility_by_version[version], (
            f"hybrid response: version {version} answered utility {utility}"
        )
        if sent_after_swap:
            assert version == 2, "a request sent after the swap saw v1"
    assert sum(sent for sent, *__ in results) == 3 * after_swap
