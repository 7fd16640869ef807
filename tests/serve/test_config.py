"""ServeConfig: validation (mirroring FairCapConfig), env defaults, overrides."""

from __future__ import annotations

import pytest

from repro.serve.config import ServeConfig
from repro.utils.errors import ServeError


def test_defaults_are_valid():
    config = ServeConfig()
    assert config.host == "127.0.0.1"
    assert config.port == 8080
    assert config.workers == 8
    assert config.max_concurrency == 64
    assert config.artifact_dir is None
    config.validate()  # idempotent


@pytest.mark.parametrize(
    "overrides",
    [
        {"host": ""},
        {"port": -1},
        {"port": 70_000},
        {"workers": 0},
        {"max_concurrency": 0},
        {"request_deadline_seconds": 0.0},
        {"request_deadline_seconds": -1.0},
        {"drain_timeout_seconds": 0.0},
        {"cache_size": -1},
    ],
)
def test_invalid_settings_raise_on_construction(overrides):
    with pytest.raises(ServeError):
        ServeConfig(**overrides)


def test_none_disables_optional_bounds():
    config = ServeConfig(max_concurrency=None, request_deadline_seconds=None)
    assert config.max_concurrency is None
    assert config.request_deadline_seconds is None


def test_from_environment_reads_repro_serve_vars(monkeypatch):
    monkeypatch.setenv("REPRO_SERVE_HOST", "0.0.0.0")
    monkeypatch.setenv("REPRO_SERVE_PORT", "9999")
    monkeypatch.setenv("REPRO_SERVE_WORKERS", "4")
    monkeypatch.setenv("REPRO_SERVE_MAX_CONCURRENCY", "0")  # 0 = unbounded
    monkeypatch.setenv("REPRO_SERVE_DEADLINE_MS", "250")
    monkeypatch.setenv("REPRO_SERVE_CACHE_SIZE", "33")
    monkeypatch.setenv("REPRO_SERVE_ARTIFACT_DIR", "/tmp/artifacts")
    config = ServeConfig.from_environment()
    assert config.host == "0.0.0.0"
    assert config.port == 9999
    assert config.workers == 4
    assert config.max_concurrency is None
    assert config.request_deadline_seconds == 0.25
    assert config.cache_size == 33
    assert config.artifact_dir == "/tmp/artifacts"


def test_from_environment_defaults_without_vars(monkeypatch):
    for name in (
        "REPRO_SERVE_HOST",
        "REPRO_SERVE_PORT",
        "REPRO_SERVE_WORKERS",
        "REPRO_SERVE_MAX_CONCURRENCY",
        "REPRO_SERVE_DEADLINE_MS",
        "REPRO_SERVE_CACHE_SIZE",
        "REPRO_SERVE_ARTIFACT_DIR",
    ):
        monkeypatch.delenv(name, raising=False)
    assert ServeConfig.from_environment() == ServeConfig()


def test_from_environment_rejects_garbage(monkeypatch):
    monkeypatch.setenv("REPRO_SERVE_PORT", "not-a-port")
    with pytest.raises(ServeError, match="REPRO_SERVE_PORT"):
        ServeConfig.from_environment()
    monkeypatch.delenv("REPRO_SERVE_PORT")
    monkeypatch.setenv("REPRO_SERVE_DEADLINE_MS", "soon")
    with pytest.raises(ServeError, match="REPRO_SERVE_DEADLINE_MS"):
        ServeConfig.from_environment()


def test_with_overrides_validates_and_rejects_unknowns():
    config = ServeConfig()
    updated = config.with_overrides(port=0, workers=2, quiet=False)
    assert updated.port == 0 and updated.workers == 2 and updated.quiet is False
    assert config.port == 8080  # original untouched (frozen)
    with pytest.raises(ServeError, match="unknown ServeConfig fields"):
        config.with_overrides(portt=1)
    with pytest.raises(ServeError):
        config.with_overrides(workers=-3)  # replace() re-validates


def test_zero_deadline_means_none_in_both_spellings(monkeypatch):
    """``REPRO_SERVE_DEADLINE_MS=0`` and ``--request-deadline-ms 0`` agree:
    no deadline, as ``--max-concurrency 0`` means no bound."""
    from repro.__main__ import _serve_config, build_parser

    for name in (
        "REPRO_SERVE_HOST",
        "REPRO_SERVE_PORT",
        "REPRO_SERVE_WORKERS",
        "REPRO_SERVE_MAX_CONCURRENCY",
        "REPRO_SERVE_CACHE_SIZE",
        "REPRO_SERVE_ARTIFACT_DIR",
    ):
        monkeypatch.delenv(name, raising=False)

    def flag(value: str) -> ServeConfig:
        args = build_parser().parse_args(["serve", "--request-deadline-ms", value])
        return _serve_config(args)

    monkeypatch.setenv("REPRO_SERVE_DEADLINE_MS", "0")
    assert ServeConfig.from_environment().request_deadline_seconds is None
    monkeypatch.setenv("REPRO_SERVE_DEADLINE_MS", "500")
    assert flag("0").request_deadline_seconds is None  # the flag wins
    monkeypatch.delenv("REPRO_SERVE_DEADLINE_MS")
    assert flag("0").request_deadline_seconds is None
    assert flag("250").request_deadline_seconds == 0.25
    with pytest.raises(ServeError, match="request_deadline_seconds"):
        flag("-5")
    with pytest.raises(ServeError, match="request_deadline_seconds"):
        ServeConfig(request_deadline_seconds=0.0)
