"""Serving-tier configuration: one frozen dataclass instead of kwarg sprawl.

:class:`ServeConfig` gathers every tunable of the production serving tier —
bind address, worker-pool width, backpressure, deadlines, profile cache,
artifact registry location — the way :class:`~repro.core.config.FairCapConfig`
gathers the mining tunables: a frozen dataclass validated on construction,
with a :meth:`ServeConfig.validate` that re-checks an instance built through
:func:`dataclasses.replace`.

Environment variables (``REPRO_SERVE_*``) provide deployment-time defaults
the CLI flags override, mirroring how :class:`ExperimentSettings` reads
``REPRO_WORKERS``/``REPRO_EXECUTOR`` for the mining side::

    REPRO_SERVE_HOST / REPRO_SERVE_PORT        bind address
    REPRO_SERVE_WORKERS                        request worker threads
    REPRO_SERVE_MAX_CONCURRENCY                in-flight bound (0 = unbounded)
    REPRO_SERVE_DEADLINE_MS                    default request deadline
    REPRO_SERVE_CACHE_SIZE                     profile LRU entries
    REPRO_SERVE_ARTIFACT_DIR                   versioned artifact registry
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from repro.utils.errors import ServeError


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ServeError(f"{name} must be an integer, got {raw!r}") from None


def _env_float(name: str, default: float | None) -> float | None:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        raise ServeError(f"{name} must be a number, got {raw!r}") from None


@dataclass(frozen=True)
class ServeConfig:
    """All tunables of the prescription serving tier.

    Attributes
    ----------
    host, port:
        Bind address (``port=0`` picks an ephemeral port — the tests and
        the load benchmark do this).
    workers:
        Size of the request worker pool behind the accept loop.  Each
        live connection occupies one worker for its lifetime, so this
        bounds *connection* concurrency; ``max_concurrency`` bounds
        admitted *request* concurrency below it.
    max_concurrency:
        At most this many requests execute at once; excess requests are
        rejected immediately with 503 + ``Retry-After`` (``None`` =
        unbounded).  Ops endpoints (health, metrics) bypass the gate.
    request_deadline_seconds:
        Default per-request wall-clock budget; a request past it answers
        504.  A client's ``X-Request-Deadline-Ms`` header tightens (never
        loosens) this.  ``None`` = no server-side default.
    drain_timeout_seconds:
        How long a graceful shutdown waits for in-flight requests.
    cache_size:
        Profile-LRU entries for engines the tier builds from artifacts
        (``0`` disables the cache).
    artifact_dir:
        Root of the versioned artifact registry
        (:class:`~repro.serve.registry.ArtifactRegistry`).  ``None`` runs
        in single-artifact mode: the engine handed to the server is the
        only version and ``/v1/artifacts`` reports it read-only.
    quiet:
        Suppress the structured JSON access log.
    """

    host: str = "127.0.0.1"
    port: int = 8080
    workers: int = 8
    max_concurrency: int | None = 64
    request_deadline_seconds: float | None = None
    drain_timeout_seconds: float = 10.0
    cache_size: int = 1024
    artifact_dir: str | None = None
    quiet: bool = True

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`~repro.utils.errors.ServeError` on invalid settings."""
        if not self.host:
            raise ServeError("host must be non-empty")
        if not 0 <= self.port <= 65535:
            raise ServeError("port must be in [0, 65535]")
        if self.workers < 1:
            raise ServeError("workers must be >= 1")
        if self.max_concurrency is not None and self.max_concurrency < 1:
            raise ServeError("max_concurrency must be >= 1 or None")
        if (
            self.request_deadline_seconds is not None
            and self.request_deadline_seconds <= 0
        ):
            raise ServeError("request_deadline_seconds must be > 0 or None")
        if self.drain_timeout_seconds <= 0:
            raise ServeError("drain_timeout_seconds must be > 0")
        if self.cache_size < 0:
            raise ServeError("cache_size must be >= 0")

    @classmethod
    def from_environment(cls) -> "ServeConfig":
        """Defaults overridden by ``REPRO_SERVE_*`` environment variables."""
        base = cls()
        max_concurrency = _env_int(
            "REPRO_SERVE_MAX_CONCURRENCY", base.max_concurrency or 0
        )
        deadline_ms = _env_float("REPRO_SERVE_DEADLINE_MS", None)
        return cls(
            host=os.environ.get("REPRO_SERVE_HOST", base.host),
            port=_env_int("REPRO_SERVE_PORT", base.port),
            workers=_env_int("REPRO_SERVE_WORKERS", base.workers),
            max_concurrency=max_concurrency or None,
            request_deadline_seconds=(
                deadline_ms / 1e3
                if deadline_ms
                else base.request_deadline_seconds
            ),
            cache_size=_env_int("REPRO_SERVE_CACHE_SIZE", base.cache_size),
            artifact_dir=os.environ.get("REPRO_SERVE_ARTIFACT_DIR", None),
        )

    def with_overrides(self, **overrides: object) -> "ServeConfig":
        """A copy with ``overrides`` applied (unknown names raise)."""
        known = self.__dataclass_fields__
        unknown = sorted(set(overrides) - set(known))
        if unknown:
            raise ServeError(f"unknown ServeConfig fields: {unknown}")
        return replace(self, **overrides)  # type: ignore[arg-type]
