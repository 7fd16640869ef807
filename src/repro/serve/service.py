"""The serving tier's service layer: engine lifecycle + atomic hot-reload.

The HTTP router is deliberately thin; everything between "parsed request"
and "response dataclass" lives here, against two small abstractions:

:class:`ServingState`
    One *immutable* generation of serving state: the engine, its
    JSON-ready rules payload, and the artifact version it came from.
    A request handler snapshots the state exactly once and uses that
    snapshot for its whole lifetime, so a concurrent reload can never
    hand one request a hybrid of two ruleset versions.

:class:`PrescriptionService`
    Owns the *current* state behind an RCU-style pointer.  Hot reload
    (:meth:`activate`) builds the complete next generation off to the
    side — load + validate artifact, compile the rule index, render the
    rules payload — and then publishes it with a single attribute
    assignment (atomic in CPython).  In-flight requests finish on the
    generation they snapshotted; new requests see the new one.  No lock
    is ever held while serving, and a failed reload (missing version,
    torn artifact) leaves the active generation untouched.

The service runs in one of two modes:

- **registry mode** (``artifact_dir`` configured): versions come from an
  :class:`~repro.serve.registry.ArtifactRegistry`; ``/v1/artifacts`` can
  list, activate and roll back.
- **single-artifact mode** (an engine handed in directly): the engine is
  the only generation; ``/v1/artifacts`` is read-only and activation
  requests are rejected with a clean 400.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

from repro.serve.artifact import rule_to_dict
from repro.serve.engine import PrescriptionEngine
from repro.serve.registry import ArtifactRegistry
from repro.serve.schemas import (
    ActivateRequest,
    ActivateResponse,
    ApiError,
    ArtifactInfo,
    ArtifactsResponse,
    BatchPrescribeResponse,
    HealthResponse,
    PrescribeRequest,
    PrescribeResponse,
    RulesResponse,
    prescription_payload,
)
from repro.utils.errors import ServeError


@dataclass(frozen=True)
class ServingState:
    """One immutable generation of serving state (see module docstring)."""

    engine: PrescriptionEngine
    rules_payload: tuple[dict, ...]
    version: int | None

    @classmethod
    def from_engine(
        cls, engine: PrescriptionEngine, version: int | None = None
    ) -> "ServingState":
        return cls(
            engine=engine,
            rules_payload=tuple(rule_to_dict(r) for r in engine.ruleset),
            version=version,
        )


class PrescriptionService:
    """Route-agnostic serving logic over a hot-swappable :class:`ServingState`."""

    def __init__(
        self,
        state: ServingState,
        registry: ArtifactRegistry | None = None,
        cache_size: int = 1024,
    ) -> None:
        self._state = state
        self.registry = registry
        self._cache_size = cache_size
        # Serializes *writers* (activate/rollback). Readers never take it:
        # they read self._state once, which CPython makes atomic.
        self._reload_lock = threading.Lock()
        self.reload_count = 0

    # -- construction -------------------------------------------------------------

    @classmethod
    def from_engine(
        cls, engine: PrescriptionEngine, version: int | None = None
    ) -> "PrescriptionService":
        """Single-artifact mode: serve exactly this engine, no registry."""
        return cls(ServingState.from_engine(engine, version))

    @classmethod
    def from_registry(
        cls, registry: ArtifactRegistry, cache_size: int = 1024
    ) -> "PrescriptionService":
        """Registry mode: serve the ``ACTIVE`` version (or latest if unset)."""
        version = registry.active_version()
        if version is not None:
            artifact = registry.get(version)
        else:
            latest = registry.latest_version()
            if latest is None:
                raise ServeError(
                    f"artifact registry {registry.root} has no published versions"
                )
            version, artifact = latest, registry.activate(latest)
        engine = PrescriptionEngine.from_artifact(artifact, cache_size=cache_size)
        return cls(
            ServingState.from_engine(engine, version),
            registry=registry,
            cache_size=cache_size,
        )

    # -- state ---------------------------------------------------------------------

    @property
    def state(self) -> ServingState:
        """Snapshot the current generation (handlers call this exactly once)."""
        return self._state

    # -- request handling ----------------------------------------------------------

    def prescribe(
        self,
        request: PrescribeRequest,
        state: ServingState,
        deadline_check: Callable[[], None] | None = None,
    ) -> PrescribeResponse | BatchPrescribeResponse:
        """Answer a parsed prescribe request against one state snapshot.

        Client-side batches run the scalar loop with ``deadline_check``
        between individuals so a huge batch cannot blow through the
        request budget unbounded.
        """
        engine = state.engine
        if request.individual is not None:
            return PrescribeResponse(
                prescription=prescription_payload(
                    engine.prescribe(request.individual)
                ),
                ruleset_version=state.version,
            )
        prescriptions = []
        for individual in request.individuals or ():
            if deadline_check is not None:
                deadline_check()
            prescriptions.append(engine.prescribe(individual))
        return BatchPrescribeResponse(
            prescriptions=tuple(prescription_payload(p) for p in prescriptions),
            ruleset_version=state.version,
        )

    def rules(self, state: ServingState) -> RulesResponse:
        return RulesResponse(
            rules=state.rules_payload, ruleset_version=state.version
        )

    def health(self, state: ServingState, draining: bool) -> HealthResponse:
        return HealthResponse(
            status="ok",
            n_rules=len(state.engine.ruleset),
            draining=draining,
            cache=state.engine.cache_info(),
            ruleset_version=state.version,
        )

    def list_artifacts(self, state: ServingState) -> ArtifactsResponse:
        if self.registry is None:
            return ArtifactsResponse(
                artifacts=(), active_version=state.version, registry=False
            )
        active = self.registry.active_version()
        return ArtifactsResponse(
            artifacts=tuple(
                ArtifactInfo(
                    version=record.version,
                    active=record.version == active,
                    size_bytes=record.size_bytes,
                )
                for record in self.registry.list_versions()
            ),
            active_version=active,
            registry=True,
        )

    # -- hot reload ------------------------------------------------------------------

    def activate(self, request: ActivateRequest) -> ActivateResponse:
        """Swap the served generation to another artifact version.

        The new generation is built completely (artifact loaded and
        validated, index compiled, rules payload rendered) *before* the
        pointer moves; any failure — absent version, torn file — raises
        before anything changes, so the active generation keeps serving.
        """
        if self.registry is None:
            raise ApiError.bad_request(
                "no artifact registry configured; start the server with "
                "an artifact directory to enable activation"
            )
        with self._reload_lock:
            previous = self.registry.active_version()
            if request.rollback:
                version, artifact = self.registry.rollback()
            else:
                assert request.version is not None  # enforced by parse()
                version = request.version
                artifact = self.registry.activate(version)
            engine = PrescriptionEngine.from_artifact(
                artifact, cache_size=self._cache_size
            )
            # The swap: one attribute assignment, atomic in CPython.
            self._state = ServingState.from_engine(engine, version)
            self.reload_count += 1
            return ActivateResponse(
                active_version=version,
                previous_version=previous,
                n_rules=len(engine.ruleset),
            )
