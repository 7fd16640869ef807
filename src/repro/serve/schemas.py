"""Typed request/response schemas and the uniform error envelope of /v1.

The router parses request bodies into frozen dataclasses
(:class:`PrescribeRequest`, :class:`ActivateRequest`) and the service layer
answers with response dataclasses (:class:`PrescribeResponse`,
:class:`HealthResponse`, ...), each serializing through ``to_payload()``.
Validation failures raise :class:`ApiError`, which carries the HTTP status
and a stable machine-readable ``code``; the transport renders every error —
client mistake, capacity rejection, deadline, crash — as one envelope shape:

.. code-block:: json

    {"error": {"code": "bad_request", "message": "...", "request_id": "..."}}

Codes are part of the API contract (``docs/serving.md``):

========================  ======  ==============================================
code                      status  meaning
========================  ======  ==============================================
``bad_request``           400     malformed body, missing/untyped attributes
``not_found``             404     unknown path or artifact version
``method_not_allowed``    405     known path, wrong HTTP method
``artifact_invalid``      409     torn/partial/unparseable artifact rejected
``over_capacity``         503     concurrency gate closed (``Retry-After``)
``draining``              503     graceful shutdown in progress (``Retry-After``)
``deadline_exceeded``     504     request ran past its deadline
``internal``              500     unexpected server failure
========================  ======  ==============================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.utils.errors import ServeError


class ApiError(ServeError):
    """An HTTP-mappable service error: status + stable code + message."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = int(status)
        self.code = str(code)

    @classmethod
    def bad_request(cls, message: str) -> "ApiError":
        return cls(400, "bad_request", message)

    @classmethod
    def not_found(cls, message: str) -> "ApiError":
        return cls(404, "not_found", message)

    @classmethod
    def conflict(cls, message: str) -> "ApiError":
        return cls(409, "artifact_invalid", message)


def error_envelope(code: str, message: str, request_id: str | None) -> dict:
    """The uniform JSON error body every non-2xx response carries."""
    return {
        "error": {
            "code": code,
            "message": message,
            "request_id": request_id,
        }
    }


# -- requests --------------------------------------------------------------------


@dataclass(frozen=True)
class PrescribeRequest:
    """Parsed body of ``POST /v1/prescribe``.

    Exactly one of ``individual`` (single profile) or ``individuals``
    (client-side batch) is set.
    """

    individual: Mapping[str, object] | None = None
    individuals: tuple[Mapping[str, object], ...] | None = None

    @classmethod
    def parse(cls, payload: object) -> "PrescribeRequest":
        if not isinstance(payload, Mapping):
            raise ApiError.bad_request("request body must be a JSON object")
        if "individual" in payload:
            individual = payload["individual"]
            if not isinstance(individual, Mapping):
                raise ApiError.bad_request("'individual' must be a JSON object")
            return cls(individual=individual)
        if "individuals" in payload:
            individuals = payload["individuals"]
            if not isinstance(individuals, list) or not all(
                isinstance(i, Mapping) for i in individuals
            ):
                raise ApiError.bad_request(
                    "'individuals' must be a list of JSON objects"
                )
            return cls(individuals=tuple(individuals))
        raise ApiError.bad_request(
            "request must contain 'individual' or 'individuals'"
        )


@dataclass(frozen=True)
class ActivateRequest:
    """Parsed body of ``POST /v1/artifacts/activate``.

    ``version`` selects the artifact to activate; ``rollback=True`` (with
    no version) re-activates the previously active version instead.
    """

    version: int | None = None
    rollback: bool = False

    @classmethod
    def parse(cls, payload: object) -> "ActivateRequest":
        if not isinstance(payload, Mapping):
            raise ApiError.bad_request("request body must be a JSON object")
        rollback = bool(payload.get("rollback", False))
        version = payload.get("version")
        if rollback:
            if version is not None:
                raise ApiError.bad_request(
                    "'rollback' and 'version' are mutually exclusive"
                )
            return cls(rollback=True)
        if not isinstance(version, int) or isinstance(version, bool):
            raise ApiError.bad_request("'version' must be an integer")
        return cls(version=version)


# -- responses -------------------------------------------------------------------


@dataclass(frozen=True)
class PrescriptionPayload:
    """One resolved prescription (the engine's answer, JSON-ready)."""

    rule_index: int | None
    matched_rules: tuple[int, ...]
    expected_utility: float
    protected: bool | None
    intervention: tuple[dict, ...]

    def to_payload(self) -> dict:
        return {
            "rule_index": self.rule_index,
            "matched_rules": list(self.matched_rules),
            "expected_utility": self.expected_utility,
            "protected": self.protected,
            "intervention": list(self.intervention),
        }


@dataclass(frozen=True)
class PrescribeResponse:
    """``POST /v1/prescribe`` with a single ``individual``."""

    prescription: PrescriptionPayload
    ruleset_version: int | None

    def to_payload(self) -> dict:
        return {
            "prescription": self.prescription.to_payload(),
            "ruleset_version": self.ruleset_version,
        }


@dataclass(frozen=True)
class BatchPrescribeResponse:
    """``POST /v1/prescribe`` with an ``individuals`` batch."""

    prescriptions: tuple[PrescriptionPayload, ...]
    ruleset_version: int | None

    def to_payload(self) -> dict:
        return {
            "count": len(self.prescriptions),
            "prescriptions": [p.to_payload() for p in self.prescriptions],
            "ruleset_version": self.ruleset_version,
        }


@dataclass(frozen=True)
class RulesResponse:
    """``GET /v1/rules``: the served ruleset in artifact rule format."""

    rules: tuple[dict, ...]
    ruleset_version: int | None

    def to_payload(self) -> dict:
        return {
            "n_rules": len(self.rules),
            "rules": list(self.rules),
            "ruleset_version": self.ruleset_version,
        }


@dataclass(frozen=True)
class HealthResponse:
    """``GET /v1/health``: liveness plus serving-state summary."""

    status: str
    n_rules: int
    draining: bool
    cache: Mapping[str, int]
    ruleset_version: int | None

    def to_payload(self) -> dict:
        return {
            "status": self.status,
            "n_rules": self.n_rules,
            "draining": self.draining,
            "cache": dict(self.cache),
            "ruleset_version": self.ruleset_version,
        }


@dataclass(frozen=True)
class ArtifactInfo:
    """One registry entry in ``GET /v1/artifacts``."""

    version: int
    active: bool
    size_bytes: int

    def to_payload(self) -> dict:
        return {
            "version": self.version,
            "active": self.active,
            "size_bytes": self.size_bytes,
        }


@dataclass(frozen=True)
class ArtifactsResponse:
    """``GET /v1/artifacts``: registry listing + the active version."""

    artifacts: tuple[ArtifactInfo, ...]
    active_version: int | None
    registry: bool

    def to_payload(self) -> dict:
        return {
            "artifacts": [a.to_payload() for a in self.artifacts],
            "active_version": self.active_version,
            "registry": self.registry,
        }


@dataclass(frozen=True)
class ActivateResponse:
    """``POST /v1/artifacts/activate``: the completed swap."""

    active_version: int
    previous_version: int | None
    n_rules: int

    def to_payload(self) -> dict:
        return {
            "active_version": self.active_version,
            "previous_version": self.previous_version,
            "n_rules": self.n_rules,
        }


def prescription_payload(prescription) -> PrescriptionPayload:
    """Adapt a :class:`~repro.serve.engine.Prescription` to the API schema."""
    return PrescriptionPayload(
        rule_index=prescription.rule_index,
        matched_rules=prescription.matched_rules,
        expected_utility=prescription.expected_utility,
        protected=prescription.protected,
        intervention=prescription.intervention,
    )
