"""Production serving for mined prescription rulesets.

Takes a :class:`~repro.rules.ruleset.RuleSet` from the end of the FairCap
pipeline to live traffic, as a layered tier (router / service /
repository):

- :mod:`repro.serve.artifact` — versioned JSON persistence
  (:class:`ServingArtifact`): a mined ruleset becomes a deployable file;
- :mod:`repro.serve.registry` — :class:`ArtifactRegistry`: a directory of
  versioned artifacts with an ``ACTIVE`` pointer (publish / activate /
  rollback, all atomic);
- :mod:`repro.serve.index` — :class:`CompiledRuleIndex`: per-attribute
  discrimination maps matching an individual against the ruleset without
  scanning every rule, plus a vectorized batch path;
- :mod:`repro.serve.engine` — :class:`PrescriptionEngine`: resolves
  multiple matching rules with the paper's Eq. 5/6 utility semantics and
  caches repeated attribute profiles (thread-safe);
- :mod:`repro.serve.service` — :class:`PrescriptionService`: engine
  lifecycle behind an RCU-style pointer; hot reload swaps a complete
  immutable :class:`ServingState` so in-flight requests never see a torn
  generation;
- :mod:`repro.serve.http` — the dependency-free ``/v1`` HTTP API
  (``POST /v1/prescribe``, ``GET /v1/rules``, ``GET /v1/health``,
  ``GET /v1/metrics``, ``GET /v1/artifacts``,
  ``POST /v1/artifacts/activate``), configured by :class:`ServeConfig`;
- :mod:`repro.serve.config` / :mod:`repro.serve.schemas` — the frozen
  server configuration and the typed request/response schemas + uniform
  error envelope.

Quickstart::

    from repro.serve import PrescriptionEngine, ServingArtifact

    artifact = ServingArtifact.load("ruleset.json")
    engine = PrescriptionEngine.from_artifact(artifact)
    print(engine.prescribe({"Country": "US", "Age": 31}))

Full tier with versioned hot reload::

    from repro.serve import ArtifactRegistry, ServeConfig, run_server

    registry = ArtifactRegistry("artifacts/")
    registry.publish(artifact)
    run_server(config=ServeConfig(port=8080, artifact_dir="artifacts/"))
"""

from repro.serve.artifact import (
    ARTIFACT_FORMAT,
    ARTIFACT_VERSION,
    ServingArtifact,
    pattern_from_list,
    pattern_to_list,
    predicate_from_dict,
    predicate_to_dict,
    protected_from_dict,
    protected_to_dict,
    rule_from_dict,
    rule_to_dict,
    schema_from_list,
    schema_to_list,
)
from repro.serve.config import ServeConfig
from repro.serve.engine import Prescription, PrescriptionEngine
from repro.serve.http import PrescriptionServer, make_server, run_server
from repro.serve.index import (
    CompiledRuleIndex,
    naive_match_row,
    naive_match_table,
)
from repro.serve.registry import ArtifactRecord, ArtifactRegistry
from repro.serve.schemas import ApiError, error_envelope
from repro.serve.service import PrescriptionService, ServingState

__all__ = [
    "ARTIFACT_FORMAT",
    "ARTIFACT_VERSION",
    "ApiError",
    "ArtifactRecord",
    "ArtifactRegistry",
    "CompiledRuleIndex",
    "Prescription",
    "PrescriptionEngine",
    "PrescriptionServer",
    "PrescriptionService",
    "ServeConfig",
    "ServingArtifact",
    "ServingState",
    "error_envelope",
    "make_server",
    "run_server",
    "naive_match_row",
    "naive_match_table",
    "predicate_to_dict",
    "predicate_from_dict",
    "pattern_to_list",
    "pattern_from_list",
    "rule_to_dict",
    "rule_from_dict",
    "schema_to_list",
    "schema_from_list",
    "protected_to_dict",
    "protected_from_dict",
]
