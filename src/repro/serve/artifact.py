"""Versioned (de)serialization of mined rulesets into deployable artifacts.

A mined :class:`~repro.rules.ruleset.RuleSet` lives only in memory; serving
it requires a durable, versioned representation.  The artifact format is
plain JSON so it can be inspected, diffed, and shipped without any library:

.. code-block:: json

    {
      "format": "faircap-ruleset",
      "version": 1,
      "metadata": {"dataset": "german", "variant": "Group fairness"},
      "schema": [{"name": "Age", "kind": "continuous", "role": "immutable"}],
      "protected": {"name": "non-single", "pattern": [...]},
      "rules": [{"grouping": [...], "intervention": [...], "utility": 1.0}]
    }

``schema`` and ``protected`` are optional: a bare ruleset round-trips on its
own (``RuleSet.to_json`` / ``RuleSet.from_json`` delegate here), while the
full :class:`ServingArtifact` carries everything the serving engine needs to
validate requests and resolve protected-group membership.

Numbers are serialized at full precision (Python's ``repr`` round-trips
floats exactly), and numpy scalars are converted to their plain Python
equivalents, so deserialized rules compare equal to the originals.  Loading
an artifact needs no numpy.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import Mapping

from repro.mining.patterns import Operator, Pattern, Predicate
from repro.rules.protected import ProtectedGroup
from repro.rules.rule import PrescriptionRule
from repro.rules.ruleset import RuleSet
from repro.tabular.schema import AttributeSpec, Schema
from repro.utils.errors import ServeError

ARTIFACT_FORMAT = "faircap-ruleset"
ARTIFACT_VERSION = 1


def _plain(value: object) -> object:
    """Convert numpy scalars to plain Python values for JSON round-trips."""
    np = sys.modules.get("numpy")
    if np is None:  # no numpy scalar can exist before numpy is loaded
        return value
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.str_):
        return str(value)
    return value


def _require(payload: Mapping, key: str, context: str) -> object:
    try:
        return payload[key]
    except (KeyError, TypeError):
        raise ServeError(f"{context} is missing required field {key!r}") from None


# -- predicates and patterns ----------------------------------------------------


def predicate_to_dict(predicate: Predicate) -> dict:
    """JSON-ready dictionary for a single predicate."""
    value = _plain(predicate.value)
    if not isinstance(value, (str, int, float, bool)) and value is not None:
        raise ServeError(
            f"predicate value {value!r} on {predicate.attribute!r} "
            "is not JSON-serializable"
        )
    return {
        "attribute": predicate.attribute,
        "operator": predicate.operator.value,
        "value": value,
    }


def predicate_from_dict(payload: Mapping) -> Predicate:
    """Rebuild a predicate from :func:`predicate_to_dict` output."""
    return Predicate(
        str(_require(payload, "attribute", "predicate")),
        Operator.parse(str(_require(payload, "operator", "predicate"))),
        _require(payload, "value", "predicate"),
    )


def pattern_to_list(pattern: Pattern) -> list[dict]:
    """JSON-ready predicate list for a pattern (canonical order)."""
    return [predicate_to_dict(p) for p in pattern]


def pattern_from_list(payload: object) -> Pattern:
    """Rebuild a pattern from :func:`pattern_to_list` output."""
    if not isinstance(payload, list):
        raise ServeError(f"pattern must be a list of predicates, got {payload!r}")
    return Pattern(predicate_from_dict(p) for p in payload)


# -- rules ----------------------------------------------------------------------


def rule_to_dict(rule: PrescriptionRule) -> dict:
    """JSON-ready dictionary for a rule.

    The raw :class:`CateResult` diagnostics are estimation-time artifacts
    and are deliberately dropped; rule equality ignores them.
    """
    return {
        "grouping": pattern_to_list(rule.grouping),
        "intervention": pattern_to_list(rule.intervention),
        "utility": float(rule.utility),
        "utility_protected": float(rule.utility_protected),
        "utility_non_protected": float(rule.utility_non_protected),
        "coverage_count": int(rule.coverage_count),
        "protected_coverage_count": int(rule.protected_coverage_count),
    }


def rule_from_dict(payload: Mapping) -> PrescriptionRule:
    """Rebuild a rule from :func:`rule_to_dict` output."""
    return PrescriptionRule(
        grouping=pattern_from_list(_require(payload, "grouping", "rule")),
        intervention=pattern_from_list(_require(payload, "intervention", "rule")),
        utility=float(_require(payload, "utility", "rule")),  # type: ignore[arg-type]
        utility_protected=float(
            _require(payload, "utility_protected", "rule")  # type: ignore[arg-type]
        ),
        utility_non_protected=float(
            _require(payload, "utility_non_protected", "rule")  # type: ignore[arg-type]
        ),
        coverage_count=int(
            _require(payload, "coverage_count", "rule")  # type: ignore[arg-type]
        ),
        protected_coverage_count=int(
            _require(payload, "protected_coverage_count", "rule")  # type: ignore[arg-type]
        ),
    )


# -- schema and protected group --------------------------------------------------


def schema_to_list(schema: Schema) -> list[dict]:
    """JSON-ready attribute-spec list for a schema."""
    return [
        {"name": s.name, "kind": s.kind.value, "role": s.role.value} for s in schema
    ]


def schema_from_list(payload: object) -> Schema:
    """Rebuild a schema from :func:`schema_to_list` output."""
    if not isinstance(payload, list):
        raise ServeError(f"schema must be a list of attribute specs, got {payload!r}")
    return Schema(
        AttributeSpec(
            str(_require(spec, "name", "attribute spec")),
            str(_require(spec, "kind", "attribute spec")),  # type: ignore[arg-type]
            str(_require(spec, "role", "attribute spec")),  # type: ignore[arg-type]
        )
        for spec in payload
    )


def protected_to_dict(protected: ProtectedGroup) -> dict:
    """JSON-ready dictionary for a protected group."""
    return {"name": protected.name, "pattern": pattern_to_list(protected.pattern)}


def protected_from_dict(payload: Mapping) -> ProtectedGroup:
    """Rebuild a protected group from :func:`protected_to_dict` output."""
    return ProtectedGroup(
        pattern_from_list(_require(payload, "pattern", "protected group")),
        name=str(payload.get("name", "protected")),
    )


# -- the artifact ----------------------------------------------------------------


@dataclass(frozen=True)
class ServingArtifact:
    """A deployable ruleset: rules plus the context serving needs.

    Attributes
    ----------
    ruleset:
        The mined prescription rules.
    schema:
        Optional attribute kinds/roles of the source dataset — lets the
        engine type-check request attributes.
    protected:
        Optional protected group — enables the Eq. 6 worst-case rule
        resolution for protected individuals.
    metadata:
        Free-form provenance (dataset name, variant, row counts, ...).
    """

    ruleset: RuleSet
    schema: Schema | None = None
    protected: ProtectedGroup | None = None
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The versioned JSON-ready payload."""
        return {
            "format": ARTIFACT_FORMAT,
            "version": ARTIFACT_VERSION,
            "metadata": dict(self.metadata),
            "schema": schema_to_list(self.schema) if self.schema else None,
            "protected": (
                protected_to_dict(self.protected) if self.protected else None
            ),
            "rules": [rule_to_dict(r) for r in self.ruleset],
        }

    def to_json(self, indent: int | None = None) -> str:
        """Serialize to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ServingArtifact":
        """Validate and rebuild an artifact from its JSON-ready payload."""
        if not isinstance(payload, Mapping):
            raise ServeError(f"artifact must be a JSON object, got {payload!r}")
        fmt = payload.get("format")
        if fmt != ARTIFACT_FORMAT:
            raise ServeError(
                f"unknown artifact format {fmt!r} (expected {ARTIFACT_FORMAT!r})"
            )
        version = payload.get("version")
        if not isinstance(version, int) or version < 1:
            raise ServeError(f"bad artifact version {version!r}")
        if version > ARTIFACT_VERSION:
            raise ServeError(
                f"artifact version {version} is newer than supported "
                f"version {ARTIFACT_VERSION}"
            )
        rules_payload = _require(payload, "rules", "artifact")
        if not isinstance(rules_payload, list):
            raise ServeError("artifact 'rules' must be a list")
        schema_payload = payload.get("schema")
        protected_payload = payload.get("protected")
        metadata = payload.get("metadata") or {}
        if not isinstance(metadata, Mapping):
            raise ServeError("artifact 'metadata' must be an object")
        return cls(
            ruleset=RuleSet(rule_from_dict(r) for r in rules_payload),
            schema=(
                schema_from_list(schema_payload)
                if schema_payload is not None
                else None
            ),
            protected=(
                protected_from_dict(protected_payload)
                if protected_payload is not None
                else None
            ),
            metadata=dict(metadata),
        )

    @classmethod
    def from_json(cls, text: str) -> "ServingArtifact":
        """Parse a JSON string produced by :meth:`to_json`."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ServeError(f"artifact is not valid JSON: {exc}") from None
        return cls.from_dict(payload)

    def save(self, path: str) -> None:
        """Write the artifact to ``path`` (pretty-printed)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json(indent=2))
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "ServingArtifact":
        """Read an artifact previously written by :meth:`save`."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())
