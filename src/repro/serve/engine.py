"""The prescription engine: from matched rules to a single recommendation.

When several rules apply to one individual, the engine resolves them with
the paper's expected-utility semantics (Def. 4.5):

- a **protected** individual is assumed to receive the *worst* applicable
  rule (Eq. 6): the matched rule minimizing ``utility_protected``;
- everyone else is assumed to receive the *best* applicable rule (Eq. 5):
  the matched rule maximizing ``utility``.

Ties break toward the earlier rule, so results are deterministic and the
vectorized batch path is bit-identical to the scalar path.

Repeated lookups for the same attribute profile are common in serving
(individuals cluster on the few immutable attributes rules mention), so
:meth:`PrescriptionEngine.prescribe` sits behind a small LRU cache keyed by
the profile restricted to the attributes that can change the answer.  The
cache is mutated from every handler thread of the HTTP tier, so all access
— lookup, insert, eviction, counters — happens under one lock, and every
prescribed profile contributes exactly one hit-or-miss counter event
(``hits + misses == lookups`` holds under any interleaving; the concurrent
hammer test pins this).  An attribute the profile lacks is keyed apart
from one it carries as ``None``, so a cached answer is always the answer
the uncached engine would give.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.rules.protected import ProtectedGroup
from repro.rules.ruleset import RuleSet
from repro.serve.artifact import ServingArtifact, pattern_to_list
from repro.serve.index import CompiledRuleIndex
from repro.tabular.schema import AttributeKind, Schema

if TYPE_CHECKING:  # pragma: no cover - serving resolves without numpy
    from repro.tabular.table import Table

#: Cache-key value of an attribute the profile lacks; ``None`` is a value.
_ABSENT = object()


@dataclass(frozen=True)
class Prescription:
    """The engine's answer for one individual.

    Attributes
    ----------
    rule_index:
        Index (into the served ruleset) of the resolved rule, or ``None``
        when no rule applies.
    matched_rules:
        Indices of *all* applicable rules, in rule order (provenance).
    expected_utility:
        The resolved rule's utility under the applicable semantics
        (``utility_protected`` for protected individuals, ``utility``
        otherwise); 0.0 when no rule applies.
    protected:
        Whether the individual belongs to the protected group; ``None``
        when the artifact carries no protected group or the profile lacks
        the attributes needed to decide.
    intervention:
        The resolved rule's intervention predicates as JSON-ready
        dictionaries (empty when no rule applies).
    """

    rule_index: int | None
    matched_rules: tuple[int, ...]
    expected_utility: float
    protected: bool | None
    intervention: tuple[dict, ...]

    def to_dict(self) -> dict:
        """JSON-ready payload for the HTTP API."""
        return {
            "rule_index": self.rule_index,
            "matched_rules": list(self.matched_rules),
            "expected_utility": self.expected_utility,
            "protected": self.protected,
            "intervention": list(self.intervention),
        }


class PrescriptionEngine:
    """Serve per-individual prescriptions from a compiled ruleset.

    Parameters
    ----------
    ruleset:
        The rules to serve.
    protected:
        Optional protected group enabling the Eq. 6 resolution path.
    schema:
        Optional dataset schema; its continuous attributes seed the
        index's numeric discrimination maps.
    cache_size:
        Maximum number of attribute profiles kept in the LRU cache
        (0 disables caching).
    """

    def __init__(
        self,
        ruleset: RuleSet,
        protected: ProtectedGroup | None = None,
        schema: Schema | None = None,
        cache_size: int = 1024,
    ) -> None:
        self.ruleset = ruleset
        self.protected = protected
        self.schema = schema
        numeric = (
            tuple(
                s.name for s in schema if s.kind is AttributeKind.CONTINUOUS
            )
            if schema is not None
            else None
        )
        self.index = CompiledRuleIndex(ruleset.rules, numeric_attributes=numeric)
        self._utilities = tuple(float(r.utility) for r in ruleset)
        self._utilities_p = tuple(float(r.utility_protected) for r in ruleset)
        self._interventions: tuple[tuple[dict, ...], ...] = tuple(
            tuple(pattern_to_list(r.intervention)) for r in ruleset
        )
        protected_attrs = (
            protected.pattern.attributes if protected is not None else ()
        )
        self._cache_attributes = tuple(
            sorted(set(self.index.attributes) | set(protected_attrs))
        )
        self._cache: OrderedDict[tuple, Prescription] = OrderedDict()
        self._cache_size = max(0, int(cache_size))
        # Guards only the cache and its counters; matching and resolution
        # read immutable structures and run concurrently (the HTTP layer
        # serves one thread per connection against a shared engine).
        self._cache_lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    @classmethod
    def from_artifact(
        cls, artifact: ServingArtifact, cache_size: int = 1024
    ) -> "PrescriptionEngine":
        """Build an engine straight from a loaded artifact."""
        return cls(
            artifact.ruleset,
            protected=artifact.protected,
            schema=artifact.schema,
            cache_size=cache_size,
        )

    # -- single-individual path --------------------------------------------------

    def _is_protected(self, row: Mapping[str, object]) -> bool | None:
        if self.protected is None:
            return None
        if any(a not in row for a in self.protected.pattern.attributes):
            return None
        return bool(self.protected.pattern.matches_row(row))

    def _resolve(
        self, matched: tuple[int, ...], is_protected: bool | None
    ) -> Prescription:
        if not matched:
            return Prescription(None, (), 0.0, is_protected, ())
        if is_protected:
            chosen = min(matched, key=lambda i: (self._utilities_p[i], i))
            utility = self._utilities_p[chosen]
        else:
            chosen = max(matched, key=lambda i: (self._utilities[i], -i))
            utility = self._utilities[chosen]
        return Prescription(
            rule_index=chosen,
            matched_rules=matched,
            expected_utility=utility,
            protected=is_protected,
            intervention=self._interventions[chosen],
        )

    # count_miss stays: perfbench's ledger calls original(self, key, count_miss).
    def _cache_lookup(
        self, key: tuple | None, count_miss: bool = True
    ) -> Prescription | None:
        """One locked cache probe; a hit is always counted, a miss only
        when ``count_miss``."""
        if key is None:
            return None
        with self._cache_lock:
            cached = self._cache.get(key)
            if cached is not None:
                self._hits += 1
                self._cache.move_to_end(key)
                return cached
            if count_miss:
                self._misses += 1
            return None

    def _cache_put(self, key: tuple | None, result: Prescription) -> None:
        if key is None:
            return
        with self._cache_lock:
            self._cache[key] = result
            self._cache.move_to_end(key)
            if len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)

    def prescribe(self, individual: Mapping[str, object]) -> Prescription:
        """Resolve the prescription for one attribute profile (cached)."""
        key = self._cache_key(individual)
        cached = self._cache_lookup(key)
        if cached is not None:
            return cached
        result = self._resolve(
            self.index.match_indices(individual), self._is_protected(individual)
        )
        self._cache_put(key, result)
        return result

    def prescribe_batch(
        self, individuals: Sequence[Mapping[str, object]]
    ) -> list[Prescription]:
        """Resolve a list of attribute profiles (shares the LRU cache)."""
        return [self.prescribe(row) for row in individuals]

    # -- vectorized path ----------------------------------------------------------

    def prescribe_table(self, table: Table) -> list[Prescription]:
        """Vectorized resolution over every row of ``table``.

        Matching runs through the compiled index's batch path; rule
        resolution is a masked argmax/argmin per row.  Results are
        bit-identical to calling :meth:`prescribe` row by row.
        """
        import numpy as np

        matched = self.index.match_table(table)  # (n_rules, n_rows)
        n_rows = table.n_rows

        protected_mask: np.ndarray | None = None
        if self.protected is not None and all(
            a in table.schema for a in self.protected.pattern.attributes
        ):
            protected_mask = self.protected.mask(table)

        if not len(self.ruleset):
            return [
                Prescription(
                    None,
                    (),
                    0.0,
                    bool(protected_mask[i]) if protected_mask is not None else None,
                    (),
                )
                for i in range(n_rows)
            ]

        utilities = np.array(self._utilities)
        utilities_p = np.array(self._utilities_p)
        any_match = matched.any(axis=0)
        best = np.where(matched, utilities[:, None], -np.inf).argmax(axis=0)
        worst = np.where(matched, utilities_p[:, None], np.inf).argmin(axis=0)

        results: list[Prescription] = []
        for i in range(n_rows):
            is_protected = (
                bool(protected_mask[i]) if protected_mask is not None else None
            )
            if not any_match[i]:
                results.append(Prescription(None, (), 0.0, is_protected, ()))
                continue
            chosen = int(worst[i]) if is_protected else int(best[i])
            utility = (
                self._utilities_p[chosen] if is_protected else self._utilities[chosen]
            )
            results.append(
                Prescription(
                    rule_index=chosen,
                    matched_rules=tuple(
                        int(j) for j in np.flatnonzero(matched[:, i])
                    ),
                    expected_utility=utility,
                    protected=is_protected,
                    intervention=self._interventions[chosen],
                )
            )
        return results

    # -- cache ------------------------------------------------------------------

    def _cache_key(self, individual: Mapping[str, object]) -> tuple | None:
        if self._cache_size == 0:
            return None
        key = tuple(
            (a, individual.get(a, _ABSENT)) for a in self._cache_attributes
        )
        try:
            hash(key)
        except TypeError:
            return None  # unhashable attribute value: skip the cache
        return key

    def cache_info(self) -> dict[str, int]:
        """Hit/miss counters and current size of the profile cache."""
        with self._cache_lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "size": len(self._cache),
                "max_size": self._cache_size,
            }

    def clear_cache(self) -> None:
        """Drop all cached profiles and reset the counters."""
        with self._cache_lock:
            self._cache.clear()
            self._hits = 0
            self._misses = 0
