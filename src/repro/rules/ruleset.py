"""Rulesets and their expected utility (Def. 4.5, Eqs. 5-7).

The expected utility of a ruleset ``R`` models how individuals pick among
the rules that apply to them.  Following the paper's conservative worst-case
analysis:

- overall (Eq. 5): every covered tuple receives the **max** ``utility(r)``
  among its covering rules, averaged over ``|D|``;
- protected (Eq. 6): every covered protected tuple receives the **min**
  protected utility among its covering rules, averaged over the covered
  protected tuples;
- non-protected (Eq. 7): every covered non-protected tuple receives the
  **max** non-protected utility, averaged over the covered non-protected
  tuples.

The *unfairness score* reported in Tables 4-6 is the signed difference
``ExpUtility_nonprotected - ExpUtility_protected`` (the German "Rule Cov &
Group Fair" row is negative, so the score is signed, favouring the protected
group when negative).

:class:`RulesetEvaluator` pre-computes per-rule coverage masks once and
evaluates arbitrary subsets fast — the greedy selector calls it hundreds of
times per run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.rules.protected import ProtectedGroup
from repro.rules.rule import PrescriptionRule
from repro.utils.errors import PatternError

if TYPE_CHECKING:  # pragma: no cover - a served RuleSet needs no numpy
    import numpy as np

    from repro.tabular.table import Table


class RuleSet:
    """An immutable ordered collection of prescription rules."""

    def __init__(self, rules: Iterable[PrescriptionRule] = ()) -> None:
        self.rules: tuple[PrescriptionRule, ...] = tuple(rules)

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self) -> Iterator[PrescriptionRule]:
        return iter(self.rules)

    def __getitem__(self, index: int) -> PrescriptionRule:
        return self.rules[index]

    @property
    def size(self) -> int:
        """Number of rules, ``size(R)`` in the paper."""
        return len(self.rules)

    def with_rule(self, rule: PrescriptionRule) -> "RuleSet":
        """Return a new ruleset with ``rule`` appended."""
        return RuleSet(self.rules + (rule,))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RuleSet):
            return NotImplemented
        return self.rules == other.rules

    def __hash__(self) -> int:
        return hash(self.rules)

    # -- persistence (delegates to the serving subsystem) -------------------------

    def to_json(self, indent: int | None = None) -> str:
        """Serialize to the versioned ruleset-artifact JSON format.

        Round-trips exactly: ``RuleSet.from_json(rs.to_json()) == rs``.
        For an artifact carrying the dataset schema and protected group as
        well, use :class:`repro.serve.artifact.ServingArtifact` directly.
        """
        from repro.serve.artifact import ServingArtifact

        return ServingArtifact(self).to_json(indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "RuleSet":
        """Rebuild a ruleset from :meth:`to_json` output (or a full artifact)."""
        from repro.serve.artifact import ServingArtifact

        return ServingArtifact.from_json(text).ruleset

    def __repr__(self) -> str:
        return f"RuleSet({len(self.rules)} rules)"


@dataclass(frozen=True)
class RulesetMetrics:
    """The per-ruleset quantities reported in the paper's Tables 4-6.

    Attributes
    ----------
    n_rules:
        ``size(R)``.
    coverage:
        Fraction of ``D`` covered by at least one rule.
    protected_coverage:
        Fraction of the protected group covered.
    expected_utility:
        Eq. 5 (over all of ``D``).
    expected_utility_protected:
        Eq. 6 (worst-case rule choice, over covered protected tuples).
    expected_utility_non_protected:
        Eq. 7 (best-case rule choice, over covered non-protected tuples).
    unfairness:
        Signed ``expected_utility_non_protected - expected_utility_protected``.
    """

    n_rules: int
    coverage: float
    protected_coverage: float
    expected_utility: float
    expected_utility_protected: float
    expected_utility_non_protected: float

    @property
    def unfairness(self) -> float:
        """Signed gap between non-protected and protected expected utility."""
        return self.expected_utility_non_protected - self.expected_utility_protected


class RulesetEvaluator:
    """Fast metric evaluation for subsets of a fixed candidate rule pool.

    Parameters
    ----------
    table:
        The database instance ``D``.
    rules:
        The candidate rules; subsets are addressed by index into this list.
    protected:
        The protected group.
    """

    def __init__(
        self,
        table: Table,
        rules: Sequence[PrescriptionRule],
        protected: ProtectedGroup,
    ) -> None:
        import numpy as np

        self.table = table
        self.rules: tuple[PrescriptionRule, ...] = tuple(rules)
        self.protected = protected
        self.n = table.n_rows
        self.protected_mask = protected.mask(table)
        self.n_protected = int(self.protected_mask.sum())
        self.n_non_protected = self.n - self.n_protected
        # Per-rule coverage masks, cached on the table keyed by grouping
        # pattern: repeated evaluator constructions over the same table
        # (greedy runs, experiment sweeps) reuse masks for unchanged rules.
        cache = table.mask_cache()
        masks: list[np.ndarray] = []
        for rule in self.rules:
            mask = cache.get(rule.grouping)
            if mask is None:
                mask = rule.grouping.mask(table)
                mask.setflags(write=False)
                cache[rule.grouping] = mask
            masks.append(mask)
        self._masks = masks
        self._utilities = np.array([r.utility for r in self.rules], dtype=np.float64)
        self._utilities_p = np.array(
            [r.utility_protected for r in self.rules], dtype=np.float64
        )
        self._utilities_np = np.array(
            [r.utility_non_protected for r in self.rules], dtype=np.float64
        )

    def __len__(self) -> int:
        return len(self.rules)

    def mask_of(self, index: int) -> np.ndarray:
        """Coverage mask of candidate rule ``index`` over the full table."""
        return self._masks[index]

    def _check_indices(self, indices: Sequence[int]) -> None:
        for i in indices:
            if not 0 <= i < len(self.rules):
                raise PatternError(f"rule index {i} out of range")

    def subset(self, indices: Sequence[int]) -> RuleSet:
        """Materialise the ruleset for candidate ``indices``."""
        self._check_indices(indices)
        return RuleSet(self.rules[i] for i in indices)

    # -- metric computation -------------------------------------------------------

    def metrics(self, indices: Sequence[int]) -> RulesetMetrics:
        """Compute Eqs. 5-7 and coverage for the subset ``indices``."""
        import numpy as np

        self._check_indices(indices)
        indices = list(indices)
        if not indices:
            return RulesetMetrics(
                n_rules=0,
                coverage=0.0,
                protected_coverage=0.0,
                expected_utility=0.0,
                expected_utility_protected=0.0,
                expected_utility_non_protected=0.0,
            )

        covered = np.zeros(self.n, dtype=bool)
        best_overall = np.full(self.n, -np.inf)
        best_np = np.full(self.n, -np.inf)
        worst_p = np.full(self.n, np.inf)
        for i in indices:
            mask = self._masks[i]
            covered |= mask
            best_overall[mask] = np.maximum(best_overall[mask], self._utilities[i])
            best_np[mask] = np.maximum(best_np[mask], self._utilities_np[i])
            worst_p[mask] = np.minimum(worst_p[mask], self._utilities_p[i])

        covered_protected = covered & self.protected_mask
        covered_non_protected = covered & ~self.protected_mask
        n_cov_p = int(covered_protected.sum())
        n_cov_np = int(covered_non_protected.sum())

        expected = float(best_overall[covered].sum()) / self.n if self.n else 0.0
        expected_p = (
            float(worst_p[covered_protected].sum()) / n_cov_p if n_cov_p else 0.0
        )
        expected_np = (
            float(best_np[covered_non_protected].sum()) / n_cov_np if n_cov_np else 0.0
        )
        return RulesetMetrics(
            n_rules=len(indices),
            coverage=float(covered.sum()) / self.n if self.n else 0.0,
            protected_coverage=(
                n_cov_p / self.n_protected if self.n_protected else 0.0
            ),
            expected_utility=expected,
            expected_utility_protected=expected_p,
            expected_utility_non_protected=expected_np,
        )

    def metrics_for_rules(self, rules: Sequence[PrescriptionRule]) -> RulesetMetrics:
        """Metrics for an arbitrary rule list (not necessarily candidates)."""
        evaluator = RulesetEvaluator(self.table, rules, self.protected)
        return evaluator.metrics(list(range(len(rules))))

    # -- objective (Def. 4.6) -----------------------------------------------------

    def objective(
        self,
        indices: Sequence[int],
        lambda_size: float,
        lambda_utility: float,
    ) -> float:
        """The optimisation objective of Def. 4.6 (Eq. 8).

        ``lambda_size * (l - size(R)) + lambda_utility * ExpUtility(R)``
        where ``l`` is the candidate-pool size.
        """
        metrics = self.metrics(indices)
        return lambda_size * (len(self.rules) - metrics.n_rules) + (
            lambda_utility * metrics.expected_utility
        )
