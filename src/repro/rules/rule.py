"""A single prescription rule (Def. 4.3) with its utilities (Def. 4.4).

A rule pairs a *grouping pattern* over immutable attributes with an
*intervention pattern* over mutable attributes.  The rule's three utilities
are conditional average treatment effects of the intervention on the outcome:

- ``utility``           = CATE(P_int, O | P_grp)                (Eq. 2)
- ``utility_protected`` = CATE(P_int, O | P_grp ∧ P_p)          (Eq. 3)
- ``utility_non_protected`` = CATE(P_int, O | P_grp ∧ ¬P_p)     (Eq. 4)

Rules are immutable value objects; the estimation work happens in
:class:`repro.rules.utility.RuleEvaluator`, which builds them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.mining.patterns import Pattern
from repro.utils.errors import PatternError

if TYPE_CHECKING:  # pragma: no cover - keeps serving off the estimators
    from repro.causal.estimators import CateResult


@dataclass(frozen=True)
class PrescriptionRule:
    """An evaluated prescription rule.

    Attributes
    ----------
    grouping:
        The grouping pattern ``P_grp`` (immutable attributes only).
    intervention:
        The intervention pattern ``P_int`` (mutable attributes only).
    utility:
        Overall CATE for the covered subpopulation; 0.0 when the rule
        covers no tuples (Def. 4.4) or the effect is not estimable.
    utility_protected:
        CATE restricted to covered protected tuples (0.0 when none).
    utility_non_protected:
        CATE restricted to covered non-protected tuples (0.0 when none).
    coverage_count:
        ``|Coverage(P_grp)|`` over the full table.
    protected_coverage_count:
        Covered protected tuples.
    estimate, estimate_protected, estimate_non_protected:
        The raw :class:`CateResult` diagnostics behind each utility
        (may be None when a sub-group was empty).
    """

    grouping: Pattern
    intervention: Pattern
    utility: float
    utility_protected: float
    utility_non_protected: float
    coverage_count: int
    protected_coverage_count: int
    estimate: CateResult | None = field(default=None, compare=False, repr=False)
    estimate_protected: CateResult | None = field(
        default=None, compare=False, repr=False
    )
    estimate_non_protected: CateResult | None = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.intervention.is_empty():
            raise PatternError("intervention pattern must be non-empty")
        if self.coverage_count < 0 or self.protected_coverage_count < 0:
            raise PatternError("coverage counts must be non-negative")
        if self.protected_coverage_count > self.coverage_count:
            raise PatternError(
                "protected coverage cannot exceed total coverage "
                f"({self.protected_coverage_count} > {self.coverage_count})"
            )

    @property
    def non_protected_coverage_count(self) -> int:
        """Covered non-protected tuples."""
        return self.coverage_count - self.protected_coverage_count

    @property
    def utility_gap(self) -> float:
        """``utility_non_protected - utility_protected`` (signed SP gap)."""
        return self.utility_non_protected - self.utility_protected

    def check_role_split(
        self, immutable: tuple[str, ...], mutable: tuple[str, ...]
    ) -> None:
        """Validate Def. 4.3: grouping over ``I`` only, intervention over ``M`` only."""
        if not self.grouping.is_over(immutable):
            raise PatternError(
                f"grouping pattern {self.grouping} uses non-immutable attributes"
            )
        if not self.intervention.is_over(mutable):
            raise PatternError(
                f"intervention pattern {self.intervention} uses non-mutable attributes"
            )

    def __str__(self) -> str:
        return (
            f"IF {self.grouping} THEN {self.intervention} "
            f"(utility={self.utility:.2f}, protected={self.utility_protected:.2f}, "
            f"non-protected={self.utility_non_protected:.2f}, "
            f"coverage={self.coverage_count})"
        )
