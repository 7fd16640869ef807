"""Fairness and coverage constraints (S10-S12; Secs. 4.5-4.6, 5.2, 5.4).

The names below resolve on first access (PEP 562), except ``benefit`` and
``total_benefit`` (see below).
"""

from repro._lazy import lazy_exports

# ``benefit`` is also the name of its submodule, which the greedy step
# imports directly; binding the function eagerly keeps
# ``repro.fairness.benefit`` the function whatever is imported first.
from repro.fairness.benefit import benefit, total_benefit

#: Export -> the submodule it is re-exported from.
_LAZY = {
    name: f"repro.fairness.{module}"
    for module, names in (
        ("constraints", (
            "FairnessKind", "FairnessScope", "FairnessConstraint",
            "statistical_parity", "bounded_group_loss",
        )),
        ("coverage", (
            "CoverageConstraint", "CoverageKind", "group_coverage", "rule_coverage",
        )),
        ("decision_tree", ("select_variant",)),
    )
    for name in names
}

__all__ = [
    "FairnessKind",
    "FairnessScope",
    "FairnessConstraint",
    "statistical_parity",
    "bounded_group_loss",
    "CoverageConstraint",
    "CoverageKind",
    "group_coverage",
    "rule_coverage",
    "benefit",
    "total_benefit",
    "select_variant",
]

__getattr__, __dir__ = lazy_exports(__name__, _LAZY)
