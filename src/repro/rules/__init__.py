"""Prescription rules and rulesets (S9, S21; Defs. 4.3-4.5 of the paper).

:class:`RuleEvaluator` resolves on first access (PEP 562): it needs the
estimation stack, which the serving tier never imports.
"""

from repro._lazy import lazy_exports
from repro.rules.protected import ProtectedGroup
from repro.rules.rule import PrescriptionRule
from repro.rules.ruleset import RuleSet, RulesetEvaluator, RulesetMetrics
from repro.rules.templates import RuleTemplates, describe_pattern, describe_rule

__all__ = [
    "ProtectedGroup",
    "PrescriptionRule",
    "RuleSet",
    "RulesetEvaluator",
    "RulesetMetrics",
    "RuleEvaluator",
    "RuleTemplates",
    "describe_pattern",
    "describe_rule",
]

__getattr__, __dir__ = lazy_exports(
    __name__, {"RuleEvaluator": "repro.rules.utility"}
)
