"""Adapting IDS/FRL rules for quantitative comparison (Sec. 7.1).

IDS and FRL emit *prediction* rules, not interventions.  The paper compares
them to FairCap by reinterpreting their IF clauses in two ways:

1. **IF clause as grouping pattern** — the IF clause (restricted to
   immutable attributes) becomes the grouping pattern and FairCap's Step 2
   finds the best intervention for it;
2. **IF clause as intervention pattern** — the IF clause (restricted to
   mutable attributes) becomes the intervention, applied to the entire data
   (empty grouping pattern).

To "address fairness considerations" the baselines are run twice — on the
full dataset and on the protected sub-population — and the rule pools are
merged (Sec. 7.1).  The adapted rules are then evaluated with FairCap's
utility machinery, producing the IDS/FRL rows of Table 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.baselines.association import AssociationRule
from repro.causal.dag import CausalDAG
from repro.core.config import FairCapConfig
from repro.core.intervention import intervention_items, mine_grouping
from repro.mining.patterns import Pattern
from repro.rules.protected import ProtectedGroup
from repro.rules.rule import PrescriptionRule
from repro.rules.ruleset import RuleSet, RulesetEvaluator, RulesetMetrics
from repro.rules.utility import RuleEvaluator
from repro.tabular.schema import Schema
from repro.tabular.table import Table


@dataclass(frozen=True)
class AdaptedBaselineResult:
    """A baseline rule pool converted into prescription rules and scored."""

    name: str
    ruleset: RuleSet
    metrics: RulesetMetrics
    source_rule_count: int


def merge_rule_pools(
    pools: Sequence[Sequence[AssociationRule]],
) -> list[AssociationRule]:
    """Union of baseline rule pools with pattern-level deduplication."""
    seen: set[Pattern] = set()
    merged: list[AssociationRule] = []
    for pool in pools:
        for rule in pool:
            if rule.pattern not in seen:
                seen.add(rule.pattern)
                merged.append(rule)
    return merged


def _metrics_for(
    table: Table, rules: list[PrescriptionRule], protected: ProtectedGroup
) -> tuple[RuleSet, RulesetMetrics]:
    evaluator = RulesetEvaluator(table, rules, protected)
    return evaluator.subset(range(len(rules))), evaluator.metrics(
        list(range(len(rules)))
    )


def adapt_if_as_grouping(
    name: str,
    if_clauses: Sequence[Pattern],
    table: Table,
    schema: Schema,
    dag: CausalDAG,
    protected: ProtectedGroup,
    config: FairCapConfig | None = None,
) -> AdaptedBaselineResult:
    """Treatment (1): IF clauses as grouping patterns + FairCap Step 2.

    Each IF clause is restricted to the immutable attributes; empty
    restrictions (clauses using only mutable attributes) are dropped.
    """
    config = config if config is not None else FairCapConfig()
    immutable = schema.immutable_names
    groupings: list[Pattern] = []
    seen: set[Pattern] = set()
    for clause in if_clauses:
        restricted = clause.restricted_to(immutable)
        if restricted.is_empty() or restricted in seen:
            continue
        seen.add(restricted)
        groupings.append(restricted)

    evaluator = RuleEvaluator(
        table,
        schema.outcome_name,
        dag,
        protected,
        estimator=config.make_estimator(),
        min_subgroup_size=config.min_subgroup_size,
    )
    items = intervention_items(table, schema, dag, config)
    rules: list[PrescriptionRule] = []
    for grouping in groupings:
        result = mine_grouping(evaluator, grouping, items, config)
        if result.best is not None:
            rules.append(result.best)
    ruleset, metrics = _metrics_for(table, rules, protected)
    return AdaptedBaselineResult(
        name=f"{name} (IF clause as grouping pattern)",
        ruleset=ruleset,
        metrics=metrics,
        source_rule_count=len(if_clauses),
    )


def adapt_if_as_intervention(
    name: str,
    if_clauses: Sequence[Pattern],
    table: Table,
    schema: Schema,
    dag: CausalDAG,
    protected: ProtectedGroup,
    config: FairCapConfig | None = None,
) -> AdaptedBaselineResult:
    """Treatment (2): IF clauses as interventions over the entire data.

    Each IF clause is restricted to the mutable attributes and evaluated as
    an intervention with the empty grouping pattern (grouping = all rows).
    """
    config = config if config is not None else FairCapConfig()
    mutable = schema.mutable_names
    interventions: list[Pattern] = []
    seen: set[Pattern] = set()
    for clause in if_clauses:
        restricted = clause.restricted_to(mutable)
        if restricted.is_empty() or restricted in seen:
            continue
        seen.add(restricted)
        interventions.append(restricted)

    evaluator = RuleEvaluator(
        table,
        schema.outcome_name,
        dag,
        protected,
        estimator=config.make_estimator(),
        min_subgroup_size=config.min_subgroup_size,
    )
    context = evaluator.context(Pattern.empty())
    rules: list[PrescriptionRule] = []
    for intervention in interventions:
        rule = context.evaluate(intervention)
        if rule.utility > 0:
            rules.append(rule)
    ruleset, metrics = _metrics_for(table, rules, protected)
    return AdaptedBaselineResult(
        name=f"{name} (IF clause as intervention pattern)",
        ruleset=ruleset,
        metrics=metrics,
        source_rule_count=len(if_clauses),
    )
