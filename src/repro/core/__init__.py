"""The FairCap algorithm — the paper's primary contribution (S13, S14)."""

from repro.core.config import FairCapConfig
from repro.core.variants import (
    ProblemVariant,
    all_variants,
    canonical_variants,
    unconstrained,
)
from repro.core.faircap import FairCap, FairCapResult, run_faircap
from repro.core.greedy import GreedyResult, GreedyStep, greedy_select
from repro.core.grouping import mine_grouping_patterns
from repro.core.intervention import (
    InterventionMiningResult,
    intervention_items,
    mine_grouping,
    mine_intervention,
    mine_interventions_for_groups,
)
from repro.core.bruteforce import BruteForceResult, brute_force_select
from repro.core.costs import (
    BudgetedSelection,
    InterventionCostModel,
    cost_effectiveness,
    select_within_budget,
)

__all__ = [
    "InterventionCostModel",
    "BudgetedSelection",
    "cost_effectiveness",
    "select_within_budget",
    "FairCapConfig",
    "ProblemVariant",
    "all_variants",
    "canonical_variants",
    "unconstrained",
    "FairCap",
    "FairCapResult",
    "run_faircap",
    "GreedyResult",
    "GreedyStep",
    "greedy_select",
    "mine_grouping_patterns",
    "InterventionMiningResult",
    "intervention_items",
    "mine_grouping",
    "mine_intervention",
    "mine_interventions_for_groups",
    "BruteForceResult",
    "brute_force_select",
]
