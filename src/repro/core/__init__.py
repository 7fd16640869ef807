"""The FairCap algorithm — the paper's primary contribution (S13, S14).

The names below resolve on first access (PEP 562), so a run never loads
the brute-force selector or the cost extension.
"""

from repro._lazy import lazy_exports

#: Export -> the submodule it is re-exported from.
_LAZY = {
    name: f"repro.core.{module}"
    for module, names in (
        ("config", ("FairCapConfig",)),
        ("variants", (
            "ProblemVariant", "all_variants", "canonical_variants", "unconstrained",
        )),
        ("faircap", ("FairCap", "FairCapResult", "run_faircap")),
        ("greedy", ("GreedyResult", "GreedyStep", "greedy_select")),
        ("grouping", ("mine_grouping_patterns",)),
        ("intervention", (
            "InterventionMiningResult", "intervention_items", "mine_grouping",
            "mine_intervention", "mine_interventions_for_groups",
        )),
        ("bruteforce", ("BruteForceResult", "brute_force_select")),
        ("costs", (
            "BudgetedSelection", "InterventionCostModel", "cost_effectiveness",
            "select_within_budget",
        )),
    )
    for name in names
}

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

__getattr__, __dir__ = lazy_exports(__name__, _LAZY)
