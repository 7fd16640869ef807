"""Baselines: CauSumX, IDS and FRL (S15-S18; Sec. 7.1 of the paper).

The names below resolve on first access (PEP 562).
"""

from repro._lazy import lazy_exports

#: Export -> the submodule it is re-exported from.
_LAZY = {
    name: f"repro.baselines.{module}"
    for module, names in (
        ("association", (
            "AssociationRule", "binarize_outcome", "mine_association_rules",
        )),
        ("causumx", ("run_causumx",)),
        ("ids", ("IDSConfig", "IDSResult", "run_ids")),
        ("frl", ("FRLConfig", "FRLResult", "run_frl")),
        ("adapt", (
            "AdaptedBaselineResult", "adapt_if_as_grouping", "adapt_if_as_intervention",
        )),
    )
    for name in names
}

__all__ = [
    "AssociationRule",
    "binarize_outcome",
    "mine_association_rules",
    "run_causumx",
    "IDSConfig",
    "IDSResult",
    "run_ids",
    "FRLConfig",
    "FRLResult",
    "run_frl",
    "AdaptedBaselineResult",
    "adapt_if_as_grouping",
    "adapt_if_as_intervention",
]

__getattr__, __dir__ = lazy_exports(__name__, _LAZY)
