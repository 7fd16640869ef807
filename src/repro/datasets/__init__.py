"""Synthetic datasets with known ground truth (S19, S20).

The paper evaluates on the 2021 Stack Overflow developer survey and the UCI
German Credit data, neither of which ships with this offline reproduction.
Both are therefore *generated* from structural causal models whose DAGs and
effect profiles mirror the paper's description (see DESIGN.md, Substitutions
1-2): treatment effects are planted, moderated by the protected attribute,
and a deliberately non-causal correlated attribute is included so that
association-based baselines pick up the paper's "sexual orientation"-style
trap.

The names below resolve on first access (PEP 562), so loading one dataset
does not load the others or the out-of-core store.
"""

from repro._lazy import lazy_exports

#: Export -> the submodule it is re-exported from.
_LAZY = {
    name: f"repro.datasets.{module}"
    for module, names in (
        ("bundle", ("DatasetBundle",)),
        ("stackoverflow", ("load_stackoverflow",)),
        ("german", ("load_german",)),
        ("registry", ("DATASET_LOADERS", "load_dataset")),
        ("sharded", ("ShardedTable", "ShardedTableWriter", "sharded_from_chunks")),
    )
    for name in names
}

__all__ = [
    "DatasetBundle",
    "load_stackoverflow",
    "load_german",
    "DATASET_LOADERS",
    "load_dataset",
    "ShardedTable",
    "ShardedTableWriter",
    "sharded_from_chunks",
]

__getattr__, __dir__ = lazy_exports(__name__, _LAZY)
