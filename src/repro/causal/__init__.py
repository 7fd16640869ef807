"""Causal-inference substrate (S3-S6).

Implements the slice of Pearl's graphical-model machinery that FairCap needs
(the paper delegates this to the DoWhy library) on plain Python: the graph
code depends on no graph library.

- :mod:`~repro.causal.dag` — causal DAGs over attribute names, with every
  node's parents, children, ancestors and descendants held as ``int``
  bitmasks,
- :mod:`~repro.causal.dseparation` — d-separation via moralized ancestral
  graphs, run as a bitmask search,
- :mod:`~repro.causal.backdoor` — backdoor adjustment-set selection,
- :mod:`~repro.causal.estimators` — CATE estimation by linear adjustment and
  by exact stratification, with significance tests,
- :mod:`~repro.causal.batch` — the batched Frisch-Waugh-Lovell engine:
  one design factorization + one GEMM per lattice level instead of one OLS
  per candidate,
- :mod:`~repro.causal.independence` — conditional-independence tests,
- :mod:`~repro.causal.discovery` — the PC causal-discovery algorithm
  (the "PC DAG" row of Table 6),
- :mod:`~repro.causal.dagbuilders` — the synthetic 1-layer / 2-layer DAGs of
  Table 6,
- :mod:`~repro.causal.scm` — structural causal models used to generate the
  synthetic datasets with known ground-truth effects.

The names below resolve on first access (PEP 562), so a mining run never
loads the discovery, independence-test or synthetic-DAG modules.
"""

from repro._lazy import lazy_exports

#: Export -> the submodule it is re-exported from.
_LAZY = {
    name: f"repro.causal.{module}"
    for module, names in (
        ("dag", ("CausalDAG",)),
        ("dseparation", ("d_separated",)),
        ("backdoor", (
            "backdoor_adjustment_set", "is_valid_backdoor_set",
            "minimal_backdoor_set",
        )),
        ("batch", (
            "GramFactorization", "build_rows_factorization", "estimate_level_rows",
        )),
        ("estimators", (
            "CateResult", "LinearAdjustmentEstimator", "StratifiedEstimator",
            "estimate_cate",
        )),
        ("discovery", ("pc_dag", "pc_skeleton")),
        ("dagbuilders", (
            "one_layer_independent_dag", "two_layer_dag", "two_layer_mutable_dag",
        )),
        ("scm", ("SCMNode", "StructuralCausalModel")),
    )
    for name in names
}

__all__ = [
    "CausalDAG",
    "d_separated",
    "backdoor_adjustment_set",
    "is_valid_backdoor_set",
    "minimal_backdoor_set",
    "CateResult",
    "GramFactorization",
    "LinearAdjustmentEstimator",
    "StratifiedEstimator",
    "build_rows_factorization",
    "estimate_cate",
    "estimate_level_rows",
    "pc_dag",
    "pc_skeleton",
    "one_layer_independent_dag",
    "two_layer_dag",
    "two_layer_mutable_dag",
    "SCMNode",
    "StructuralCausalModel",
]

__getattr__, __dir__ = lazy_exports(__name__, _LAZY)
