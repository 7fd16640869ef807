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
"""

from repro.causal.dag import CausalDAG
from repro.causal.dseparation import d_separated
from repro.causal.backdoor import (
    backdoor_adjustment_set,
    is_valid_backdoor_set,
    minimal_backdoor_set,
)
from repro.causal.batch import (
    GramFactorization,
    build_rows_factorization,
    estimate_level_rows,
)
from repro.causal.estimators import (
    CateResult,
    LinearAdjustmentEstimator,
    StratifiedEstimator,
    estimate_cate,
)
from repro.causal.discovery import pc_dag, pc_skeleton
from repro.causal.dagbuilders import (
    one_layer_independent_dag,
    two_layer_dag,
    two_layer_mutable_dag,
)
from repro.causal.scm import SCMNode, StructuralCausalModel

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
