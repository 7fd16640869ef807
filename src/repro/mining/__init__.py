"""Pattern language and pattern mining (S2, S7, S8).

- :mod:`~repro.mining.patterns` — predicates and conjunctive patterns
  (Def. 4.1) with vectorised coverage (Def. 4.2),
- :mod:`~repro.mining.apriori` — Apriori frequent grouping-pattern mining
  (Step 1 of FairCap, Sec. 5.1),
- :mod:`~repro.mining.lattice` — the intervention-pattern lattice with
  positive-effect pruning (Step 2 scaffolding, Sec. 5.2).

The Apriori names resolve on first access (PEP 562): they need numpy,
which matching a pattern against one row does not.  ``apriori`` names
both a submodule and the function it defines, so which of the two
``repro.mining.apriori`` is depends on what was imported first;
``repro.apriori`` and ``from repro.mining.apriori import apriori`` are
always the function.
"""

from repro._lazy import lazy_exports
from repro.mining.patterns import Operator, Predicate, Pattern
from repro.mining.lattice import LatticeNode, traverse_lattice

_LAZY = {
    name: "repro.mining.apriori"
    for name in ("AprioriResult", "FrequentPattern", "apriori")
}

__all__ = [
    "Operator",
    "Predicate",
    "Pattern",
    "AprioriResult",
    "FrequentPattern",
    "apriori",
    "LatticeNode",
    "traverse_lattice",
]

__getattr__, __dir__ = lazy_exports(__name__, _LAZY)
