"""Robustness tests: PC must return a DAG even under noisy CI decisions.

With small samples and loose significance levels the v-structure phase can
emit conflicting orientations; ``_extend_to_dag`` must resolve them (by
dropping cycle-closing edges deterministically) instead of raising.

Mixed graphs are the insertion-ordered adjacency dicts of
:mod:`repro.causal.discovery` (``node -> {head: None}``); networkx checks
acyclicity as an independent reference.
"""

import networkx as nx
import pytest

from repro.causal.dag import CausalDAG
from repro.causal.discovery import _extend_to_dag, pc_dag
from repro.tabular.table import Table
from repro.utils.rng import ensure_rng


def mixed_graph(arcs):
    """A mixed graph holding exactly ``arcs`` (each a single-direction edge)."""
    mixed = {}
    for a, b in arcs:
        mixed.setdefault(a, {})[b] = None
        mixed.setdefault(b, {})
    return mixed


def test_extend_resolves_conflicting_orientations():
    """A pre-oriented 3-cycle (conflicting v-structures) must not crash."""
    # a -> b -> c -> a, each single-direction (as if "oriented").
    mixed = mixed_graph([("a", "b"), ("b", "c"), ("c", "a")])
    result = _extend_to_dag(mixed, outcome=None)
    assert nx.is_directed_acyclic_graph(nx.DiGraph(result.edges))
    # Deterministic: the lexicographically last edge is the one dropped.
    assert set(result.edges) == {("a", "b"), ("b", "c")}


def test_extend_keeps_consistent_orientations():
    mixed = mixed_graph([("a", "b"), ("b", "c")])
    result = _extend_to_dag(mixed, outcome=None)
    assert set(result.edges) == {("a", "b"), ("b", "c")}


def noisy_table(seed):
    rng = ensure_rng(seed)
    n = 300
    a = rng.integers(0, 3, n)
    b = (a + rng.integers(0, 2, n)) % 3
    c = (b + rng.integers(0, 2, n)) % 3
    d = (a + c + rng.integers(0, 2, n)) % 3
    return Table(
        {
            "a": [f"v{v}" for v in a],
            "b": [f"v{v}" for v in b],
            "c": [f"v{v}" for v in c],
            "d": [f"v{v}" for v in d],
        }
    )


#: ``pc_dag(noisy_table(seed), outcome="d", alpha=0.2, max_cond_size=2).edges``
#: as the networkx-based implementation returned them, order included.
NOISY_EDGES = {
    0: (("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")),
    1: (("b", "a"), ("b", "c"), ("d", "a"), ("d", "c")),
    2: (("a", "b"), ("c", "a"), ("c", "b"), ("d", "a"), ("d", "b")),
    3: (("a", "d"), ("a", "b"), ("b", "c"), ("c", "d")),
    4: (("a", "d"), ("a", "b"), ("b", "d"), ("b", "c"), ("c", "d")),
    5: (("a", "b"), ("b", "c"), ("c", "d")),
    6: (("a", "d"), ("a", "b"), ("b", "c"), ("c", "d")),
    7: (("a", "d"), ("a", "b"), ("b", "c"), ("c", "d")),
}


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
def test_pc_always_returns_dag_on_noisy_data(seed):
    """Small-sample, high-alpha PC runs must always produce a valid DAG."""
    dag = pc_dag(noisy_table(seed), outcome="d", alpha=0.2, max_cond_size=2)
    assert isinstance(dag, CausalDAG)  # construction validates acyclicity
    assert set(dag.nodes) == {"a", "b", "c", "d"}
    assert dag.edges == NOISY_EDGES[seed]
