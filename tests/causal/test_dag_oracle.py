"""The in-repo DAG kernel against networkx, the reference implementation.

networkx is a test dependency only: these tests build a ``nx.DiGraph`` from
the same arguments as a :class:`CausalDAG` and require every query to agree,
iteration orders included.  The backdoor test runs a networkx version of the
same greedy adjustment rule on every bundled DAG, every Table-6 builder DAG
and every scenario world.
"""

from __future__ import annotations

import ast
import pickle
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.causal.dag import CausalDAG
from repro.causal.dagbuilders import named_dag_variants
from repro.datasets.registry import available_datasets, load_dataset
from repro.rules.utility import RuleEvaluator
from repro.utils.errors import SchemaError

NAMES = ("age", "b", "Cx", "d2", "edu", "f", "G", "h_1", "i", "job", "k", "Z")


@st.composite
def dag_arguments(draw):
    """``(edges, nodes)`` for a random DAG of up to 12 nodes.

    Names are shuffled against the topological position, edges come in a
    shuffled order with some repeated, and ``nodes`` lists some endpoints
    plus isolated nodes.
    """
    names = draw(st.permutations(NAMES))
    n = draw(st.integers(1, 10))
    ranked, isolated = names[:n], names[n:n + draw(st.integers(0, 2))]
    edges = [
        (ranked[i], ranked[j])
        for i, j in combinations(range(n), 2)
        if draw(st.booleans())
    ]
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=3))
    edges = draw(st.permutations(edges))
    listed = draw(st.lists(st.sampled_from(ranked), unique=True, max_size=n))
    nodes = draw(st.permutations(list(isolated) + listed))
    return edges, nodes


def reference_graph(edges, nodes) -> nx.DiGraph:
    graph = nx.DiGraph()
    graph.add_nodes_from(nodes)
    graph.add_edges_from(edges)
    return graph


@settings(max_examples=150, deadline=None)
@given(dag_arguments())
def test_queries_match_networkx(arguments):
    edges, nodes = arguments
    dag = CausalDAG(edges, nodes=nodes)
    graph = reference_graph(edges, nodes)

    assert dag.nodes == tuple(graph.nodes)
    assert dag.edges == tuple(graph.edges)
    assert len(dag) == graph.number_of_nodes()
    assert dag.topological_order() == tuple(nx.lexicographical_topological_sort(graph))
    for v in graph:
        assert dag.parents(v) == tuple(sorted(graph.predecessors(v)))
        assert dag.children(v) == tuple(sorted(graph.successors(v)))
        assert dag.ancestors(v) == nx.ancestors(graph, v)
        assert dag.descendants(v) == nx.descendants(graph, v)
        assert isinstance(dag.ancestors(v), frozenset)
        for w in graph:
            assert dag.has_directed_path(v, w) == nx.has_path(graph, v, w)


@settings(max_examples=150, deadline=None)
@given(dag_arguments(), st.data())
def test_set_valued_d_separation_matches_networkx(arguments, data):
    edges, nodes = arguments
    dag = CausalDAG(edges, nodes=nodes)
    graph = reference_graph(edges, nodes)
    if len(graph) < 2:
        return
    for _ in range(10):
        order = data.draw(st.permutations(list(graph)))
        k = data.draw(st.integers(1, len(order) - 1))
        m = data.draw(st.integers(k + 1, len(order)))
        z_size = data.draw(st.integers(0, len(order) - m))
        xs, ys, zs = set(order[:k]), set(order[k:m]), set(order[m:m + z_size])
        assert dag.d_separated(xs, ys, zs) == nx.is_d_separator(graph, xs, ys, zs)


@settings(max_examples=100, deadline=None)
@given(dag_arguments(), st.data())
def test_cycles_are_rejected_and_named(arguments, data):
    edges, nodes = arguments
    graph = reference_graph(edges, nodes)
    reachable = [
        (u, v) for u in graph for v in nx.descendants(graph, u)
    ]
    if not reachable:
        return
    u, v = data.draw(st.sampled_from(reachable))
    closing = data.draw(st.integers(0, len(edges)))
    cyclic = list(edges)
    cyclic.insert(closing, (v, u))
    with pytest.raises(SchemaError, match="contains a cycle") as info:
        CausalDAG(cyclic, nodes=nodes)
    named = ast.literal_eval(str(info.value).split(": ", 1)[1])
    assert named and all(edge in set(cyclic) for edge in named)
    assert all(a[1] == b[0] for a, b in zip(named, named[1:] + named[:1]))


@settings(max_examples=50, deadline=None)
@given(dag_arguments())
def test_pickle_round_trip(arguments):
    edges, nodes = arguments
    dag = CausalDAG(edges, nodes=nodes)
    clone = pickle.loads(pickle.dumps(dag))
    assert clone == dag
    assert clone.nodes == dag.nodes
    assert clone.edges == dag.edges
    assert clone.topological_order() == dag.topological_order()
    for v in dag:
        assert clone.ancestors(v) == dag.ancestors(v)
        assert clone.descendants(v) == dag.descendants(v)
    state = dag.__getstate__()
    assert set(state) == {"names", "succ"}


def test_self_loop_and_cycle_messages():
    with pytest.raises(SchemaError, match="self-loop on 'a'"):
        CausalDAG([("b", "c"), ("a", "a")])
    with pytest.raises(SchemaError, match=r"cycle: \[\('a', 'b'\), \('b', 'a'\)\]"):
        CausalDAG([("a", "b"), ("b", "a")])


# -- backdoor adjustment sets on every registered DAG ------------------------


def reference_adjustment(graph: nx.DiGraph, treatments, outcome) -> tuple:
    """The greedy backdoor rule of ``repro.causal.backdoor`` on networkx.

    Start from the parents of the treatments; if that set fails the
    backdoor criterion, return it as is (the parents-union fallback);
    otherwise drop one variable at a time, smallest name first, while the
    remainder stays valid.
    """
    treat = set(treatments)
    cut = graph.copy()
    cut.remove_edges_from([(t, c) for t in treat for c in graph.successors(t)])
    forbidden = set().union(*(nx.descendants(graph, t) for t in treat))

    def valid(adjustment):
        return not set(adjustment) & forbidden and nx.is_d_separator(
            cut, treat, {outcome}, set(adjustment)
        )

    parents = set().union(*(graph.predecessors(t) for t in treat))
    current = sorted(parents - treat - {outcome})
    if not valid(current):
        return tuple(current)
    changed = True
    while changed:
        changed = False
        for node in sorted(current):
            reduced = [z for z in current if z != node]
            if valid(reduced):
                current, changed = reduced, True
                break
    return tuple(sorted(current))


def registered_dags():
    """(label, bundle, dag) for every dataset and, for the two bundled
    datasets, every Table-6 builder DAG too."""
    for name in available_datasets():
        bundle = load_dataset(name, n=40, rng=0)
        if name.startswith("scenario:"):
            yield name, bundle, bundle.dag
            continue
        for label, dag in named_dag_variants(bundle.schema, bundle.dag).items():
            yield f"{name}/{label}", bundle, dag


def test_adjustment_sets_match_networkx_reference():
    checked = 0
    for label, bundle, dag in registered_dags():
        outcome = bundle.schema.outcome_name
        evaluator = RuleEvaluator(bundle.table, outcome, dag, bundle.protected)
        graph = reference_graph(dag.edges, dag.nodes)
        columns = set(bundle.table.column_names)
        others = sorted(v for v in dag.nodes if v != outcome)
        for size in (1, 2):
            for treatments in combinations(others, size):
                expected = tuple(
                    z
                    for z in reference_adjustment(graph, treatments, outcome)
                    if z in columns
                )
                assert evaluator.adjustment_for(treatments) == expected, (
                    label, treatments,
                )
                checked += 1
    assert checked > 2_000
