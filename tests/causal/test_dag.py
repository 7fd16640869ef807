"""Tests for repro.causal.dag."""

import pickle

import pytest

from repro.causal.dag import CausalDAG
from repro.utils.errors import SchemaError


@pytest.fixture
def chain():
    return CausalDAG(edges=[("a", "b"), ("b", "c")])


def test_cycle_rejected():
    with pytest.raises(SchemaError):
        CausalDAG(edges=[("a", "b"), ("b", "a")])


def test_self_loop_rejected():
    with pytest.raises(SchemaError):
        CausalDAG(edges=[("a", "a")])


def test_nodes_and_edges(chain):
    assert set(chain.nodes) == {"a", "b", "c"}
    assert set(chain.edges) == {("a", "b"), ("b", "c")}
    assert "a" in chain
    assert len(chain) == 3


def test_isolated_nodes():
    dag = CausalDAG(edges=[("a", "b")], nodes=["z"])
    assert "z" in dag
    assert dag.parents("z") == ()


def test_parents_children(chain):
    assert chain.parents("b") == ("a",)
    assert chain.children("b") == ("c",)
    assert chain.parents("a") == ()


def test_unknown_node_raises(chain):
    with pytest.raises(SchemaError):
        chain.parents("ghost")


def test_ancestors_descendants(chain):
    assert chain.ancestors("c") == {"a", "b"}
    assert chain.descendants("a") == {"b", "c"}
    assert chain.ancestors("a") == frozenset()


def test_topological_order(chain):
    order = chain.topological_order()
    assert order.index("a") < order.index("b") < order.index("c")


def test_has_directed_path(chain):
    assert chain.has_directed_path("a", "c")
    assert not chain.has_directed_path("c", "a")


def test_causally_relevant():
    dag = CausalDAG(edges=[("x", "o"), ("y", "x"), ("z", "q")], nodes=["o"])
    assert dag.causally_relevant("o") == {"x", "y"}


def test_without_outgoing_edges(chain):
    cut = chain.without_outgoing_edges(["b"])
    assert ("a", "b") in cut.edges
    assert ("b", "c") not in cut.edges
    assert set(cut.nodes) == set(chain.nodes)


def test_restricted_to(chain):
    sub = chain.restricted_to(["a", "b"])
    assert set(sub.nodes) == {"a", "b"}
    assert sub.edges == (("a", "b"),)
    with pytest.raises(SchemaError):
        chain.restricted_to(["ghost"])


def test_pickle_roundtrip(chain):
    clone = pickle.loads(pickle.dumps(chain))
    assert clone == chain
    assert clone.edges == chain.edges
    assert clone.descendants("a") == {"b", "c"}


def test_equality():
    a = CausalDAG(edges=[("x", "y")])
    b = CausalDAG(edges=[("x", "y")])
    assert a == b
    assert a != CausalDAG(edges=[("y", "x")])
