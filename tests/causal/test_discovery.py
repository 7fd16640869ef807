"""Tests for the PC causal-discovery algorithm."""

import numpy as np
import pytest

from repro.causal.discovery import pc_dag, pc_skeleton
from repro.experiments.settings import ExperimentSettings
from repro.tabular.table import Table
from repro.utils.rng import ensure_rng


def collider_table(n=6000, seed=0):
    """x -> c <- y with an extra child c -> d."""
    rng = ensure_rng(seed)
    x = rng.normal(size=n)
    y = rng.normal(size=n)
    c = x + y + 0.3 * rng.normal(size=n)
    d = c + 0.3 * rng.normal(size=n)
    return Table({"x": x, "y": y, "c": c, "d": d})


def chain_table(n=6000, seed=1):
    rng = ensure_rng(seed)
    a = rng.normal(size=n)
    b = a + 0.5 * rng.normal(size=n)
    c = b + 0.5 * rng.normal(size=n)
    return Table({"a": a, "b": b, "c": c})


def test_skeleton_recovers_chain():
    table = chain_table()
    skeleton, sepsets = pc_skeleton(table, alpha=0.01)
    assert "b" in skeleton["a"]
    assert "c" in skeleton["b"]
    assert "c" not in skeleton["a"]
    assert sepsets[frozenset(("a", "c"))] == ("b",)


def test_skeleton_recovers_collider_structure():
    table = collider_table()
    skeleton, __ = pc_skeleton(table, alpha=0.01)
    assert "c" in skeleton["x"]
    assert "c" in skeleton["y"]
    assert "y" not in skeleton["x"]


def test_v_structure_oriented():
    table = collider_table()
    dag = pc_dag(table, alpha=0.01)
    assert ("x", "c") in dag.edges
    assert ("y", "c") in dag.edges


def test_result_is_acyclic_dag():
    table = collider_table()
    dag = pc_dag(table, alpha=0.01)
    # CausalDAG construction enforces acyclicity; reaching here is the test.
    assert len(dag.nodes) == 4


def test_outcome_orientation_bias():
    # Independent features, all correlated with outcome only.
    rng = ensure_rng(2)
    n = 5000
    a = rng.normal(size=n)
    b = rng.normal(size=n)
    o = a + b + 0.5 * rng.normal(size=n)
    table = Table({"a": a, "b": b, "o": o})
    dag = pc_dag(table, outcome="o", alpha=0.01)
    for edge in dag.edges:
        if "o" in edge:
            assert edge[1] == "o"  # edges point INTO the outcome


def test_categorical_discovery():
    rng = ensure_rng(3)
    n = 6000
    z = rng.integers(0, 2, n)
    x = np.where(rng.random(n) < 0.85, z, 1 - z)
    y = np.where(rng.random(n) < 0.85, z, 1 - z)
    table = Table(
        {"z": [f"z{v}" for v in z], "x": [f"x{v}" for v in x],
         "y": [f"y{v}" for v in y]}
    )
    skeleton, __ = pc_skeleton(table, alpha=0.01)
    assert "z" in skeleton["x"]
    assert "z" in skeleton["y"]
    assert "y" not in skeleton["x"]


def test_max_cond_size_zero():
    table = chain_table()
    skeleton, __ = pc_skeleton(table, alpha=0.01, max_cond_size=0)
    # Without conditioning, a-c cannot be separated in a chain.
    assert "c" in skeleton["a"]


def test_skeleton_is_symmetric_adjacency():
    skeleton, __ = pc_skeleton(collider_table(), alpha=0.01)
    assert list(skeleton) == ["x", "y", "c", "d"]
    for x, neighbours in skeleton.items():
        for y in neighbours:
            assert x in skeleton[y]


#: ``pc_dag(...).edges`` on Table 6's PC input at the smoke-test scale
#: (1,200 rows, seed 3, a 600-row sample, alpha 0.01, conditioning sets of
#: size <= 1), as the networkx-based implementation returned them.
TABLE6_PC_EDGES = {
    "german": (
        ("Age", "Employment"), ("Age", "YearsInHousing"),
        ("Dependents", "PersonalStatus"), ("CheckingAccount", "CreditRisk"),
        ("CheckingAccount", "Job"), ("CreditAmount", "Duration"),
        ("CreditAmount", "Purpose"), ("Housing", "CreditRisk"),
        ("Property", "Housing"), ("OtherDebtors", "SavingsAccount"),
        ("Telephone", "Job"),
    ),
    "stackoverflow": (
        ("Age", "Education"), ("Age", "Dependents"), ("Age", "Student"),
        ("Age", "YearsCoding"), ("Country", "Salary"), ("Country", "Ethnicity"),
        ("Country", "GDP"), ("UndergradMajor", "Education"),
        ("UndergradMajor", "Salary"), ("HoursComputer", "Salary"),
        ("PrimaryLanguage", "Role"), ("CompanySize", "Salary"),
        ("Salary", "Education"), ("Salary", "Role"),
    ),
}


@pytest.mark.parametrize("dataset", sorted(TABLE6_PC_EDGES))
def test_table6_pc_dag_pinned(dataset):
    """The input ``run_table6(dataset, TINY, pc_sample_rows=600)`` builds."""
    settings = ExperimentSettings(so_n=1_200, german_n=1_200, seed=3)
    bundle = settings.load(dataset)
    sample = bundle.table.sample_fraction(
        600 / bundle.table.n_rows, rng=settings.seed
    )
    dag = pc_dag(sample, outcome=bundle.outcome, alpha=0.01, max_cond_size=1)
    assert dag.nodes == tuple(bundle.table.column_names)
    assert dag.edges == TABLE6_PC_EDGES[dataset]
