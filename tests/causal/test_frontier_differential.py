"""Differential suite for the level engine and the fused row-major kernel.

Step 2 mines each grouping pattern's treatment lattice to completion, one
level — the traversal's frontier — at a time: a level's candidates are
composed from packed item bitsets, popcount-pruned, and estimated through
:func:`repro.causal.batch.estimate_level_rows`.  Contract:

- the row-major kernel agrees with the scalar
  :meth:`~repro.causal.estimators.LinearAdjustmentEstimator.estimate` to
  rtol 1e-9, and bit-for-bit on every fallback path (positivity, degenerate
  designs) — the scalar path defines those;
- the Gram factorization keeps a basis of ``col(W)`` chosen from exact
  counts instead of falling back: it deflates absent one-hot categories
  off its diagonal and drops one column of every categorical block whose
  reference level is absent (that block sums to the intercept), also when
  only the reduction brings the design within its row count;
- the level engine explores the same lattice as the scalar per-candidate
  reference — node for node, keep flag for keep flag — and serial ≡
  process(2) and cached ≡ uncached stay bit-identical;
- a grouping pattern's results never depend on which patterns were mined
  before it with the same evaluator (composition independence — the
  property that makes the serial ≡ process contract hold at any chunking);
- estimators without a batched path never enter the level engine.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from tests.conftest import build_toy_dag, build_toy_table
from repro.causal.batch import (
    DesignFactorization,
    GramFactorization,
    build_rows_factorization,
    estimate_level_rows,
)
from repro.causal.estimators import LinearAdjustmentEstimator
from repro.core.config import FairCapConfig
from repro.core.faircap import FairCap
from repro.core.intervention import intervention_items, mine_grouping
from repro.mining.patterns import Pattern
from repro.rules.protected import ProtectedGroup
from repro.rules.utility import GroupEvaluationContext, RuleEvaluator
from repro.tabular.table import Table
from repro.utils.errors import EstimationError

RTOL = 1e-9
ESTIMATOR = LinearAdjustmentEstimator()


def assert_results_close(got, want, exact: bool = False) -> None:
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.valid == w.valid
        assert g.reason == w.reason
        assert g.adjustment == w.adjustment
        assert (g.n, g.n_treated, g.n_control) == (w.n, w.n_treated, w.n_control)
        for field in ("estimate", "stderr", "p_value"):
            a, b = getattr(g, field), getattr(w, field)
            if isinstance(a, float) and math.isnan(a):
                assert math.isnan(b), field
            elif exact:
                assert a == b, field
            else:
                assert a == pytest.approx(b, rel=RTOL, abs=1e-12), field


def random_rows(rng, m: int, n: int) -> np.ndarray:
    """An ``(m, n)`` row-major stack of random treated masks."""
    return rng.random((m, n)) < rng.uniform(0.15, 0.6, size=(m, 1))


def scalar_reference(table, rows, outcome, adjustments) -> list:
    return [
        ESTIMATOR.estimate(table, row, outcome, adjustment)
        for row, adjustment in zip(rows, adjustments)
    ]


# -- fused kernel vs the scalar reference --------------------------------------


def test_rows_kernel_matches_reference(rng):
    """One level mixing adjustment sets, with both positivity failures."""
    table = build_toy_table(n=701, seed=3)
    rows = random_rows(rng, 18, 701)
    rows[0] = False  # positivity: empty treated
    rows[1] = True  # positivity: empty control
    adjustments = [("City",), ("City", "Gender"), ()] * 6
    got = estimate_level_rows(table, rows, "Income", adjustments)
    want = scalar_reference(table, rows, "Income", adjustments)
    assert_results_close(got, want)
    # The positivity rejections are the scalar spelling bit-for-bit.
    assert_results_close(got[:2], want[:2], exact=True)


def test_rows_kernel_shared_float_and_counts(rng):
    """Pre-converted float stacks and popcount counts change nothing."""
    table = build_toy_table(n=500, seed=5)
    rows = random_rows(rng, 7, 500)
    adjustments = [("City",)] * 7
    plain = estimate_level_rows(table, rows, "Income", adjustments)
    shared = estimate_level_rows(
        table,
        rows,
        "Income",
        adjustments,
        float_rows=rows.astype(np.float64),
        counts=rows.sum(axis=1),
    )
    assert_results_close(shared, plain, exact=True)


def test_rows_kernel_degenerate_design_exact(rng):
    """A design wider than its table: scalar fallback, bit-identical."""
    n = 12
    z = np.array([f"c{i}" for i in range(n)], dtype=object)  # n-1 dummies + 1
    table = Table({"z": z, "x": rng.normal(size=n), "y": rng.normal(size=n)})
    factorization = build_rows_factorization(table, "y", ("z", "x"))
    assert isinstance(factorization, DesignFactorization)
    assert factorization.degenerate
    rows = random_rows(rng, 5, n)
    adjustments = [("z", "x")] * 5
    got = estimate_level_rows(table, rows, "y", adjustments)
    want = scalar_reference(table, rows, "y", adjustments)
    assert_results_close(got, want, exact=True)


def test_gram_factorization_drops_absent_categories(rng):
    n = 400
    z = rng.choice(["a", "b", "c", "d"], size=n).astype(object)
    table = Table({"z": z, "y": rng.normal(size=n)})
    sub = table.filter(np.asarray(z != "c"))
    factorization = build_rows_factorization(sub, "y", ("z",))
    assert isinstance(factorization, GramFactorization)
    # Intercept + 2 surviving dummies: one-hot drops the first category
    # and the absent category's exactly-zero column deflates off the Gram
    # diagonal.
    assert factorization.rank == 3
    rows = random_rows(rng, 6, sub.n_rows)
    adjustments = [("z",)] * 6
    got = estimate_level_rows(sub, rows, "y", adjustments)
    assert_results_close(got, scalar_reference(sub, rows, "y", adjustments))


def _one_absent_reference(rng):
    """``z`` without its reference level ``a``: b, c, d sum to the intercept."""
    n = 400
    z = rng.choice(["a", "b", "c", "d"], size=n).astype(object)
    table = Table({"z": z, "y": rng.normal(size=n)})
    return table.filter(np.asarray(z != "a")), ("z",), 1 + (3 - 1)


def _two_absent_references(rng):
    """Both categoricals lack their reference level; ``z1`` also lacks ``c``."""
    n = 600
    z1 = rng.choice(list("abcde"), size=n).astype(object)
    z2 = rng.choice(list("pqr"), size=n).astype(object)
    table = Table(
        {"z1": z1, "z2": z2, "x": rng.normal(size=n), "y": rng.normal(size=n)}
    )
    keep = (z1 != "a") & (z1 != "c") & (z2 != "p")
    # z1 keeps b, d, e; z2 keeps q, r; x is continuous.
    return table.filter(keep), ("z1", "z2", "x"), 1 + (3 - 1) + (2 - 1) + 1


def _wide_before_reduction(rng):
    """16 rows against 17 design columns, of which 5 span ``col(W)``."""
    levels = [f"c{i:02d}" for i in range(16)]
    z = np.array(levels * 4, dtype=object)
    table = Table(
        {"z": z, "x": rng.normal(size=z.size), "y": rng.normal(size=z.size)}
    )
    sub = table.filter(np.isin(z, ["c03", "c05", "c07", "c11"]))
    assert 1 + (len(levels) - 1) + 1 > sub.n_rows
    return sub, ("z", "x"), 1 + (4 - 1) + 1


@pytest.mark.parametrize(
    "case",
    [_one_absent_reference, _two_absent_references, _wide_before_reduction],
    ids=["one-attribute", "two-attributes", "wide-before-reduction"],
)
def test_gram_factorization_drops_absent_reference_levels(rng, case):
    """A categorical block with no row at its dropped reference level sums
    to the intercept; the Gram route drops the block's first present column
    (col(W) is unchanged) instead of sending the design to the QR build and
    every column to the scalar fallback."""
    from repro.obs import telemetry_session

    sub, adjustment, rank = case(rng)
    with telemetry_session(enabled=True) as telemetry:
        factorization = build_rows_factorization(sub, "y", adjustment)
    routes = telemetry.registry.snapshot()["counters"][
        "estimation.factorizations"
    ]["values"]
    assert routes == {"route=gram_reduced": 1.0}
    assert isinstance(factorization, GramFactorization)
    assert factorization.rank == rank
    rows = random_rows(rng, 8, sub.n_rows)
    adjustments = [adjustment] * 8
    got = estimate_level_rows(sub, rows, "y", adjustments)
    assert_results_close(got, scalar_reference(sub, rows, "y", adjustments))


def test_rows_kernel_empty_and_shape_checks():
    table = build_toy_table(n=100, seed=1)
    assert estimate_level_rows(table, np.empty((0, 100), dtype=bool), "Income", []) == []
    with pytest.raises(EstimationError):
        estimate_level_rows(table, np.zeros((2, 99), dtype=bool), "Income", [(), ()])
    with pytest.raises(EstimationError):
        estimate_level_rows(table, np.zeros((2, 100), dtype=bool), "Income", [()])


# -- level-engine mining -------------------------------------------------------


def _toy_problem(n: int = 900, seed: int = 11):
    table = build_toy_table(n=n, seed=seed)
    protected = ProtectedGroup(Pattern.of(Gender="Female"), name="women")
    return table, build_toy_dag(), protected


def _mine(config, table, dag, protected):
    return FairCap(config).run(table, None, dag, protected)


def _assert_same_mining(got, want) -> None:
    """Bit-identical Step-2 output: every candidate and the selection."""
    assert got.nodes_evaluated == want.nodes_evaluated
    assert len(got.candidate_rules) == len(want.candidate_rules)
    for g, w in zip(got.candidate_rules, want.candidate_rules):
        assert g.grouping == w.grouping and g.intervention == w.intervention
        for field in ("utility", "utility_protected", "utility_non_protected"):
            assert getattr(g, field) == getattr(w, field), field
    assert got.ruleset.rules == want.ruleset.rules


#: German groupings whose treatment lattices reach level 2 and beyond.
GERMAN_GROUPINGS = [
    Pattern.of(PersonalStatus="male single"),
    Pattern.of(PersonalStatus="male divorced"),
    Pattern.of(ForeignWorker="No"),
    Pattern.of(Dependents="0-2"),
]


def _german_step2(config):
    from repro.datasets import load_german

    bundle = load_german(n=1_000, rng=3)
    evaluator = RuleEvaluator(
        bundle.table,
        bundle.schema.outcome_name,
        bundle.dag,
        bundle.protected,
        estimator=config.make_estimator(),
        min_subgroup_size=config.min_subgroup_size,
        cache=config.make_cache(),
    )
    items = intervention_items(bundle.table, bundle.schema, bundle.dag, config)
    return evaluator, items


def test_frontier_matches_scalar_reference():
    """Multi-level searches: same lattice, same kept nodes, close CATEs."""
    config = FairCapConfig(max_intervention_size=3)
    scalar_config = FairCapConfig(max_intervention_size=3, batch_estimation=False)
    evaluator, items = _german_step2(config)
    scalar_evaluator, _ = _german_step2(scalar_config)
    for grouping in GERMAN_GROUPINGS:
        got = mine_grouping(evaluator, grouping, items, config)
        want = mine_grouping(scalar_evaluator, grouping, items, scalar_config)
        assert got.nodes_evaluated == want.nodes_evaluated > len(items)
        assert [rule.intervention for rule in got.candidates] == [
            rule.intervention for rule in want.candidates
        ]
        # Kept candidates carry all three CATEs on both paths.
        for field in ("estimate", "estimate_protected", "estimate_non_protected"):
            got_results = [getattr(rule, field) for rule in got.candidates]
            want_results = [getattr(rule, field) for rule in want.candidates]
            assert [r is None for r in got_results] == [
                r is None for r in want_results
            ], field
            assert_results_close(
                [r for r in got_results if r is not None],
                [r for r in want_results if r is not None],
            )
        assert (got.best is None) == (want.best is None)
        if got.best is not None:
            assert got.best.intervention == want.best.intervention


def test_frontier_composition_independence():
    """Mining a pattern after others, with a shared cache, changes no bit."""
    config = FairCapConfig()
    shared, items = _german_step2(config)
    together = [mine_grouping(shared, g, items, config) for g in GERMAN_GROUPINGS]
    for grouping, a in zip(GERMAN_GROUPINGS, together):
        fresh, _ = _german_step2(config)
        b = mine_grouping(fresh, grouping, items, config)
        assert a.nodes_evaluated == b.nodes_evaluated
        assert len(a.candidates) == len(b.candidates)
        for x, y in zip(a.candidates, b.candidates):
            assert x.intervention == y.intervention
            assert x.utility == y.utility
            assert x.utility_protected == y.utility_protected
            assert x.utility_non_protected == y.utility_non_protected
        assert (a.best is None) == (b.best is None)


def test_frontier_serial_equals_process():
    problem = _toy_problem()
    serial = _mine(FairCapConfig(), *problem)
    process = _mine(FairCapConfig(executor="process", n_workers=2), *problem)
    _assert_same_mining(process, serial)


def test_frontier_without_cache_matches_cached():
    problem = _toy_problem(n=800, seed=23)
    cached = _mine(FairCapConfig(), *problem)
    uncached = _mine(FairCapConfig(cache_size=0), *problem)
    _assert_same_mining(uncached, cached)


def test_stratified_estimator_ignores_frontier_flags(monkeypatch):
    """The stratified estimator has no batched path: the level engine (and
    its ``batch_estimation`` flag) must never be reached."""

    def fail(self, interventions):
        raise AssertionError("stratified mining entered the level engine")

    monkeypatch.setattr(GroupEvaluationContext, "begin_level", fail)
    result = _mine(FairCapConfig(estimator="stratified"), *_toy_problem())
    assert result.nodes_evaluated > 0
