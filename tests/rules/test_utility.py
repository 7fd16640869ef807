"""Tests for RuleEvaluator: utilities recover the planted effects."""

import pytest

from repro.mining.patterns import Pattern
from repro.rules.utility import RuleEvaluator
from repro.utils.errors import EstimationError

from tests.conftest import build_toy_dag, build_toy_table


@pytest.fixture(scope="module")
def evaluator():
    from repro.mining.patterns import Pattern
    from repro.rules.protected import ProtectedGroup

    table = build_toy_table(n=3000, seed=2)
    return RuleEvaluator(
        table,
        "Income",
        build_toy_dag(),
        ProtectedGroup(Pattern.of(Gender="Female"), name="women"),
    )


def test_overall_effect_recovered(evaluator):
    rule = evaluator.evaluate(Pattern.empty(), Pattern.of(Training="Yes"))
    # Population effect = 0.6 * 10k + 0.4 * 5k = 8k.
    assert rule.utility == pytest.approx(8_000.0, rel=0.1)


def test_subgroup_utilities_split(evaluator):
    rule = evaluator.evaluate(Pattern.empty(), Pattern.of(Training="Yes"))
    assert rule.utility_protected == pytest.approx(5_000.0, rel=0.15)
    assert rule.utility_non_protected == pytest.approx(10_000.0, rel=0.15)


def test_grouping_restricts_population(evaluator):
    rule = evaluator.evaluate(
        Pattern.of(Gender="Female"), Pattern.of(Training="Yes")
    )
    assert rule.utility == pytest.approx(5_000.0, rel=0.15)
    # All covered tuples are protected.
    assert rule.protected_coverage_count == rule.coverage_count
    # Non-protected subgroup empty -> utility 0 by convention.
    assert rule.utility_non_protected == 0.0


def test_empty_coverage_utility_zero(evaluator):
    rule = evaluator.evaluate(
        Pattern.of(Gender="Nonexistent"), Pattern.of(Training="Yes")
    )
    assert rule.coverage_count == 0
    assert rule.utility == 0.0
    assert rule.utility_protected == 0.0


def test_adjustment_from_dag(evaluator):
    # Training's parent in the DAG is City.
    assert evaluator.adjustment_for(("Training",)) == ("City",)


def test_adjustment_cached(evaluator):
    first = evaluator.adjustment_for(("Training",))
    second = evaluator.adjustment_for(("Training",))
    assert first is second


def test_small_subgroup_zeroed():
    from repro.mining.patterns import Pattern
    from repro.rules.protected import ProtectedGroup

    table = build_toy_table(n=30, seed=3)
    evaluator = RuleEvaluator(
        table,
        "Income",
        build_toy_dag(),
        ProtectedGroup(Pattern.of(Gender="Female")),
        min_subgroup_size=100,
    )
    rule = evaluator.evaluate(Pattern.empty(), Pattern.of(Training="Yes"))
    assert rule.utility == 0.0


def test_empty_intervention_rejected(evaluator):
    with pytest.raises(EstimationError):
        evaluator.evaluate(Pattern.empty(), Pattern.empty())


def test_context_reuse_matches_direct(evaluator):
    context = evaluator.context(Pattern.of(City="Metro"))
    via_context = context.evaluate(Pattern.of(Training="Yes"))
    direct = evaluator.evaluate(Pattern.of(City="Metro"), Pattern.of(Training="Yes"))
    assert via_context == direct


def test_constant_adjustment_dropped():
    """Grouping on the confounder must not break the design matrix."""
    from repro.mining.patterns import Pattern
    from repro.rules.protected import ProtectedGroup

    table = build_toy_table(n=3000, seed=4)
    evaluator = RuleEvaluator(
        table, "Income", build_toy_dag(),
        ProtectedGroup(Pattern.of(Gender="Female")),
    )
    # City is the adjustment attribute AND fixed by the grouping pattern.
    rule = evaluator.evaluate(Pattern.of(City="Metro"), Pattern.of(Training="Yes"))
    assert rule.utility == pytest.approx(8_000.0, rel=0.15)


def _evaluator_on(dag, table=None):
    from repro.rules.protected import ProtectedGroup

    return RuleEvaluator(
        table if table is not None else build_toy_table(n=200, seed=5),
        "Income",
        dag,
        ProtectedGroup(Pattern.of(Gender="Female")),
    )


def test_adjustment_rejects_dag_without_outcome():
    """A DAG that lacks the outcome is an error, not a parents-union fallback."""
    from repro.causal.dag import CausalDAG

    evaluator = _evaluator_on(CausalDAG([("City", "Training"), ("Gender", "Training")]))
    with pytest.raises(EstimationError, match="outcome 'Income' not in causal DAG"):
        evaluator.adjustment_for(("Training",))


def test_adjustment_rejects_unknown_treatment(evaluator):
    with pytest.raises(EstimationError, match="treatment 'Ghost' not in causal DAG"):
        evaluator.adjustment_for(("Ghost", "Training"))


def test_adjustment_falls_back_to_parents_union():
    """Compound treatments without a strict backdoor set keep the fallback."""
    import numpy as np

    from repro.causal.dag import CausalDAG
    from repro.tabular.table import Table

    # Training -> City -> Gender with City -> Income: parents(Gender)
    # include City, a descendant of Training, so no strict set exists.
    dag = CausalDAG(
        edges=[
            ("Training", "City"), ("City", "Gender"), ("City", "Income"),
            ("Training", "Income"), ("Gender", "Income"),
        ]
    )
    rng = np.random.default_rng(0)
    table = Table(
        {
            "Training": rng.choice(["Yes", "No"], 50).tolist(),
            "City": rng.choice(["Metro", "Rural"], 50).tolist(),
            "Gender": rng.choice(["Female", "Male"], 50).tolist(),
            "Income": rng.normal(size=50),
        }
    )
    evaluator = _evaluator_on(dag, table)
    assert evaluator.adjustment_for(("Gender", "Training")) == ("City",)
