"""Tests for Step 2 (intervention mining with benefit selection)."""

import pytest

from repro.core.config import FairCapConfig
from repro.core.intervention import (
    intervention_items,
    mine_intervention,
    mine_interventions_for_groups,
)
from repro.core.variants import canonical_variants
from repro.mining.patterns import Pattern
from repro.rules.protected import ProtectedGroup
from repro.rules.utility import RuleEvaluator
from repro.utils.errors import ConfigError

from tests.conftest import build_toy_dag, build_toy_table


@pytest.fixture(scope="module")
def setup():
    table = build_toy_table(n=2000, seed=6)
    dag = build_toy_dag()
    protected = ProtectedGroup(Pattern.of(Gender="Female"))
    evaluator = RuleEvaluator(table, "Income", dag, protected)
    return table, dag, protected, evaluator


def test_items_over_mutable_attributes(setup):
    table, dag, __, ___ = setup
    items = intervention_items(table, table.schema, dag, FairCapConfig())
    assert items
    for item in items:
        assert item.is_over(table.schema.mutable_names)


def test_non_causal_attributes_pruned(setup):
    table, __, ___, ____ = setup
    from repro.causal.dag import CausalDAG

    # A DAG where Training does NOT reach Income.
    dag = CausalDAG(
        edges=[("City", "Income"), ("Gender", "Income")],
        nodes=["Training"],
    )
    items = intervention_items(table, table.schema, dag, FairCapConfig())
    assert items == []
    # With pruning disabled the items come back.
    items = intervention_items(
        table, table.schema, dag, FairCapConfig(prune_non_causal=False)
    )
    assert items


def test_unknown_intervention_attribute_rejected(setup):
    table, dag, __, ___ = setup
    config = FairCapConfig(intervention_attributes=("Ghost",))
    with pytest.raises(ConfigError):
        intervention_items(table, table.schema, dag, config)


def test_best_treatment_positive_utility(setup):
    table, dag, __, evaluator = setup
    items = intervention_items(table, table.schema, dag, FairCapConfig())
    result = mine_intervention(
        evaluator.context(Pattern.empty()), items, FairCapConfig()
    )
    assert result.best is not None
    assert result.best.utility > 0
    # Training=Yes is the only real lever in the toy SCM.
    assert result.best.intervention == Pattern.of(Training="Yes")


def test_negative_treatments_pruned(setup):
    table, dag, __, evaluator = setup
    items = intervention_items(table, table.schema, dag, FairCapConfig())
    result = mine_intervention(
        evaluator.context(Pattern.empty()), items, FairCapConfig()
    )
    for rule in result.candidates:
        assert rule.utility > 0


def test_individual_fairness_filters(setup):
    table, dag, __, evaluator = setup
    items = intervention_items(table, table.schema, dag, FairCapConfig())
    # Training gap is ~5000; epsilon=1000 should reject it.
    variants = canonical_variants("SP", 1_000.0, 0.0, 0.0)
    config = FairCapConfig(variant=variants["Individual fairness"])
    result = mine_intervention(evaluator.context(Pattern.empty()), items, config)
    assert result.best is None
    # Looser epsilon admits it again.
    variants = canonical_variants("SP", 10_000.0, 0.0, 0.0)
    config = FairCapConfig(variant=variants["Individual fairness"])
    result = mine_intervention(evaluator.context(Pattern.empty()), items, config)
    assert result.best is not None


def test_group_fairness_uses_benefit(setup):
    """Under group SP the selected treatment maximises benefit, not utility."""
    table, dag, __, evaluator = setup
    items = intervention_items(table, table.schema, dag, FairCapConfig())
    variants = canonical_variants("SP", 10_000.0, 0.0, 0.0)
    config = FairCapConfig(variant=variants["Group fairness"])
    result = mine_intervention(evaluator.context(Pattern.empty()), items, config)
    assert result.best is not None
    from repro.fairness.benefit import benefit

    best_benefit = benefit(result.best, config.variant.fairness)
    for rule in result.candidates:
        assert best_benefit >= benefit(rule, config.variant.fairness) - 1e-9


def test_one_rule_per_group(setup):
    table, dag, __, evaluator = setup
    items = intervention_items(table, table.schema, dag, FairCapConfig())
    from repro.mining.apriori import apriori

    groups = apriori(table, attributes=["Gender", "City"], min_support=0.2,
                     max_length=1)
    rules, nodes = mine_interventions_for_groups(
        evaluator, list(groups), items, FairCapConfig()
    )
    assert len(rules) <= len(list(groups))
    assert nodes > 0
    groupings = [rule.grouping for rule in rules]
    assert len(set(groupings)) == len(groupings)


def test_significance_filter(setup):
    table, dag, __, evaluator = setup
    items = intervention_items(table, table.schema, dag, FairCapConfig())
    strict = mine_intervention(
        evaluator.context(Pattern.empty()), items,
        FairCapConfig(significance_alpha=1e-30),
    )
    loose = mine_intervention(
        evaluator.context(Pattern.empty()), items,
        FairCapConfig(significance_alpha=None),
    )
    assert len(strict.candidates) <= len(loose.candidates)


def test_one_live_context_per_worker(monkeypatch):
    """Step 2 mines each grouping pattern to completion before the next.

    Every context pins its pattern's sub-tables, bitsets and level stacks,
    so when the loop builds its next context, nothing it built earlier may
    still be alive — the peak is one context, whatever the pattern count.
    """
    import gc
    import weakref

    from repro.core.faircap import FairCap
    from repro.datasets import load_german

    bundle = load_german(n=800, rng=3)
    config = FairCapConfig(max_grouping_size=1)
    build_context = RuleEvaluator.context
    built: list[weakref.ref] = []
    violations: list[str] = []

    def tracking(self, grouping):
        gc.collect()
        alive = sum(ref() is not None for ref in built)
        if alive:
            violations.append(f"{grouping}: {alive} earlier contexts alive")
        context = build_context(self, grouping)
        built.append(weakref.ref(context))
        return context

    monkeypatch.setattr(RuleEvaluator, "context", tracking)
    result = FairCap(config).run(
        bundle.table, bundle.schema, bundle.dag, bundle.protected
    )
    assert len(built) == len(result.grouping_patterns) >= 10
    assert not violations, "\n".join(violations[:5])


@pytest.mark.parametrize(
    "cache_size", [65_536, 0], ids=["serial-cached", "serial-uncached"]
)
def test_no_factorization_outlives_its_context(monkeypatch, cache_size):
    """A design factorization dies with the context whose sub-table it
    factorizes, with or without an estimation cache attached.

    Every factorization is tagged with the context it was built under.
    When the loop builds its next context, everything it factorized
    belongs to earlier contexts and must be garbage by then.
    """
    import gc
    import weakref

    from repro.causal import batch
    from repro.core.faircap import FairCap
    from repro.datasets import load_german

    bundle = load_german(n=800, rng=3)
    config = FairCapConfig(max_grouping_size=1, cache_size=cache_size)
    cache = config.make_cache()  # a run builds none of its own
    build_context = RuleEvaluator.context
    build = batch.build_rows_factorization
    contexts = 0  # contexts built so far
    built: list[tuple[int, weakref.ref]] = []
    violations: list[str] = []

    def tracking_context(self, grouping):
        nonlocal contexts
        gc.collect()
        alive = [context for context, ref in built if ref() is not None]
        if alive:
            violations.append(
                f"{grouping}: {len(alive)} factorizations of earlier "
                f"contexts {sorted(set(alive))} live"
            )
        contexts += 1
        return build_context(self, grouping)

    def tracking_build(table, outcome, adjustment=()):
        factorization = build(table, outcome, adjustment)
        built.append((contexts, weakref.ref(factorization)))
        return factorization

    monkeypatch.setattr(RuleEvaluator, "context", tracking_context)
    monkeypatch.setattr(batch, "build_rows_factorization", tracking_build)
    result = FairCap(config, cache=cache).run(
        bundle.table, bundle.schema, bundle.dag, bundle.protected
    )
    assert contexts == len(result.grouping_patterns) >= 10
    assert len(built) > len(result.grouping_patterns)
    assert not violations, "\n".join(violations[:5])
