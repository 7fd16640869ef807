"""Differential suite for the packed-bitset mask kernel.

The bitset layer (:mod:`repro.mining.bitsets`) is only allowed to change
*latency*: packing must round-trip bit-for-bit, AND-composition must equal
per-candidate predicate re-evaluation exactly, popcounts must equal boolean
sums, and popcount-based support pruning must produce rules whose overall
estimate is field-identical to the scalar path's rejection of the same
candidates.
"""

from __future__ import annotations

import numpy as np
import pytest

from tests.conftest import build_toy_dag, build_toy_table
from repro.core.config import FairCapConfig
from repro.core.intervention import intervention_items, mine_intervention
from repro.mining.apriori import build_items
from repro.mining.bitsets import (
    pack_mask,
    pattern_bitset,
    popcount,
    popcount_rows,
    predicate_bitset,
    unpack_mask,
    unpack_rows,
)
from repro.mining.patterns import Pattern, Predicate
from repro.rules.protected import ProtectedGroup
from repro.rules.utility import GroupEvaluationContext, RuleEvaluator, keep_candidate
from repro.scenarios.catalog import load_scenario


# -- pack/unpack/popcount exactness ---------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 640, 1001])
def test_pack_roundtrip_exact(rng, n):
    for density in (0.0, 0.02, 0.5, 1.0):
        mask = rng.random(n) < density
        words = pack_mask(mask)
        assert words.dtype == np.uint64
        assert np.array_equal(unpack_mask(words, n), mask)
        assert popcount(words) == int(mask.sum())


def test_padding_bits_are_zero(rng):
    # AND with an all-true mask must not resurrect padding bits.
    mask = rng.random(70) < 0.9
    ones = pack_mask(np.ones(70, dtype=bool))
    assert popcount(pack_mask(mask) & ones) == int(mask.sum())


def test_and_composition_equals_boolean_and(rng):
    a = rng.random(517) < 0.4
    b = rng.random(517) < 0.6
    assert np.array_equal(pack_mask(a) & pack_mask(b), pack_mask(a & b))


def test_unpack_rows_matches_columns(rng):
    masks = rng.random((9, 130)) < 0.3
    words = np.stack([pack_mask(row) for row in masks])
    assert np.array_equal(unpack_rows(words, 130), masks)
    assert np.array_equal(popcount_rows(words), masks.sum(axis=1))
    assert np.array_equal(popcount_rows(words[:0]), np.zeros(0, dtype=np.int64))


# -- composed candidate masks ≡ per-candidate predicate evaluation -------------


def _assert_items_compose(table, items):
    for item in items:
        for predicate in item.predicates:
            assert np.array_equal(
                unpack_mask(predicate_bitset(table, predicate), table.n_rows),
                predicate.mask(table),
            )
    # Level-2 style conjunctions over item pairs, incl. range items with
    # two predicates per item.
    for a in items[: min(6, len(items))]:
        for b in items[: min(6, len(items))]:
            if set(a.attributes) & set(b.attributes):
                continue
            pattern = a & b
            composed = unpack_mask(pattern_bitset(table, pattern), table.n_rows)
            assert np.array_equal(composed, pattern.mask(table))


def test_composition_matches_pattern_mask_synth():
    table = build_toy_table(n=777, seed=3)
    items = build_items(table, table.column_names[:-1], continuous_bins=3)
    _assert_items_compose(table, items)


@pytest.mark.slow
@pytest.mark.parametrize("dataset_fixture", ["small_german_bundle", "small_so_bundle"])
def test_composition_matches_pattern_mask_datasets(request, dataset_fixture):
    bundle = request.getfixturevalue(dataset_fixture)
    items = build_items(
        bundle.table, bundle.schema.mutable_names, max_values_per_attribute=4
    )
    _assert_items_compose(bundle.table, items)


@pytest.mark.scenario
@pytest.mark.parametrize(
    "scenario", ["separated", "zero-effect", "single-stratum", "rare-protected"]
)
def test_composition_matches_on_degenerate_worlds(scenario):
    bundle = load_scenario(scenario, n=500)
    items = build_items(bundle.table, bundle.schema.mutable_names)
    _assert_items_compose(bundle.table, items)


def test_memoised_bitsets_ride_on_the_table(rng):
    table = build_toy_table(n=300, seed=5)
    predicate = Predicate.eq("City", "Metro")
    first = predicate_bitset(table, predicate)
    assert predicate_bitset(table, predicate) is first  # cached per instance
    sub = table.filter(np.asarray(rng.random(300) < 0.5))
    assert "_predicate_bitset_cache" not in sub.__dict__  # fresh object


# -- popcount pruning ≡ the scalar path's rejection -----------------------------


def _context_with_items(table, protected, dag, config):
    evaluator = RuleEvaluator(
        table,
        "Income",
        dag,
        protected,
        min_subgroup_size=config.min_subgroup_size,
        cache=config.make_cache(),
    )
    items = intervention_items(table, table.schema, dag, config)
    return evaluator, items


def _assert_overall_identical(got, want):
    """Every field of two overall CateResults, NaN-aware and exact."""
    assert got.valid == want.valid and got.reason == want.reason
    assert (got.n, got.n_treated, got.n_control) == (
        want.n,
        want.n_treated,
        want.n_control,
    )
    assert got.adjustment == want.adjustment
    for field in ("estimate", "stderr", "p_value"):
        a, b = getattr(got, field), getattr(want, field)
        assert a == b or (np.isnan(a) and np.isnan(b)), field


def _batched_and_scalar(evaluator, grouping, candidates, config):
    """One level through the batched engine and through the scalar path."""
    context = evaluator.context(grouping)
    work = context.begin_level(candidates)
    evaluator.estimate_requests(work.requests)
    evaluator.estimate_requests(work.followup(config.significance_alpha))
    batched = work.finish()
    scalar = [context.evaluate(candidate) for candidate in candidates]
    return batched, scalar, work.pruned


def test_pruning_equals_post_estimation_filtering(rng):
    """Zero/full-support candidates: synthesized rules ≡ scalar rejections.

    The batched engine prunes by popcount *before* any estimation; the
    scalar path estimates the same candidates and lets the positivity
    screen reject them.  Keep flags must agree everywhere, and a pruned
    rule's overall estimate must equal the scalar one field for field.
    """
    table = build_toy_table(n=600, seed=7)
    protected = ProtectedGroup(Pattern.of(Gender="Female"), name="women")
    dag = build_toy_dag()
    config = FairCapConfig()
    evaluator, items = _context_with_items(table, protected, dag, config)
    # Candidates: real items + provably empty and provably full patterns.
    candidates = list(items)
    candidates.append(Pattern.of(Training="no-such-value"))  # support 0
    full = Predicate("Training", "!=", "no-such-value")  # true on every row
    candidates.append(Pattern([full]))
    batched, scalar, pruned = _batched_and_scalar(
        evaluator, Pattern.of(City="Metro"), candidates, config
    )
    assert sorted(pruned) == [len(candidates) - 2, len(candidates) - 1]
    alpha = config.significance_alpha
    assert [keep for keep, _ in batched] == [
        keep_candidate(rule.estimate, alpha) for rule in scalar
    ]
    for j in pruned:
        rule = batched[j][1]
        assert rule.utility == 0.0
        assert rule.estimate.reason.startswith("positivity")
        assert rule.coverage_count == scalar[j].coverage_count
        _assert_overall_identical(rule.estimate, scalar[j].estimate)


def test_pruning_respects_min_subgroup_guard(rng):
    """Pruned candidates inside a too-small subgroup mirror the guard's reason."""
    table = build_toy_table(n=400, seed=9)
    protected = ProtectedGroup(Pattern.of(Gender="Female"), name="women")
    dag = build_toy_dag()
    config = FairCapConfig(min_subgroup_size=1_000)  # everything is too small
    evaluator, items = _context_with_items(table, protected, dag, config)
    candidates = [items[0], Pattern.of(Training="no-such-value")]
    batched, scalar, pruned = _batched_and_scalar(
        evaluator, Pattern.of(City="Metro"), candidates, config
    )
    assert list(pruned) == [1]
    for (keep, rule), want in zip(batched, scalar):
        assert not keep
        _assert_overall_identical(rule.estimate, want.estimate)
    assert batched[1][1].estimate.reason.startswith("subgroup smaller")


def test_mine_intervention_bitsets_bit_identical(monkeypatch):
    """Full Step-2 searches: every treated stack the engine composes from
    bitsets equals predicate re-evaluation bit for bit, and every pruned
    candidate really has zero or full support."""
    from repro.datasets import load_german

    bundle = load_german(n=1_000, rng=3)
    config = FairCapConfig()
    evaluator = RuleEvaluator(
        bundle.table,
        bundle.schema.outcome_name,
        bundle.dag,
        bundle.protected,
        min_subgroup_size=config.min_subgroup_size,
        cache=config.make_cache(),
    )
    items = intervention_items(bundle.table, bundle.schema, bundle.dag, config)
    begin_level = GroupEvaluationContext.begin_level
    levels = []

    def recording(self, interventions):
        work = begin_level(self, interventions)
        levels.append((self, work))
        return work

    monkeypatch.setattr(GroupEvaluationContext, "begin_level", recording)
    for grouping in (
        Pattern.of(PersonalStatus="male single"),
        Pattern.of(ForeignWorker="No"),
    ):
        mine_intervention(evaluator.context(grouping), items, config)
    assert {len(work.interventions[0].attributes) for _, work in levels} == {1, 2}
    for context, work in levels:
        n = context.subtable.n_rows
        survivors = [
            intervention
            for j, intervention in enumerate(work.interventions)
            if j not in work.pruned
        ]
        if survivors:
            want = np.stack([p.mask(context.subtable) for p in survivors])
            assert np.array_equal(work._treated_rows, want)
        for j in work.pruned:
            assert int(work.interventions[j].mask(context.subtable).sum()) in (0, n)
