"""Compiled index correctness: equivalence with the naive per-rule scan."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mining.patterns import Operator, Pattern, Predicate
from repro.rules.rule import PrescriptionRule
from repro.serve.index import (
    CompiledRuleIndex,
    naive_match_row,
    naive_match_table,
)
from repro.utils.errors import PatternError, ServeError
from repro.utils.rng import ensure_rng

from tests.serve.conftest import random_rules, random_row, random_table


def test_empty_grouping_matches_everyone(toy_ruleset):
    index = CompiledRuleIndex(toy_ruleset.rules)
    matched = index.match_row({"Country": "XX", "Age": 99.0})
    assert matched.tolist() == [False, False, True]


def test_numeric_interval_boundaries(toy_ruleset):
    index = CompiledRuleIndex(toy_ruleset.rules)
    # Rule 1 is 30 <= Age < 40.
    assert index.match_row({"Country": "DE", "Age": 30.0})[1]
    assert index.match_row({"Country": "DE", "Age": 39.999})[1]
    assert not index.match_row({"Country": "DE", "Age": 40.0})[1]
    assert not index.match_row({"Country": "DE", "Age": 29.999})[1]


def test_predicates_deduplicated_across_rules():
    shared = Predicate("Country", Operator.EQ, "US")
    rules = [
        PrescriptionRule(
            Pattern([shared]), Pattern.of(T="a"), 1.0, 1.0, 1.0, 10, 5
        ),
        PrescriptionRule(
            Pattern([shared, Predicate("Age", Operator.GT, 30.0)]),
            Pattern.of(T="b"), 2.0, 2.0, 2.0, 10, 5,
        ),
    ]
    index = CompiledRuleIndex(rules)
    assert index.n_predicates == 2  # not 3: the shared predicate counted once


def test_missing_attribute_is_reported(toy_ruleset):
    index = CompiledRuleIndex(toy_ruleset.rules)
    with pytest.raises(ServeError, match="missing attributes.*Age"):
        index.match_row({"Country": "US"})


def test_uncomparable_value_is_reported(toy_ruleset):
    index = CompiledRuleIndex(toy_ruleset.rules)
    with pytest.raises(ServeError, match="cannot compare"):
        index.match_row({"Country": "US", "Age": "not-a-number"})


#: One rule on a numeric attribute: ``Age >= 30.0``.
AGE_RULES = [
    PrescriptionRule(
        Pattern([Predicate("Age", Operator.GE, 30.0)]),
        Pattern.of(T="a"), 1.0, 1.0, 1.0, 10, 5,
    )
]


@pytest.mark.parametrize("value", ["35", " 3.5e1 ", "inf", None, [35.0]])
def test_numeric_attribute_takes_numbers_only(value):
    """A string that spells a number is rejected, as the reference scan
    rejects it, not matched as the number; so are null and a list."""
    row = {"Age": value}
    with pytest.raises(PatternError):
        naive_match_row(AGE_RULES, row)
    with pytest.raises(ServeError, match="cannot compare"):
        CompiledRuleIndex(AGE_RULES).match_indices(row)


@pytest.mark.parametrize(
    "value", [35, 35.0, True, np.int64(35), np.float32(35.0)],
    ids=["int", "float", "bool", "np.int64", "np.float32"],
)
def test_numbers_of_every_kind_match_like_the_reference(value):
    row = {"Age": value}
    np.testing.assert_array_equal(
        CompiledRuleIndex(AGE_RULES).match_row(row), naive_match_row(AGE_RULES, row)
    )


def test_ordered_predicate_on_non_numeric_values_rejected():
    rules = [
        PrescriptionRule(
            Pattern([Predicate("Country", Operator.LT, "US")]),
            Pattern.of(T="a"), 1.0, 1.0, 1.0, 10, 5,
        )
    ]
    with pytest.raises(ServeError, match="ordered comparisons"):
        CompiledRuleIndex(rules)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n_rules=st.integers(0, 15))
def test_match_row_equals_naive_scan_property(seed, n_rules):
    rng = ensure_rng(seed)
    rules = random_rules(rng, n_rules)
    index = CompiledRuleIndex(rules)
    for __ in range(20):
        row = random_row(rng)
        np.testing.assert_array_equal(
            index.match_row(row), naive_match_row(rules, row)
        )


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), n_rules=st.integers(0, 15))
def test_match_table_equals_naive_masks_property(seed, n_rules):
    rng = ensure_rng(seed)
    rules = random_rules(rng, n_rules)
    table = random_table(rng, 60)
    np.testing.assert_array_equal(
        CompiledRuleIndex(rules).match_table(table),
        naive_match_table(rules, table),
    )


def test_batch_and_scalar_paths_agree(serve_rng):
    rules = random_rules(serve_rng, 12)
    table = random_table(serve_rng, 250)
    index = CompiledRuleIndex(rules)
    batch = index.match_table(table)
    for i, row in enumerate(table.to_rows()):
        np.testing.assert_array_equal(index.match_row(row), batch[:, i])


def test_nan_value_matches_naive_semantics(toy_ruleset):
    """NaN compares False under every operator except != (naive parity)."""
    rules = list(toy_ruleset.rules) + [
        PrescriptionRule(
            Pattern([Predicate("Age", Operator.NE, 30.0)]),
            Pattern.of(T="c"), 1.0, 1.0, 1.0, 10, 5,
        )
    ]
    index = CompiledRuleIndex(rules)
    row = {"Country": "US", "Age": float("nan")}
    np.testing.assert_array_equal(index.match_row(row), naive_match_row(rules, row))
    assert not index.match_row(row)[1]  # the 30 <= Age < 40 rule must not fire
    assert index.match_row(row)[3]  # NaN != 30 is True


def test_nan_threshold_is_never_satisfied():
    """Every ordered comparison with a NaN threshold is False (naive parity)."""
    nan = float("nan")
    rules = [
        PrescriptionRule(
            Pattern([Predicate("Age", op, value)]), Pattern.of(T="a"),
            1.0, 1.0, 1.0, 10, 5,
        )
        for op, value in (
            (Operator.LT, nan), (Operator.GE, 30.0),
            (Operator.LE, nan), (Operator.GT, 10.0),
        )
    ]
    row = {"Age": 20.0}
    index = CompiledRuleIndex(rules)
    assert index.match_indices(row) == (3,)
    np.testing.assert_array_equal(index.match_row(row), naive_match_row(rules, row))


# Finite floats, signed zeros, infinities and NaN; the small pool makes
# values land exactly on thresholds (and on zeros of the other sign).
_SPECIAL = st.sampled_from(
    [0.0, -0.0, float("inf"), float("-inf"), float("nan"), 1.0, -1.0, 2.5]
)
_FLOATS = st.one_of(_SPECIAL, st.floats(allow_nan=True, allow_infinity=True))
_NUMERIC_PREDICATE = st.builds(
    Predicate, st.sampled_from(["x", "y"]), st.sampled_from(list(Operator)), _FLOATS
)


@settings(max_examples=300, deadline=None)
@given(
    groupings=st.lists(
        # One predicate per (attribute, operator): two equalities on one
        # attribute would be a contradictory pattern.
        st.lists(
            _NUMERIC_PREDICATE, max_size=4,
            unique_by=lambda p: (p.attribute, p.operator),
        ),
        max_size=8,
    ),
    rows=st.lists(st.fixed_dictionaries({"x": _FLOATS, "y": _FLOATS}), min_size=1),
)
def test_match_indices_equals_naive_scan_on_special_floats(groupings, rows):
    rules = [
        PrescriptionRule(Pattern(g), Pattern.of(T="a"), 1.0, 1.0, 1.0, 10, 5)
        for g in groupings
    ]
    index = CompiledRuleIndex(rules)
    for row in rows:
        expected = tuple(int(i) for i in np.flatnonzero(naive_match_row(rules, row)))
        assert index.match_indices(row) == expected, row


def test_index_equals_naive_scan_on_10k_individuals(serve_rng):
    """Acceptance: bit-identical matches on >= 10k random individuals."""
    rules = random_rules(serve_rng, 40)
    table = random_table(serve_rng, 10_000)
    np.testing.assert_array_equal(
        CompiledRuleIndex(rules).match_table(table),
        naive_match_table(rules, table),
    )
