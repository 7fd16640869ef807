"""Tests for the intervention-pattern lattice traversal (Sec. 5.2)."""

import pytest

from repro.mining.lattice import traverse_lattice
from repro.mining.patterns import Pattern, Predicate
from repro.utils.errors import PatternError


def items_for(*attr_values):
    return [Pattern([Predicate.eq(a, v)]) for a, v in attr_values]


def keep_all(level):
    return [(True, None)] * len(level)


def test_all_kept_explores_pairs():
    items = items_for(("a", 1), ("b", 2), ("c", 3))
    nodes = traverse_lattice(items, keep_all, max_level=2)
    level2 = [n for n in nodes if n.level == 2]
    assert len(level2) == 3  # ab, ac, bc


def test_callback_sees_whole_levels_in_generation_order():
    items = items_for(("a", 1), ("b", 2), ("c", 3))
    levels = []

    def evaluate_level(level):
        levels.append(list(level))
        return keep_all(level)

    nodes = traverse_lattice(items, evaluate_level, max_level=2)
    assert levels == [
        items,
        [
            Pattern.of(a=1, b=2),
            Pattern.of(a=1, c=3),
            Pattern.of(b=2, c=3),
        ],
    ]
    assert [n.pattern for n in nodes] == levels[0] + levels[1]


def test_same_attribute_items_never_combined():
    items = items_for(("a", 1), ("a", 2))
    nodes = traverse_lattice(items, keep_all, max_level=2)
    assert all(n.level == 1 for n in nodes)


def test_pruning_blocks_children():
    items = items_for(("a", 1), ("b", 2))

    def evaluate_level(level):
        return [(p.attributes != ("a",), None) for p in level]  # kill 'a'

    nodes = traverse_lattice(items, evaluate_level, max_level=2)
    assert all(n.level == 1 for n in nodes)  # 'ab' needs both parents kept


def test_all_parents_must_be_kept():
    items = items_for(("a", 1), ("b", 2), ("c", 3))

    def evaluate_level(level):
        # kill only the 'c' singleton
        return [(p != Pattern.of(c=3), None) for p in level]

    nodes = traverse_lattice(items, evaluate_level, max_level=2)
    level2_patterns = {n.pattern for n in nodes if n.level == 2}
    assert Pattern.of(a=1, b=2) in level2_patterns
    assert Pattern.of(a=1, c=3) not in level2_patterns
    assert Pattern.of(b=2, c=3) not in level2_patterns


def test_max_level_one():
    items = items_for(("a", 1), ("b", 2))
    nodes = traverse_lattice(items, keep_all, max_level=1)
    assert len(nodes) == 2


def test_level3_requires_all_level2_parents():
    items = items_for(("a", 1), ("b", 2), ("c", 3))

    def evaluate_level(level):
        # kill one level-2 node
        return [(p != Pattern.of(a=1, b=2), None) for p in level]

    nodes = traverse_lattice(items, evaluate_level, max_level=3)
    assert not any(n.level == 3 for n in nodes)


def test_level3_explored_when_possible():
    items = items_for(("a", 1), ("b", 2), ("c", 3))
    nodes = traverse_lattice(items, keep_all, max_level=3)
    level3 = [n for n in nodes if n.level == 3]
    assert len(level3) == 1
    assert level3[0].pattern == Pattern.of(a=1, b=2, c=3)


def test_payload_propagated():
    items = items_for(("a", 1),)
    nodes = traverse_lattice(
        items, lambda level: [(True, {"score": 7})] * len(level), max_level=1
    )
    assert nodes[0].payload == {"score": 7}


def test_multi_attribute_item_rejected():
    with pytest.raises(PatternError):
        traverse_lattice([Pattern.of(a=1, b=2)], keep_all)


@pytest.mark.parametrize("surplus", [-1, 1])
def test_wrong_length_answer_rejected(surplus):
    items = items_for(("a", 1), ("b", 2))
    with pytest.raises(PatternError, match="evaluations for 2 candidates"):
        traverse_lattice(
            items, lambda level: [(True, None)] * (len(level) + surplus)
        )


def test_pruned_nodes_still_reported():
    items = items_for(("a", 1), ("b", 2))
    nodes = traverse_lattice(
        items, lambda level: [(False, "dead")] * len(level), max_level=2
    )
    assert len(nodes) == 2
    assert all(not n.keep for n in nodes)
