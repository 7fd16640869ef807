"""Top-down lattice traversal with parent-based pruning (Sec. 5.2).

Step 2 of FairCap searches the lattice of intervention patterns: nodes are
conjunctions of single-attribute items, and an edge connects ``P1`` to ``P2``
when ``P2`` adds one predicate to ``P1``.  The paper materialises a node only
when *all of its parents* passed the filter (there: positive CATE), arguing
that combining positive-effect treatments is likely to stay positive.

:func:`traverse_lattice` implements the traversal generically and drives one
lattice to completion, level by level: callers provide the items and an
``evaluate_level`` callback that receives one whole level's candidates and
decides, per candidate, whether the node is *kept* (expandable) and attaches
an arbitrary payload (e.g. a :class:`~repro.causal.estimators.CateResult`).
The batched FWL engine consumes a level in one pass; the scalar reference
evaluates its candidates one at a time.  The FairCap-specific scoring lives
in :mod:`repro.core.intervention`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

from repro.mining.patterns import Pattern
from repro.utils.errors import PatternError

Evaluation = tuple[bool, object]
"""(keep, payload): keep=True lets the node's supersets be explored."""


@dataclass(frozen=True)
class LatticeNode:
    """A materialised lattice node.

    Attributes
    ----------
    pattern:
        The intervention pattern at this node.
    level:
        Number of items combined (1 = single predicate).
    keep:
        Whether the evaluation kept the node (e.g. positive CATE).
    payload:
        Whatever ``evaluate_level`` attached (estimates, utilities, ...).
    """

    pattern: Pattern
    level: int
    keep: bool
    payload: object


def _next_level(
    items: Sequence[Pattern],
    kept_sets: set[frozenset[int]],
    kept_keys: list[frozenset[int]],
    level: int,
) -> list[tuple[frozenset[int], Pattern]]:
    """Level ``level + 1``'s candidates from the keys kept at ``level``."""
    candidates: list[tuple[frozenset[int], Pattern]] = []
    seen: set[frozenset[int]] = set()
    ordered = sorted(kept_keys, key=lambda s: tuple(sorted(s)))
    for a_key, b_key in combinations(ordered, 2):
        union = a_key | b_key
        if len(union) != level + 1 or union in seen:
            continue
        seen.add(union)
        attrs = [items[i].attributes[0] for i in union]
        if len(set(attrs)) != len(attrs):
            continue
        # "Materialise only if all parents are kept": every level-k
        # subset must have been kept.
        if any(
            frozenset(sub) not in kept_sets
            for sub in combinations(sorted(union), level)
        ):
            continue
        pattern = Pattern([pred for i in sorted(union) for pred in items[i].predicates])
        candidates.append((union, pattern))
    return candidates


def traverse_lattice(
    items: Sequence[Pattern],
    evaluate_level: Callable[[list[Pattern]], list[Evaluation]],
    max_level: int = 2,
) -> list[LatticeNode]:
    """Materialise the lattice top-down with all-parents-kept pruning.

    Parameters
    ----------
    items:
        Single-attribute item patterns (the lattice's level-1 atoms).
    evaluate_level:
        Callback receiving one level's candidate patterns, in generation
        order, and returning one ``(keep, payload)`` per candidate, in the
        same order.  ``keep=False`` prunes the node's entire up-set from
        exploration (it is still reported in the result with
        ``keep=False``).  A level's candidates are fully determined by the
        previous levels' keeps, so how the callback evaluates them (one
        batch or one at a time) cannot change the traversal.
    max_level:
        Deepest level to explore (the paper uses small treatments;
        level 2 is the default as in CauSumX).

    Returns
    -------
    list[LatticeNode]
        Every node that was materialised (kept or not), level by level.
    """
    items = list(items)
    for item in items:
        if len(item.attributes) != 1:
            raise PatternError(
                f"lattice items must cover exactly one attribute, got {item}"
            )

    nodes: list[LatticeNode] = []
    kept_sets: set[frozenset[int]] = set()
    pending = [(frozenset((idx,)), item) for idx, item in enumerate(items)]
    level = 1
    while pending:
        evaluations = evaluate_level([pattern for _, pattern in pending])
        if len(evaluations) != len(pending):
            raise PatternError(
                f"{len(evaluations)} evaluations for {len(pending)} candidates"
            )
        kept_keys: list[frozenset[int]] = []
        for (key, pattern), (keep, payload) in zip(pending, evaluations):
            nodes.append(LatticeNode(pattern, level, keep, payload))
            if keep:
                kept_sets.add(key)
                kept_keys.append(key)
        if level >= max_level:
            break
        pending = _next_level(items, kept_sets, kept_keys, level)
        level += 1
    return nodes
