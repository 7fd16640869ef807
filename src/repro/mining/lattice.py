"""Top-down lattice traversal with parent-based pruning (Sec. 5.2).

Step 2 of FairCap searches the lattice of intervention patterns: nodes are
conjunctions of single-attribute items, and an edge connects ``P1`` to ``P2``
when ``P2`` adds one predicate to ``P1``.  The paper materialises a node only
when *all of its parents* passed the filter (there: positive CATE), arguing
that combining positive-effect treatments is likely to stay positive.

:func:`traverse_lattice` implements the traversal generically and drives one
lattice to completion, level by level: callers provide the items and an
``evaluate`` callback that decides, per pattern, whether the node is *kept*
(expandable) and attaches an arbitrary payload (e.g. a
:class:`~repro.causal.estimators.CateResult`) — or an ``evaluate_many``
callback that consumes a whole level at once (the batched FWL engine's
entry point).  The FairCap-specific scoring lives in
:mod:`repro.core.intervention`.
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
        Whatever ``evaluate`` attached (estimates, utilities, ...).
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
    evaluate: Callable[[Pattern], Evaluation] | None = None,
    max_level: int = 2,
    max_nodes: int | None = None,
    executor=None,
    evaluate_many: Callable[[list[Pattern]], list[Evaluation]] | None = None,
) -> list[LatticeNode]:
    """Materialise the lattice top-down with all-parents-kept pruning.

    Parameters
    ----------
    items:
        Single-attribute item patterns (the lattice's level-1 atoms).
    evaluate:
        Callback returning ``(keep, payload)`` for a candidate pattern.
        ``keep=False`` prunes the node's entire up-set from exploration
        (it is still reported in the result with ``keep=False``).
        May be omitted when ``evaluate_many`` is given.
    max_level:
        Deepest level to explore (the paper uses small treatments;
        level 2 is the default as in CauSumX).
    max_nodes:
        Optional hard cap on materialised nodes (safety valve for
        benchmarks); ``None`` = unlimited.
    executor:
        Optional *in-process* :class:`~repro.parallel.executors.Executor`
        (serial or thread) used to evaluate each level's candidate batch
        concurrently.  A level's candidates are fully determined by the
        previous levels' keeps, and within-level evaluations are mutually
        independent, so batching preserves the serial traversal exactly:
        nodes are appended in candidate-generation order regardless of
        completion order.  Process executors are ignored (silent serial
        fallback): ``evaluate`` is typically a closure, which cannot cross
        a process boundary — process-level parallelism belongs at the
        grouping-pattern fan-out (:mod:`repro.parallel.mining`).  Ignored
        when ``evaluate_many`` is given.
    evaluate_many:
        Batch variant of ``evaluate``: receives one whole level's candidate
        patterns and returns their evaluations in order.  Takes precedence
        over ``evaluate``/``executor`` — this is how the batched FWL
        estimation engine (:mod:`repro.causal.batch`) consumes a level in
        one GEMM instead of one OLS per candidate.  The traversal is
        unchanged: candidate generation, ordering, and pruning are
        identical to the per-pattern path.

    Returns
    -------
    list[LatticeNode]
        Every node that was materialised (kept or not), level by level.
    """
    if evaluate is None and evaluate_many is None:
        raise PatternError("traverse_lattice needs evaluate or evaluate_many")
    items = list(items)
    for item in items:
        if len(item.attributes) != 1:
            raise PatternError(
                f"lattice items must cover exactly one attribute, got {item}"
            )

    if executor is not None and getattr(executor, "kind", "serial") == "process":
        executor = None  # closures cannot cross a process boundary

    def evaluate_level(patterns: list[Pattern]) -> list[Evaluation]:
        if evaluate_many is not None:
            return evaluate_many(patterns)
        if executor is None or len(patterns) <= 1:
            return [evaluate(p) for p in patterns]
        return executor.map(evaluate, patterns)

    nodes: list[LatticeNode] = []
    kept_sets: set[frozenset[int]] = set()
    pending = [(frozenset((idx,)), item) for idx, item in enumerate(items)]
    level = 1
    while pending:
        # Hitting the node budget truncates this level and ends the walk.
        truncated = max_nodes is not None and len(pending) > max_nodes - len(nodes)
        if truncated:
            pending = pending[: max_nodes - len(nodes)]
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
        if truncated or level >= max_level:
            break
        pending = _next_level(items, kept_sets, kept_keys, level)
        level += 1
    return nodes
