"""Compiled rule index: match individuals against a ruleset without scanning.

Matching an individual naively costs one predicate evaluation per predicate
per rule.  The index compiles the ruleset once into per-attribute
*discrimination maps* so a lookup touches each attribute once:

- grouping predicates are deduplicated across rules (rules mined from the
  same Apriori item pool share most of their predicates), each distinct
  predicate getting an integer id;
- **categorical** attributes get a hash bucket per equality value
  (``value -> predicate ids``) plus a short inequality list;
- **numeric** attributes get a sorted threshold tuple per ordered operator,
  so the satisfied predicates are a ``bisect`` slice — ``O(log t)`` per
  attribute instead of ``O(t)``; a NaN threshold is never satisfied, as
  every ordered comparison with NaN is false;
- a rule matches iff *all* its predicates are satisfied, checked by counting
  satisfied predicate ids against the rule's requirement count (rules with
  an empty grouping pattern require nothing and always match).

The single-individual path (:meth:`CompiledRuleIndex.match_indices`, the
one ``repro serve`` runs) is plain Python over tuples and needs no numpy.
The batch path (:meth:`CompiledRuleIndex.match_table`) evaluates each
distinct predicate once as a vectorized column mask and accumulates the same
counts over all rows at once; it and the boolean-vector forms import numpy
when called.

:func:`naive_match_row` / :func:`naive_match_table` are the reference
implementations the tests and benchmark compare against.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from itertools import compress
from operator import eq
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.mining.patterns import Operator, Predicate
from repro.rules.rule import PrescriptionRule
from repro.utils.errors import PatternError, ServeError

if TYPE_CHECKING:  # pragma: no cover - serving matches without numpy
    import numpy as np

    from repro.tabular.table import Table

_ORDERED_OPS = (Operator.LT, Operator.GT, Operator.LE, Operator.GE)


def _is_numeric_value(value: object) -> bool:
    if isinstance(value, (bool, int, float)):
        return True
    # A numpy scalar can only exist once numpy is loaded.
    np = sys.modules.get("numpy")
    return np is not None and isinstance(value, (np.integer, np.floating))


class _NumericPlan:
    """Discrimination maps for one numeric attribute.

    Ordered operators keep parallel (thresholds, predicate ids) tuples
    sorted by threshold; a lookup takes the ``bisect`` slice of satisfied
    ids.  Equality/inequality use a float-keyed bucket and a short list.
    """

    def __init__(self) -> None:
        self._pairs: dict[Operator, list[tuple[float, int]]] = {
            op: [] for op in _ORDERED_OPS
        }
        self.eq_buckets: dict[float, list[int]] = {}
        self.ne_pairs: list[tuple[float, int]] = []
        # Built by freeze(): (thresholds, pred ids) per ordered operator.
        self._sorted: dict[Operator, tuple[tuple[float, ...], tuple[int, ...]]] = {}

    def add(self, operator: Operator, value: object, pred_id: int) -> None:
        threshold = float(value)  # type: ignore[arg-type]
        if operator is Operator.EQ:
            self.eq_buckets.setdefault(threshold, []).append(pred_id)
        elif operator is Operator.NE:
            self.ne_pairs.append((threshold, pred_id))
        elif threshold == threshold:  # x < NaN etc. is never true: drop it
            self._pairs[operator].append((threshold, pred_id))

    def freeze(self) -> None:
        for op, pairs in self._pairs.items():
            pairs.sort()
            self._sorted[op] = (
                tuple(t for t, __ in pairs), tuple(p for __, p in pairs)
            )

    def satisfied(self, value: object, out: list[int]) -> None:
        """Append the ids of predicates this attribute value satisfies.

        Only a number compares: a string such as ``"35"`` raises
        ``TypeError`` instead of matching as the number it spells, as the
        reference scan (:func:`naive_match_row`) raises on it.
        """
        if not _is_numeric_value(value):
            raise TypeError(f"not a number: {value!r}")
        x = float(value)  # type: ignore[arg-type]
        if x != x:  # NaN: every comparison is False except !=
            out.extend(pred_id for __, pred_id in self.ne_pairs)
            return
        out.extend(self.eq_buckets.get(x, ()))
        for threshold, pred_id in self.ne_pairs:
            if x != threshold:
                out.append(pred_id)
        # x < t  <=>  t > x: thresholds strictly right of x.
        thresholds, ids = self._sorted[Operator.LT]
        out.extend(ids[bisect_right(thresholds, x):])
        # x <= t <=>  t >= x.
        thresholds, ids = self._sorted[Operator.LE]
        out.extend(ids[bisect_left(thresholds, x):])
        # x > t  <=>  t < x: thresholds strictly left of x.
        thresholds, ids = self._sorted[Operator.GT]
        out.extend(ids[: bisect_left(thresholds, x)])
        # x >= t <=>  t <= x.
        thresholds, ids = self._sorted[Operator.GE]
        out.extend(ids[: bisect_right(thresholds, x)])


class _CategoricalPlan:
    """Discrimination maps for one categorical attribute."""

    def __init__(self) -> None:
        self.eq_buckets: dict[object, list[int]] = {}
        self.ne_pairs: list[tuple[object, int]] = []

    def add(self, operator: Operator, value: object, pred_id: int) -> None:
        if operator is Operator.EQ:
            self.eq_buckets.setdefault(value, []).append(pred_id)
        elif operator is Operator.NE:
            self.ne_pairs.append((value, pred_id))
        else:  # pragma: no cover - rejected at build time
            raise PatternError(
                f"ordered operator {operator.value!r} on categorical attribute"
            )

    def freeze(self) -> None:
        pass

    def satisfied(self, value: object, out: list[int]) -> None:
        """Append the ids of predicates this attribute value satisfies."""
        out.extend(self.eq_buckets.get(value, ()))
        for other, pred_id in self.ne_pairs:
            if value != other:
                out.append(pred_id)


class CompiledRuleIndex:
    """An immutable matching index over the grouping patterns of a ruleset.

    Parameters
    ----------
    rules:
        The prescription rules to index; rule order is preserved, and
        match results (rule indices, or boolean arrays) are aligned with it.
    numeric_attributes:
        Attributes to treat as numeric.  When omitted, an attribute is
        numeric iff every predicate value on it is a number — pass the
        schema's continuous attributes to override (e.g. a numeric
        attribute only ever compared by equality).
    """

    def __init__(
        self,
        rules: Sequence[PrescriptionRule],
        numeric_attributes: Iterable[str] | None = None,
    ) -> None:
        self.rules: tuple[PrescriptionRule, ...] = tuple(rules)
        forced_numeric = set(numeric_attributes or ())

        pred_ids: dict[Predicate, int] = {}
        rule_pred_lists: list[list[int]] = []
        for rule in self.rules:
            ids: list[int] = []
            for pred in rule.grouping:
                pred_id = pred_ids.get(pred)
                if pred_id is None:
                    pred_id = len(pred_ids)
                    pred_ids[pred] = pred_id
                ids.append(pred_id)
            rule_pred_lists.append(ids)

        self._predicates: tuple[Predicate, ...] = tuple(pred_ids)
        self._required: tuple[int, ...] = tuple(len(ids) for ids in rule_pred_lists)
        # predicate id -> indices of the rules containing it.
        containing: list[list[int]] = [[] for __ in self._predicates]
        for rule_index, ids in enumerate(rule_pred_lists):
            for pred_id in ids:
                containing[pred_id].append(rule_index)
        self._pred_rules: tuple[tuple[int, ...], ...] = tuple(
            tuple(rule_indices) for rule_indices in containing
        )

        self._plans: dict[str, _NumericPlan | _CategoricalPlan] = {}
        by_attribute: dict[str, list[tuple[Predicate, int]]] = {}
        for pred, pred_id in pred_ids.items():
            by_attribute.setdefault(pred.attribute, []).append((pred, pred_id))
        for attribute, entries in by_attribute.items():
            numeric = attribute in forced_numeric or all(
                _is_numeric_value(pred.value) for pred, __ in entries
            )
            ordered = [p for p, __ in entries if p.operator in _ORDERED_OPS]
            if ordered and not numeric:
                raise ServeError(
                    f"attribute {attribute!r} mixes ordered comparisons with "
                    "non-numeric values; cannot compile a discrimination map"
                )
            plan: _NumericPlan | _CategoricalPlan = (
                _NumericPlan() if numeric else _CategoricalPlan()
            )
            for pred, pred_id in entries:
                plan.add(pred.operator, pred.value, pred_id)
            plan.freeze()
            self._plans[attribute] = plan

    def __len__(self) -> int:
        return len(self.rules)

    @property
    def n_predicates(self) -> int:
        """Number of distinct grouping predicates across all rules."""
        return len(self._predicates)

    @property
    def attributes(self) -> tuple[str, ...]:
        """Attributes referenced by any grouping pattern, sorted."""
        return tuple(sorted(self._plans))

    def missing_attributes(self, row: Mapping[str, object]) -> tuple[str, ...]:
        """Indexed attributes absent from ``row`` (sorted)."""
        return tuple(sorted(a for a in self._plans if a not in row))

    # -- matching ---------------------------------------------------------------

    def match_indices(self, row: Mapping[str, object]) -> tuple[int, ...]:
        """Indices of the rules matching ``row``, in rule order.

        Every indexed attribute must be present in ``row``; a
        :class:`~repro.utils.errors.ServeError` names the missing ones.
        """
        missing = self.missing_attributes(row)
        if missing:
            raise ServeError(f"individual is missing attributes: {list(missing)}")
        satisfied: list[int] = []
        for attribute, plan in self._plans.items():
            value = row[attribute]
            try:
                plan.satisfied(value, satisfied)
            except (TypeError, ValueError):
                raise ServeError(
                    f"attribute {attribute!r}: cannot compare value {value!r}"
                ) from None
        counts = [0] * len(self.rules)
        pred_rules = self._pred_rules
        for pred_id in satisfied:
            for rule_index in pred_rules[pred_id]:
                counts[rule_index] += 1
        return tuple(compress(range(len(counts)), map(eq, counts, self._required)))

    def match_row(self, row: Mapping[str, object]) -> np.ndarray:
        """Boolean match vector (one entry per rule) for one individual."""
        import numpy as np

        matched = np.zeros(len(self.rules), dtype=bool)
        matched[list(self.match_indices(row))] = True
        return matched

    def match_table(self, table: Table) -> np.ndarray:
        """Boolean match matrix of shape ``(n_rules, n_rows)``.

        Each distinct predicate is evaluated once as a vectorized column
        mask and its contribution accumulated into all containing rules.
        """
        import numpy as np

        counts = np.zeros((len(self.rules), table.n_rows), dtype=np.int16)
        for pred, rule_indices in zip(self._predicates, self._pred_rules):
            counts[list(rule_indices)] += pred.mask(table).astype(np.int16)
        return counts == np.array(self._required, dtype=np.int16)[:, None]


# -- naive references ------------------------------------------------------------


def naive_match_row(
    rules: Sequence[PrescriptionRule], row: Mapping[str, object]
) -> np.ndarray:
    """Per-rule predicate scan over one individual (reference semantics)."""
    import numpy as np

    return np.array([rule.grouping.matches_row(row) for rule in rules], dtype=bool)


def naive_match_table(rules: Sequence[PrescriptionRule], table: Table) -> np.ndarray:
    """Per-rule full-mask evaluation over a table (reference semantics)."""
    import numpy as np

    if not rules:
        return np.zeros((0, table.n_rows), dtype=bool)
    return np.stack([rule.grouping.mask(table) for rule in rules])
