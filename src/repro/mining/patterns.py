"""Predicates and conjunctive patterns (Definitions 4.1 and 4.2).

A predicate is ``attribute op value`` with
``op ∈ {=, ≠, <, >, ≤, ≥}``; a pattern is a conjunction of predicates.
Patterns evaluate to boolean row masks over a :class:`~repro.tabular.Table`,
so coverage is a single vectorised pass; they also match single row
dictionaries, which needs no numpy (the serving tier never loads it).

Patterns are immutable, hashable and canonically ordered (sorted by
attribute, operator, value text), so two patterns with the same predicates in
different construction order compare equal — which the Apriori and lattice
layers rely on for deduplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from repro.utils.errors import PatternError

if TYPE_CHECKING:  # pragma: no cover - row matching needs no numpy
    import numpy as np

    from repro.tabular.table import Table


class Operator(str, Enum):
    """The six comparison operators of Def. 4.1."""

    EQ = "="
    NE = "!="
    LT = "<"
    GT = ">"
    LE = "<="
    GE = ">="

    @classmethod
    def parse(cls, text: str) -> "Operator":
        """Parse an operator from its symbol (``'≠'``/``'≤'``/``'≥'`` accepted)."""
        aliases = {"==": "=", "≠": "!=", "≤": "<=", "≥": ">=", "<>": "!="}
        text = aliases.get(text, text)
        try:
            return cls(text)
        except ValueError:
            raise PatternError(f"unknown operator {text!r}") from None


_COLUMN_METHOD: dict[Operator, str] = {
    Operator.EQ: "eq",
    Operator.NE: "ne",
    Operator.LT: "lt",
    Operator.GT: "gt",
    Operator.LE: "le",
    Operator.GE: "ge",
}

_SCALAR_CHECK: dict[Operator, Callable[[object, object], bool]] = {
    Operator.EQ: lambda a, b: a == b,
    Operator.NE: lambda a, b: a != b,
    Operator.LT: lambda a, b: a < b,  # type: ignore[operator]
    Operator.GT: lambda a, b: a > b,  # type: ignore[operator]
    Operator.LE: lambda a, b: a <= b,  # type: ignore[operator]
    Operator.GE: lambda a, b: a >= b,  # type: ignore[operator]
}


@dataclass(frozen=True)
class Predicate:
    """A single comparison ``attribute op value``.

    Examples
    --------
    >>> Predicate("Country", Operator.EQ, "US")
    Predicate(Country = US)
    """

    attribute: str
    operator: Operator
    value: object

    def __post_init__(self) -> None:
        if not self.attribute:
            raise PatternError("predicate attribute must be non-empty")
        object.__setattr__(self, "operator", Operator.parse(str(self.operator.value))
                           if isinstance(self.operator, Operator)
                           else Operator.parse(str(self.operator)))

    @classmethod
    def eq(cls, attribute: str, value: object) -> "Predicate":
        """Shorthand for an equality predicate."""
        return cls(attribute, Operator.EQ, value)

    def mask(self, table: Table) -> np.ndarray:
        """Boolean mask of the rows of ``table`` satisfying the predicate."""
        if getattr(table, "is_sharded", False):
            # Out-of-core tables evaluate per shard and cache packed words
            # (bit-identical to the in-RAM evaluation; see
            # repro.datasets.sharded).
            return table.predicate_mask(self)
        column = table.column(self.attribute)
        method = getattr(column, _COLUMN_METHOD[self.operator])
        return method(self.value)

    def matches_row(self, row: dict[str, object]) -> bool:
        """Evaluate the predicate against a single row dictionary."""
        if self.attribute not in row:
            raise PatternError(f"row lacks attribute {self.attribute!r}")
        try:
            return _SCALAR_CHECK[self.operator](row[self.attribute], self.value)
        except TypeError as exc:
            raise PatternError(
                f"cannot compare {row[self.attribute]!r} {self.operator.value} "
                f"{self.value!r}: {exc}"
            ) from None

    def _sort_key(self) -> tuple[str, str, str]:
        return (self.attribute, self.operator.value, str(self.value))

    def __repr__(self) -> str:
        return f"Predicate({self.attribute} {self.operator.value} {self.value})"

    def __str__(self) -> str:
        return f"{self.attribute} {self.operator.value} {self.value}"


class Pattern:
    """A conjunction of predicates (Def. 4.1).

    The empty pattern is allowed and covers every row (it plays the role of
    "the entire data" when a baseline's IF clause is used as an intervention
    pattern, Sec. 7.1).

    Two predicates on the same attribute are allowed in general (e.g. a range
    ``x > 2 AND x < 9``) but contradictory equality predicates such as
    ``x = 1 AND x = 2`` are rejected early because their coverage is provably
    empty.
    """

    def __init__(self, predicates: Iterable[Predicate] = ()) -> None:
        ordered = sorted(predicates, key=Predicate._sort_key)
        deduped: list[Predicate] = []
        for pred in ordered:
            if not deduped or deduped[-1] != pred:
                deduped.append(pred)
        self.predicates: tuple[Predicate, ...] = tuple(deduped)
        self._check_consistency()

    def _check_consistency(self) -> None:
        eq_values: dict[str, object] = {}
        for pred in self.predicates:
            if pred.operator is Operator.EQ:
                if pred.attribute in eq_values and eq_values[pred.attribute] != pred.value:
                    raise PatternError(
                        f"contradictory equalities on {pred.attribute!r}: "
                        f"{eq_values[pred.attribute]!r} vs {pred.value!r}"
                    )
                eq_values[pred.attribute] = pred.value

    # -- constructors -----------------------------------------------------------

    @classmethod
    def of(cls, **equalities: object) -> "Pattern":
        """Build a pattern of equality predicates from keyword arguments.

        >>> Pattern.of(Country="US", Role="Designer").attributes
        ('Country', 'Role')
        """
        return cls(Predicate.eq(name, value) for name, value in equalities.items())

    @classmethod
    def empty(cls) -> "Pattern":
        """The empty conjunction (covers all rows)."""
        return cls(())

    # -- structure ------------------------------------------------------------

    @property
    def attributes(self) -> tuple[str, ...]:
        """Distinct attributes mentioned, sorted (memoised per instance)."""
        cached = self.__dict__.get("_attributes")
        if cached is None:
            cached = tuple(sorted({p.attribute for p in self.predicates}))
            self.__dict__["_attributes"] = cached
        return cached

    def is_empty(self) -> bool:
        """Whether this is the empty conjunction."""
        return not self.predicates

    def __len__(self) -> int:
        return len(self.predicates)

    def __iter__(self) -> Iterator[Predicate]:
        return iter(self.predicates)

    def conjoin(self, other: "Pattern | Predicate") -> "Pattern":
        """Return the conjunction of this pattern with ``other``."""
        if isinstance(other, Predicate):
            extra: tuple[Predicate, ...] = (other,)
        else:
            extra = other.predicates
        return Pattern(self.predicates + extra)

    def __and__(self, other: "Pattern | Predicate") -> "Pattern":
        return self.conjoin(other)

    def restricted_to(self, attributes: Iterable[str]) -> "Pattern":
        """Return the sub-pattern of predicates over the given attributes."""
        allowed = set(attributes)
        return Pattern(p for p in self.predicates if p.attribute in allowed)

    def is_over(self, attributes: Iterable[str]) -> bool:
        """Whether every predicate's attribute is in ``attributes``.

        Used to enforce Def. 4.3: grouping patterns over immutable attributes
        only, intervention patterns over mutable attributes only.
        """
        allowed = set(attributes)
        return all(p.attribute in allowed for p in self.predicates)

    def subsumes(self, other: "Pattern") -> bool:
        """Whether ``other`` contains every predicate of this pattern."""
        return set(self.predicates) <= set(other.predicates)

    # -- evaluation -------------------------------------------------------------

    def mask(self, table: Table) -> np.ndarray:
        """Boolean coverage mask over ``table`` (Def. 4.2).

        The empty pattern covers every row.
        """
        if getattr(table, "is_sharded", False):
            return table.pattern_mask(self)
        import numpy as np

        result = np.ones(table.n_rows, dtype=bool)
        for pred in self.predicates:
            result &= pred.mask(table)
            if not result.any():
                break
        return result

    def coverage(self, table: Table) -> int:
        """Number of covered rows, ``|Coverage(P)|``."""
        return int(self.mask(table).sum())

    def coverage_fraction(self, table: Table) -> float:
        """Covered fraction of the table (0 for an empty table)."""
        if table.n_rows == 0:
            return 0.0
        return self.coverage(table) / table.n_rows

    def matches_row(self, row: dict[str, object]) -> bool:
        """Evaluate the conjunction against a single row dictionary."""
        return all(p.matches_row(row) for p in self.predicates)

    # -- identity -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pattern):
            return NotImplemented
        return self.predicates == other.predicates

    def __hash__(self) -> int:
        return hash(self.predicates)

    def __repr__(self) -> str:
        if not self.predicates:
            return "Pattern(TRUE)"
        inner = " AND ".join(str(p) for p in self.predicates)
        return f"Pattern({inner})"

    def __str__(self) -> str:
        if not self.predicates:
            return "TRUE"
        return " AND ".join(str(p) for p in self.predicates)
