"""Protected groups (Sec. 4.1).

Following the paper, the protected subpopulation is defined by a pattern
``P_p`` (e.g. ``Ethnicity != White`` or ``GDP = low``); the rest of the data
is the non-protected group.  :class:`ProtectedGroup` wraps that pattern with
a display name and cached masks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.mining.patterns import Pattern
from repro.utils.errors import PatternError

if TYPE_CHECKING:  # pragma: no cover - serving never builds masks
    import numpy as np

    from repro.tabular.table import Table


class ProtectedGroup:
    """A named protected subpopulation defined by a pattern.

    Parameters
    ----------
    pattern:
        The defining pattern ``P_p`` (must be non-empty: an empty pattern
        would make *everyone* protected, which degenerates every fairness
        definition).
    name:
        Human-readable label used in reports (e.g. ``"low-GDP countries"``).
    """

    def __init__(self, pattern: Pattern, name: str = "protected") -> None:
        if pattern.is_empty():
            raise PatternError("protected group pattern must be non-empty")
        self.pattern = pattern
        self.name = name

    def mask(self, table: Table) -> np.ndarray:
        """Boolean membership mask over ``table``."""
        return self.pattern.mask(table)

    def size(self, table: Table) -> int:
        """Number of protected individuals, ``|P_p(D)|``."""
        return int(self.mask(table).sum())

    def fraction(self, table: Table) -> float:
        """Protected fraction of the table."""
        if table.n_rows == 0:
            return 0.0
        return self.size(table) / table.n_rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProtectedGroup):
            return NotImplemented
        return self.pattern == other.pattern and self.name == other.name

    def __hash__(self) -> int:
        return hash((self.pattern, self.name))

    def __repr__(self) -> str:
        return f"ProtectedGroup({self.name!r}: {self.pattern})"
