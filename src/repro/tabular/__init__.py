"""Columnar single-relation table substrate (S1).

The paper's implementation sits on pandas; this subpackage provides the small
columnar-table layer that FairCap actually needs, backed by numpy:

- :class:`~repro.tabular.column.CategoricalColumn` — integer-coded categorical
  columns with vectorised comparisons,
- :class:`~repro.tabular.column.NumericColumn` — float columns,
- :class:`~repro.tabular.schema.Schema` — attribute kinds (categorical /
  continuous) and prescription roles (immutable / mutable / outcome),
- :class:`~repro.tabular.table.Table` — an immutable bag of equal-length
  columns with filtering, selection and sampling,
- :mod:`~repro.tabular.io` — CSV round-tripping.

The numpy-backed names (columns, :class:`Table`, CSV I/O) resolve on
first access (PEP 562); the schema alone loads without numpy.
"""

from repro._lazy import lazy_exports
from repro.tabular.schema import AttributeKind, AttributeRole, AttributeSpec, Schema

#: Export -> the numpy-backed submodule it is re-exported from.
_LAZY = {
    name: module
    for module, names in (
        ("repro.tabular.column", (
            "CategoricalColumn", "Column", "NumericColumn", "column_from_values",
        )),
        ("repro.tabular.table", ("Table",)),
        ("repro.tabular.io", ("read_csv", "write_csv")),
    )
    for name in names
}

__all__ = [
    "CategoricalColumn",
    "NumericColumn",
    "Column",
    "column_from_values",
    "AttributeKind",
    "AttributeRole",
    "AttributeSpec",
    "Schema",
    "Table",
    "read_csv",
    "write_csv",
]

__getattr__, __dir__ = lazy_exports(__name__, _LAZY)
