"""Conditional-independence tests for causal discovery.

Two classical tests back the PC algorithm (:mod:`repro.causal.discovery`):

- **Fisher's z** on partial correlations for all-continuous triples
  ``(X, Y | Z)``, computed from the inverse of the correlation matrix;
- the **G² (log-likelihood ratio) test** on contingency tables for
  categorical data, summing the statistic over the cells of the conditioning
  set with matching degrees of freedom.

Mixed queries discretise the continuous columns into quantile bins and fall
back to G².  :class:`CITester` wraps a :class:`~repro.tabular.Table` and
dispatches to the right test per query.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from repro.tabular.column import CategoricalColumn, NumericColumn
from repro.tabular.table import Table
from repro.utils.errors import EstimationError


def fisher_z_test(
    data: np.ndarray, x: int, y: int, zs: tuple[int, ...] = ()
) -> float:
    """p-value of ``X ⊥⊥ Y | Z`` for jointly Gaussian-ish continuous data.

    Parameters
    ----------
    data:
        ``(n, p)`` float matrix.
    x, y:
        Column indices being tested.
    zs:
        Conditioning column indices.
    """
    n = data.shape[0]
    involved = (x, y, *zs)
    sub = data[:, involved]
    if n - len(zs) - 3 <= 0:
        return 1.0  # too few samples to reject anything
    corr = np.corrcoef(sub, rowvar=False)
    if corr.ndim == 0:  # single column edge case
        return 1.0
    try:
        precision = np.linalg.pinv(corr)
    except np.linalg.LinAlgError:  # pragma: no cover - pinv rarely fails
        return 1.0
    denominator = math.sqrt(abs(precision[0, 0] * precision[1, 1]))
    if denominator == 0:
        return 1.0
    partial = -precision[0, 1] / denominator
    partial = float(np.clip(partial, -0.999999, 0.999999))
    z_value = 0.5 * math.log((1 + partial) / (1 - partial))
    statistic = math.sqrt(n - len(zs) - 3) * abs(z_value)
    return float(2.0 * special.ndtr(-statistic))


def g_square_test(
    codes: np.ndarray,
    cardinalities: tuple[int, ...],
    x: int,
    y: int,
    zs: tuple[int, ...] = (),
) -> float:
    """p-value of the G² conditional-independence test on coded data.

    Parameters
    ----------
    codes:
        ``(n, p)`` integer matrix of category codes.
    cardinalities:
        Number of categories per column.
    x, y:
        Column indices being tested.
    zs:
        Conditioning column indices.
    """
    n = codes.shape[0]
    card_x, card_y = cardinalities[x], cardinalities[y]
    if card_x < 2 or card_y < 2:
        return 1.0  # a constant column is independent of everything

    if zs:
        # Combine conditioning columns into one stratum id.
        stratum = np.zeros(n, dtype=np.int64)
        for z in zs:
            stratum = stratum * cardinalities[z] + codes[:, z]
    else:
        stratum = np.zeros(n, dtype=np.int64)

    g_stat = 0.0
    dof = 0
    for value in np.unique(stratum):
        rows = stratum == value
        if not rows.any():
            continue
        table = np.zeros((card_x, card_y), dtype=np.float64)
        np.add.at(table, (codes[rows, x], codes[rows, y]), 1.0)
        row_sums = table.sum(axis=1, keepdims=True)
        col_sums = table.sum(axis=0, keepdims=True)
        total = table.sum()
        if total == 0:
            continue
        expected = row_sums @ col_sums / total
        observed = table
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = observed * np.log(observed / expected)
        g_stat += 2.0 * float(np.nansum(terms))
        nonzero_rows = int((row_sums > 0).sum())
        nonzero_cols = int((col_sums > 0).sum())
        dof += max(nonzero_rows - 1, 0) * max(nonzero_cols - 1, 0)
    if dof <= 0:
        return 1.0
    return float(special.chdtrc(dof, max(g_stat, 0.0)))


class CITester:
    """Conditional-independence oracle over a :class:`Table`.

    Dispatch: all-continuous queries use Fisher's z; anything involving a
    categorical column uses G² with continuous columns quantile-discretised
    into ``n_bins`` bins (computed once at construction).
    """

    def __init__(self, table: Table, n_bins: int = 4) -> None:
        if table.n_rows == 0:
            raise EstimationError("cannot test independence on an empty table")
        self.names: tuple[str, ...] = table.column_names
        self._index = {name: i for i, name in enumerate(self.names)}
        self._continuous: dict[str, np.ndarray] = {}
        codes_cols: list[np.ndarray] = []
        cardinalities: list[int] = []
        for name in self.names:
            column = table.column(name)
            if isinstance(column, NumericColumn):
                values = column.decode()
                self._continuous[name] = values
                edges = np.unique(
                    np.quantile(values, np.linspace(0, 1, n_bins + 1)[1:-1])
                )
                codes = np.searchsorted(edges, values, side="right")
                codes_cols.append(codes.astype(np.int64))
                cardinalities.append(len(edges) + 1)
            else:
                assert isinstance(column, CategoricalColumn)
                codes_cols.append(column.codes.astype(np.int64))
                cardinalities.append(len(column.categories))
        self._codes = np.column_stack(codes_cols)
        self._cardinalities = tuple(cardinalities)

    def _col(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise EstimationError(f"unknown attribute {name!r}") from None

    def p_value(self, x: str, y: str, zs: tuple[str, ...] = ()) -> float:
        """p-value of ``x ⊥⊥ y | zs`` (higher = more compatible with CI)."""
        involved = (x, y, *zs)
        if all(name in self._continuous for name in involved):
            data = np.column_stack([self._continuous[n] for n in involved])
            return fisher_z_test(data, 0, 1, tuple(range(2, len(involved))))
        return g_square_test(
            self._codes,
            self._cardinalities,
            self._col(x),
            self._col(y),
            tuple(self._col(z) for z in zs),
        )

    def independent(
        self, x: str, y: str, zs: tuple[str, ...] = (), alpha: float = 0.05
    ) -> bool:
        """Decision version: True iff the test fails to reject CI at ``alpha``."""
        return self.p_value(x, y, zs) > alpha
