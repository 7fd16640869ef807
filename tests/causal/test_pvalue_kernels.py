"""p-values from ``scipy.special`` kernels, pinned bit-for-bit to ``scipy.stats``.

The estimators and the CI tests evaluate their tails with ``special.stdtr``,
``special.ndtr`` and ``special.chdtrc``: the kernels that ``stats.t.sf``,
``stats.norm.sf`` and ``stats.chi2.sf`` evaluate internally, without the
start-up cost of importing ``scipy.stats``.  ``scipy.stats`` stays here as
the reference, so a SciPy release that makes the two spellings disagree
fails this file instead of silently moving a p-value.
"""

from __future__ import annotations

import math
import types
from itertools import combinations

import numpy as np
import pytest
from scipy import special, stats

import repro.causal.independence as independence
from repro.causal.backdoor import backdoor_adjustment_set
from repro.causal.estimators import LinearAdjustmentEstimator, StratifiedEstimator
from repro.causal.independence import fisher_z_test, g_square_test
from repro.datasets.german import load_german
from repro.mining.patterns import Pattern
from repro.tabular.column import CategoricalColumn

T_VALUES = (0.0, 1e-12, 0.5, 1.96, 40.0, 1e300, math.inf, math.nan)
DFS = (1, 2, 7, 30, 157, 1999, 1e6)
OUTCOME = "CreditRisk"

#: The ``scipy.stats`` calls the CI tests used to make, shaped like the
#: ``special`` kernels they make now (``-(-z)`` is exact).
STATS_REFERENCE = types.SimpleNamespace(
    ndtr=lambda x: stats.norm.sf(-x),
    chdtrc=lambda df, x: stats.chi2.sf(x, df),
)


def _same(a: float, b: float) -> bool:
    """Exactly equal, with NaN ≡ NaN."""
    return bool(a == b) or (math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize("df", DFS)
def test_kernels_equal_stats_bit_for_bit(df):
    for t in T_VALUES:
        assert _same(special.stdtr(df, -t), stats.t.sf(t, df)), t
        assert _same(special.chdtrc(df, t), stats.chi2.sf(t, df)), t
        assert _same(special.ndtr(-t), stats.norm.sf(t)), t


def test_chi2_divergence_at_zero_df_is_guarded():
    # The one known disagreement: no degrees of freedom.
    assert math.isnan(stats.chi2.sf(1.0, 0))
    assert special.chdtrc(0, 1.0) == 0.0
    # g_square_test never reaches the kernel there: a column that varies
    # against one that does not leaves dof = 1 * 0, and the guard answers.
    codes = np.column_stack([np.arange(40) % 2, np.zeros(40)]).astype(np.int64)
    assert g_square_test(codes, (2, 2), 0, 1) == 1.0


@pytest.fixture(scope="module")
def german():
    return load_german(n=600, rng=3)


def _estimator_queries(bundle) -> list[tuple]:
    """(sub-table, treated mask, adjustment) triples: each value of a few
    mutable attributes, on the whole table and inside three groups."""
    table = bundle.table
    subtables = [table] + [
        table.filter(Pattern.of(PersonalStatus=value).mask(table))
        for value in table.unique("PersonalStatus")[:3]
    ]
    queries = []
    for attribute in ("CheckingAccount", "SavingsAccount", "Duration", "Housing"):
        adjustment = backdoor_adjustment_set(bundle.dag, (attribute,), OUTCOME)
        for sub in subtables:
            for value in sub.unique(attribute):
                mask = Pattern.of(**{attribute: value}).mask(sub)
                queries.append((sub, mask, adjustment))
    return queries


def _linear_dof(sub, mask, adjustment) -> int:
    """``n - rank`` of the estimator's design ``[1, T, one-hot(Z)]``."""
    blocks = [np.ones(sub.n_rows), mask.astype(np.float64)]
    for name in adjustment:
        column = sub.column(name)
        blocks += [
            (column.codes == code).astype(np.float64)
            for code in range(1, len(column.categories))
        ]
    return sub.n_rows - np.linalg.matrix_rank(np.column_stack(blocks))


def test_linear_estimator_p_values_equal_stats(german):
    """The t-test p-value, recomputed the way the estimator used to."""
    estimator = LinearAdjustmentEstimator()
    compared = 0
    for sub, mask, adjustment in _estimator_queries(german):
        result = estimator.estimate(sub, mask, OUTCOME, adjustment)
        if not result.valid:
            continue
        t_stat = result.estimate / result.stderr
        dof = _linear_dof(sub, mask, adjustment)
        assert _same(result.p_value, float(2.0 * stats.t.sf(abs(t_stat), df=dof)))
        compared += 1
    assert compared >= 40


def test_stratified_estimator_p_values_equal_stats(german):
    """The z-test p-value, recomputed the way the estimator used to."""
    estimator = StratifiedEstimator()
    compared = 0
    for sub, mask, adjustment in _estimator_queries(german):
        result = estimator.estimate(sub, mask, OUTCOME, adjustment)
        if math.isnan(result.p_value):
            continue
        z_stat = result.estimate / result.stderr
        assert _same(result.p_value, float(2.0 * stats.norm.sf(abs(z_stat))))
        compared += 1
    assert compared >= 40


def _ci_queries(n_columns: int) -> list[tuple]:
    queries = []
    for x, y in combinations(range(n_columns), 2):
        others = [z for z in range(n_columns) if z not in (x, y)]
        queries += [(x, y, ()), (x, y, tuple(others[:1])), (x, y, tuple(others[:2]))]
    return queries


def test_ci_test_p_values_equal_stats(german, monkeypatch):
    table = german.table
    names = table.column_names[:6] + (OUTCOME,)
    columns = [table.column(name) for name in names]
    codes = np.column_stack(
        [c.codes for c in columns if isinstance(c, CategoricalColumn)]
        + [np.zeros(table.n_rows)]  # constant: a dof-0 query for the guard
    ).astype(np.int64)
    cards = tuple(len(c.categories) for c in columns[:-1]) + (2,)
    data = np.column_stack(
        [
            c.codes if isinstance(c, CategoricalColumn) else table.values(name)
            for name, c in zip(names, columns)
        ]
    ).astype(np.float64)

    def p_values() -> list[float]:
        return [
            fisher_z_test(data, x, y, zs) for x, y, zs in _ci_queries(data.shape[1])
        ] + [
            g_square_test(codes, cards, x, y, zs)
            for x, y, zs in _ci_queries(codes.shape[1])
        ]

    got = p_values()
    assert all(0.0 <= p <= 1.0 for p in got)
    assert sum(0.0 < p < 1.0 for p in got) >= 20  # the check has teeth
    # Same arguments, the old tail function: only the spelling may differ.
    monkeypatch.setattr(independence, "special", STATS_REFERENCE)
    assert all(_same(a, b) for a, b in zip(got, p_values()))
