"""Fuzz differential: the batched kernel ≡ the scalar estimator on small
hostile designs.

Every degenerate design Step 2 has met lived in a grouping sub-table of
10–40 rows.  This file draws a fixed set of such sub-tables and checks
every column of :func:`~repro.causal.batch.estimate_level_rows` against
:class:`~repro.causal.estimators.LinearAdjustmentEstimator` under
``assert_cate_close``'s rules: rtol 1e-9 in general, bit for bit on
degenerate designs and positivity rejections.  A draw has

- 1–3 categorical adjusters of 2–5 levels, with the reference level or a
  middle level absent — made by filtering a parent table that has every
  level, since a table built directly knows only the levels in its data;
- sometimes a duplicated attribute;
- sometimes a continuous adjuster at scale 1e-6, 1, 1e3 or 1e8, or a
  near-constant one;
- an outcome at scale 1e-3, 1 or 1e4;
- treated rows that include all-false, all-true and one-hot columns of the
  design, besides random masks.

The draws come from the per-test ``rng`` fixture, so they are fixed, and
the test checks through the telemetry counters that they reach every route
of the kernel: a generator change cannot quietly stop covering one.
"""

from __future__ import annotations

import numpy as np

from tests.causal.test_batch_differential import assert_cate_close
from repro.causal.batch import build_rows_factorization, estimate_level_rows
from repro.causal.estimators import POSITIVITY_REASON, LinearAdjustmentEstimator
from repro.obs import telemetry_session
from repro.tabular.table import Table

ESTIMATOR = LinearAdjustmentEstimator()

N_DESIGNS = 600
PARENT_ROWS = 200
MIN_ROWS, MAX_ROWS = 10, 40
CONTINUOUS_SCALES = (1e-6, 1.0, 1e3, 1e8)
OUTCOME_SCALES = (1e-3, 1.0, 1e4)


def _parent_and_mask(rng):
    """A parent table with every level present, and the rows to keep."""
    columns: dict[str, np.ndarray] = {}
    adjustment: list[str] = []
    keep = np.ones(PARENT_ROWS, dtype=bool)
    for i in range(int(rng.integers(1, 4))):
        n_levels = int(rng.integers(2, 6))
        codes = rng.integers(0, n_levels, size=PARENT_ROWS)
        codes[:n_levels] = np.arange(n_levels)
        name = f"z{i}"
        columns[name] = np.array([f"v{c}" for c in codes], dtype=object)
        adjustment.append(name)
        absent = int(rng.integers(0, 3))
        if absent == 1:  # the dropped reference level
            keep &= codes != 0
        elif absent == 2 and n_levels > 2:  # a middle level
            keep &= codes != int(rng.integers(1, n_levels - 1))
    if rng.random() < 0.15:
        columns["dup"] = columns["z0"].copy()
        adjustment.insert(int(rng.integers(0, len(adjustment) + 1)), "dup")
    # One draw in eight each: a scale, or near-constant; three in eight: none.
    kind = int(rng.integers(0, 8))
    if kind < len(CONTINUOUS_SCALES):
        columns["x"] = CONTINUOUS_SCALES[kind] * rng.normal(size=PARENT_ROWS)
        adjustment.append("x")
    elif kind == len(CONTINUOUS_SCALES):
        columns["x"] = 3.0 + 1e-7 * rng.normal(size=PARENT_ROWS)
        adjustment.append("x")
    scale = OUTCOME_SCALES[int(rng.integers(0, len(OUTCOME_SCALES)))]
    columns["y"] = scale * (
        rng.normal(size=PARENT_ROWS) + 0.5 * (columns["z0"] == "v1")
    )
    if keep.sum() < MIN_ROWS:
        keep[:] = True
    rows = np.flatnonzero(keep)
    size = min(int(rng.integers(MIN_ROWS, MAX_ROWS + 1)), rows.size)
    mask = np.zeros(PARENT_ROWS, dtype=bool)
    mask[rng.choice(rows, size=size, replace=False)] = True
    return Table(columns), mask, tuple(adjustment)


def _treated_rows(rng, sub: Table, adjustment: tuple[str, ...]) -> np.ndarray:
    """Random masks plus, at random, all-false, all-true and one-hot rows."""
    n = sub.n_rows
    rows = [rng.random(n) < rng.uniform(0.2, 0.8) for _ in range(3)]
    if rng.random() < 0.2:
        rows.append(np.zeros(n, dtype=bool))
    if rng.random() < 0.2:
        rows.append(np.ones(n, dtype=bool))
    if rng.random() < 0.5:
        name = adjustment[int(rng.integers(0, len(adjustment)))]
        if name != "x":
            column = sub.column(name)
            level = column.categories[int(rng.integers(1, len(column.categories)))]
            rows.append(column.decode() == level)
    return np.asarray(rows)


def test_batch_matches_scalar_on_hostile_designs(rng):
    misses: list[str] = []
    positivity = 0
    with telemetry_session(enabled=True) as telemetry:
        for index in range(N_DESIGNS):
            parent, mask, adjustment = _parent_and_mask(rng)
            sub = parent.filter(mask)
            rows = _treated_rows(rng, sub, adjustment)
            factorization = build_rows_factorization(sub, "y", adjustment)
            got = estimate_level_rows(
                sub,
                rows,
                "y",
                [adjustment] * len(rows),
                factorization_for=lambda _: factorization,
            )
            for j, row in enumerate(rows):
                want = ESTIMATOR.estimate(sub, row, "y", adjustment)
                rejected = want.reason == POSITIVITY_REASON
                positivity += rejected
                exact = factorization.degenerate or rejected
                try:
                    assert_cate_close(got[j], want, exact=exact)
                except AssertionError as exc:
                    misses.append(
                        f"design {index} column {j} ({sub.n_rows} rows, "
                        f"{adjustment}, degenerate={factorization.degenerate}): "
                        f"{exc!r}"
                    )
    assert not misses, f"{len(misses)} columns missed:\n" + "\n".join(misses[:20])

    counters = telemetry.registry.snapshot()["counters"]
    routes = counters["estimation.factorizations"]["values"]
    assert set(routes) == {"route=gram", "route=gram_reduced", "route=degenerate"}
    assert sum(routes.values()) == N_DESIGNS
    fallbacks = counters["estimation.scalar_fallbacks"]["values"]
    assert fallbacks.get("kernel=rows,reason=collinear_design", 0) > 0
    assert fallbacks.get("kernel=rows,reason=identity_guard", 0) > 0
    assert positivity > 0
