"""Differential suite: the batched FWL engine vs the scalar estimator path.

The batch engine (:mod:`repro.causal.batch`) is only allowed to change
*latency*: every estimate must agree with the scalar
:class:`~repro.causal.estimators.LinearAdjustmentEstimator` to rtol 1e-9,
exactly (bit-for-bit) on the positivity and degenerate fallbacks, and the
mined rulesets of every problem variant must be identical rule-for-rule.
This file is the contract:

- candidate-by-candidate equality of the level kernel
  (:func:`~repro.causal.batch.estimate_level_rows`) against
  ``estimator.estimate`` on synthetic, German, and Stack Overflow data;
- exactness on rank-deficient designs: a truly collinear design (e.g. a
  duplicated attribute) takes the scalar path inside the batch engine and
  matches it bit for bit, while absent one-hot categories and absent
  reference levels stay on the Gram route at rtol 1e-9;
- property tests: batch-of-one ≡ scalar, candidate-permutation invariance,
  FWL affine equivariance of the batched estimates, mixed-adjustment levels
  ≡ one call per adjustment group;
- end-to-end: FairCap with ``batch_estimation=True`` (the default) selects
  the same rules as the scalar path on every Table-4 variant.

The level engine's own suite (``test_frontier_differential.py``) covers the
kernel's fallbacks and the mining-level contracts across executors.

The golden snapshots under ``tests/experiments/goldens/`` complete the
picture: they were recorded before the batch engine existed and must keep
passing unmodified with it on.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from tests.conftest import build_toy_dag, build_toy_table
from repro.causal.batch import (
    DesignFactorization,
    build_factorization,
    build_rows_factorization,
    estimate_level_rows,
)
from repro.causal.estimators import LinearAdjustmentEstimator
from repro.core.config import FairCapConfig
from repro.core.faircap import FairCap
from repro.mining.patterns import Pattern
from repro.rules.protected import ProtectedGroup
from repro.tabular.table import Table
from repro.utils.rng import ensure_rng

RTOL = 1e-9
ESTIMATOR = LinearAdjustmentEstimator()

CATE_FLOAT_FIELDS = ("estimate", "stderr", "p_value")
CATE_INT_FIELDS = ("n", "n_treated", "n_control")


def assert_cate_close(got, want, exact: bool = False) -> None:
    """Field-wise comparison of two CateResults."""
    assert got.valid == want.valid
    assert got.adjustment == want.adjustment
    assert got.reason == want.reason
    for field in CATE_INT_FIELDS:
        assert getattr(got, field) == getattr(want, field), field
    for field in CATE_FLOAT_FIELDS:
        a, b = getattr(got, field), getattr(want, field)
        if isinstance(a, float) and math.isnan(a):
            assert math.isnan(b), field
        elif exact:
            assert a == b, field
        else:
            assert a == pytest.approx(b, rel=RTOL, abs=1e-12), field


def rows_kernel(table, masks, outcome, adjustments):
    """The level kernel on an ``(n, m)`` mask matrix, one adjustment per column."""
    if isinstance(adjustments, tuple):
        adjustments = [adjustments] * masks.shape[1]
    return estimate_level_rows(
        table, np.ascontiguousarray(masks.T), outcome, adjustments
    )


def assert_batch_matches_scalar(
    table, masks, outcome, adjustments, exact: bool = False
) -> list:
    batch = rows_kernel(table, masks, outcome, adjustments)
    assert len(batch) == masks.shape[1]
    for j, got in enumerate(batch):
        adjustment = adjustments if isinstance(adjustments, tuple) else adjustments[j]
        want = ESTIMATOR.estimate(table, masks[:, j], outcome, adjustment)
        assert_cate_close(got, want, exact=exact)
    return batch


def random_masks(rng, n: int, m: int) -> np.ndarray:
    return rng.random((n, m)) < rng.uniform(0.15, 0.6, size=m)


# -- row-by-row equality on the bundled datasets -------------------------------


def test_batch_matches_scalar_synth(rng):
    table = build_toy_table(n=700, seed=3)
    masks = random_masks(rng, 700, 24)
    assert_batch_matches_scalar(table, masks, "Income", ("City",))
    assert_batch_matches_scalar(table, masks, "Income", ("City", "Gender"))
    assert_batch_matches_scalar(table, masks, "Income", ())


@pytest.mark.slow
def test_batch_matches_scalar_german(rng, small_german_bundle):
    bundle = small_german_bundle
    outcome = bundle.schema.outcome_name
    adjustment = tuple(
        name
        for name in bundle.table.column_names
        if name != outcome
    )[:3]
    masks = random_masks(rng, bundle.table.n_rows, 16)
    assert_batch_matches_scalar(bundle.table, masks, outcome, adjustment)


@pytest.mark.slow
def test_batch_matches_scalar_stackoverflow(rng, small_so_bundle):
    bundle = small_so_bundle
    outcome = bundle.schema.outcome_name
    adjustment = tuple(
        name for name in bundle.table.column_names if name != outcome
    )[:3]
    masks = random_masks(rng, bundle.table.n_rows, 16)
    assert_batch_matches_scalar(bundle.table, masks, outcome, adjustment)


# -- degenerate designs take the scalar path bit-identically -------------------


def test_rank_deficient_design_exact(rng):
    """Perfectly collinear adjustment columns: scalar fallback, bit-identical."""
    n = 300
    z = rng.choice(["a", "b", "c"], size=n).astype(object)
    table = Table(
        {
            "z1": z,
            "z2": z.copy(),  # duplicate attribute: W is rank deficient
            "y": rng.normal(size=n),
        }
    )
    factorization = build_rows_factorization(table, "y", ("z1", "z2"))
    assert isinstance(factorization, DesignFactorization)
    assert factorization.degenerate
    masks = random_masks(rng, n, 6)
    assert_batch_matches_scalar(table, masks, "y", ("z1", "z2"), exact=True)


def test_treated_collinear_with_adjustment_exact(rng):
    """t inside col(W): per-row scalar fallback, bit-identical."""
    n = 400
    group = rng.choice(["g0", "g1"], size=n).astype(object)
    table = Table({"z": group, "y": rng.normal(size=n)})
    treated = group == "g1"  # exactly the one-hot column of z
    masks = np.column_stack([treated, random_masks(rng, n, 2)[:, 0]])
    batch = assert_batch_matches_scalar(table, masks, "y", ("z",))
    want = ESTIMATOR.estimate(table, treated, "y", ("z",))
    assert_cate_close(batch[0], want, exact=True)


def test_absent_categories_not_degenerate(rng):
    """Zero one-hot columns (absent categories) stay off the scalar fallback."""
    n = 500
    z = rng.choice(["a", "b", "c", "d"], size=n).astype(object)
    table = Table({"z": z, "y": rng.normal(size=n)})
    sub = table.filter(np.asarray(z != "c"))  # category 'c' never appears
    assert not build_factorization(sub, "y", ("z",)).degenerate
    assert not build_rows_factorization(sub, "y", ("z",)).degenerate
    masks = random_masks(rng, sub.n_rows, 8)
    assert_batch_matches_scalar(sub, masks, "y", ("z",))


def test_positivity_and_small_batches(rng):
    """Empty treated/control rows give the scalar invalid results."""
    table = build_toy_table(n=200, seed=5)
    masks = np.zeros((200, 3), dtype=bool)
    masks[:, 1] = True
    masks[:100, 2] = True
    # Candidates 0/1 violate positivity -> invalid results, bit-identical to
    # the scalar spelling; candidate 2 is a regular estimate (rtol).
    batch = rows_kernel(table, masks, "Income", ("City",))
    for j, exact in ((0, True), (1, True), (2, False)):
        want = ESTIMATOR.estimate(table, masks[:, j], "Income", ("City",))
        assert_cate_close(batch[j], want, exact=exact)
    assert not batch[0].valid and not batch[1].valid and batch[2].valid


# -- property tests ------------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_batch_of_one_matches_scalar(seed):
    rng = ensure_rng(seed)
    table = build_toy_table(n=300 + 40 * seed, seed=seed)
    mask = random_masks(rng, table.n_rows, 1)
    assert_batch_matches_scalar(table, mask, "Income", ("City", "Gender"))


def test_column_permutation_invariance(rng):
    """Permuting a level's candidate columns permutes results bit-for-bit."""
    table = build_toy_table(n=600, seed=9)
    masks = random_masks(rng, 600, 12)
    perm = rng.permutation(12)
    base = rows_kernel(table, masks, "Income", ("City",))
    permuted = rows_kernel(table, masks[:, perm], "Income", ("City",))
    for pos, j in enumerate(perm):
        assert_cate_close(permuted[pos], base[j], exact=True)


def test_fwl_affine_equivariance(rng):
    """O -> a*O + b scales estimates/stderrs by a, keeps p-values."""
    table = build_toy_table(n=500, seed=13)
    a, b = 3.5, -20_000.0
    scaled = table.with_column("Income", a * table.values("Income") + b)
    masks = random_masks(rng, 500, 10)
    base = rows_kernel(table, masks, "Income", ("City", "Gender"))
    trans = rows_kernel(scaled, masks, "Income", ("City", "Gender"))
    for got, want in zip(trans, base):
        assert got.valid == want.valid
        if not want.valid:
            continue
        assert got.estimate == pytest.approx(a * want.estimate, rel=1e-9)
        assert got.stderr == pytest.approx(a * want.stderr, rel=1e-9)
        assert got.p_value == pytest.approx(want.p_value, rel=1e-7, abs=1e-300)


def test_level_driver_matches_batch(rng):
    """Candidates sharing an adjustment set form one FWL group, bit-for-bit."""
    table = build_toy_table(n=400, seed=21)
    masks = random_masks(rng, 400, 9)
    adjustments = [("City",), ("City", "Gender"), ()] * 3
    level = rows_kernel(table, masks, "Income", adjustments)
    for j, adjustment in enumerate(adjustments):
        same_adj = [i for i, adj in enumerate(adjustments) if adj == adjustment]
        grouped = rows_kernel(table, masks[:, same_adj], "Income", adjustment)
        assert_cate_close(level[j], grouped[same_adj.index(j)], exact=True)


# -- end-to-end: batch-mined rulesets are identical to scalar-path rulesets ----


def _assert_same_ruleset(got_result, want_result, exact: bool = False) -> None:
    assert got_result.nodes_evaluated == want_result.nodes_evaluated
    assert len(got_result.candidate_rules) == len(want_result.candidate_rules)
    for got, want in zip(got_result.candidate_rules, want_result.candidate_rules):
        assert got.grouping == want.grouping
        assert got.intervention == want.intervention
        for field in ("utility", "utility_protected", "utility_non_protected"):
            a, b = getattr(got, field), getattr(want, field)
            if exact:
                assert a == b, field
            else:
                assert a == pytest.approx(b, rel=RTOL, abs=1e-12), field
    assert [
        (r.grouping, r.intervention) for r in got_result.ruleset.rules
    ] == [(r.grouping, r.intervention) for r in want_result.ruleset.rules]
    for field in (
        "coverage",
        "protected_coverage",
        "expected_utility",
        "expected_utility_protected",
        "expected_utility_non_protected",
    ):
        assert getattr(got_result.metrics, field) == pytest.approx(
            getattr(want_result.metrics, field), rel=1e-9, abs=1e-12
        ), field


def _run_both(table, schema, dag, protected, config):
    batch = FairCap(config).run(table, schema, dag, protected)
    scalar = FairCap(replace(config, batch_estimation=False)).run(
        table, schema, dag, protected
    )
    return batch, scalar


def _toy_problem():
    table = build_toy_table(n=900, seed=11)
    protected = ProtectedGroup(Pattern.of(Gender="Female"), name="women")
    return table, None, build_toy_dag(), protected


def test_faircap_batch_equals_scalar_synth():
    batch, scalar = _run_both(*_toy_problem(), FairCapConfig())
    _assert_same_ruleset(batch, scalar)


@pytest.mark.slow
@pytest.mark.parametrize("dataset_fixture", ["small_german_bundle", "small_so_bundle"])
def test_faircap_batch_equals_scalar_all_variants(request, dataset_fixture):
    """Every Table-4 constraint variant mines the same rules either way."""
    from repro.experiments.settings import ExperimentSettings

    bundle = request.getfixturevalue(dataset_fixture)
    settings = ExperimentSettings(so_n=0, german_n=0, seed=7)
    variants = settings.variants_for(bundle)
    base = FairCapConfig(
        max_grouping_size=2, max_values_per_attribute=4, min_subgroup_size=10
    )
    for variant in variants.values():
        config = base.with_variant(variant)
        batch, scalar = _run_both(
            bundle.table, bundle.schema, bundle.dag, bundle.protected, config
        )
        _assert_same_ruleset(batch, scalar)


def test_stratified_estimator_ignores_batch_flag():
    """StratifiedEstimator has no batched path; the flag must be harmless."""
    config = FairCapConfig(estimator="stratified")
    batch, scalar = _run_both(*_toy_problem(), config)
    assert batch.ruleset.rules == scalar.ruleset.rules
