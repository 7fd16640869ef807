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
- the table-wide basis mask of the moment-matrix build: its edge cases
  (a one-category column, constant and all-zero continuous adjusters, the
  outcome as an adjuster, no categorical column), bit-identical results
  whatever order designs are requested in, and exact inverses of
  all-categorical Grams;
- the kernel's factorization memo: one build per (table, outcome,
  adjustment), its own bit-identical build for a content-equal table, and
  nothing memoised for a build that raises;
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

import dataclasses
import math
from dataclasses import replace

import numpy as np
import pytest

from tests.conftest import build_toy_dag, build_toy_table
from repro.causal.batch import build_rows_factorization, estimate_level_rows
from repro.causal.estimators import LinearAdjustmentEstimator
from repro.core.config import FairCapConfig
from repro.core.faircap import FairCap
from repro.mining.patterns import Pattern
from repro.rules.protected import ProtectedGroup
from repro.tabular.column import CategoricalColumn
from repro.tabular.table import Table
from repro.utils.errors import EstimationError, SchemaError
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


def factorization_arrays(factorization) -> tuple[np.ndarray, ...]:
    """A factorization's bits: ``G⁻¹``, the basis ``Wᵀ`` it gathers from
    its table's design, and the outcome residual."""
    return factorization.gram_inv, factorization.basis(), factorization.y_res


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
    assert build_rows_factorization(table, "y", ("z1", "z2")).degenerate
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


# -- the per-table basis: edge cases, purity, exactness -----------------------


def _edge_table(case: str) -> Table:
    """The table of one :data:`BASIS_EDGE_CASES` case."""
    rng = ensure_rng(17)
    n = 240
    if case == "no-categorical":
        return Table(
            {"x": rng.normal(size=n), "v": rng.uniform(size=n), "y": rng.normal(size=n)}
        )
    table = Table(
        {
            # Every row at z's first non-reference level: its counts sum to
            # n with the reference level absent.
            "z": CategoricalColumn(np.ones(n, dtype=np.int32), ("b", "c", "r")),
            "one": np.array(["u"] * n, dtype=object),  # an empty one-hot block
            "x": np.tile([0.5, 1.5], n // 2),  # sums to n, right after it
            "w": rng.choice(["p", "q", "s"], size=n).astype(object),
            "y": rng.normal(size=n),
        }
    )
    if case == "constant-continuous":
        return table.with_column("x", np.full(n, 3.0))
    if case == "zero-continuous":
        return table.with_column("x", np.zeros(n))
    return table


#: case -> (adjustment, factorization route)
BASIS_EDGE_CASES = {
    "one-category-outside": (("z", "x", "w"), "gram_reduced"),
    "one-category-inside": (("z", "one", "x", "w"), "gram_reduced"),
    "constant-continuous": (("w", "x"), "degenerate"),
    "zero-continuous": (("w", "x"), "gram_reduced"),
    "outcome-as-adjuster": (("w", "y"), "gram"),
    "no-categorical": (("x", "v"), "gram"),
}


@pytest.mark.parametrize("case", list(BASIS_EDGE_CASES))
def test_basis_edge_cases(case):
    """Each edge of the table-wide basis mask takes its route and matches
    the scalar path."""
    from repro.obs import telemetry_session

    table = _edge_table(case)
    adjustment, route = BASIS_EDGE_CASES[case]
    masks = random_masks(ensure_rng(5), table.n_rows, 6)
    with telemetry_session(enabled=True) as telemetry:
        assert_batch_matches_scalar(table, masks, "y", adjustment)
    routes = telemetry.registry.snapshot()["counters"]["estimation.factorizations"]
    assert routes["values"] == {f"route={route}": 1.0}


def test_basis_is_a_pure_function_of_table_content():
    """Content-identical sub-tables from ``filter`` and ``take`` factorize
    bit-identically, whichever designs were requested first."""
    rng = ensure_rng(23)
    n = 300
    parent = Table(
        {
            "z": rng.choice(["a", "b", "c", "d"], size=n).astype(object),
            "x": rng.lognormal(0.0, 2.0, size=n),
            "w": rng.choice(["p", "q"], size=n).astype(object),
            "v": rng.normal(5.0, 2.0, size=n),
            "y": rng.normal(size=n),
        }
    )
    rows = rng.random(n) < 0.5
    filtered = parent.filter(rows)
    taken = parent.take(np.flatnonzero(rows))
    assert filtered.fingerprint() == taken.fingerprint()
    designs = [("v",), ("z", "x"), ("w", "v", "z"), (), ("x", "w")]
    first = {a: build_rows_factorization(filtered, "y", a) for a in designs}
    second = {a: build_rows_factorization(taken, "y", a) for a in designs[::-1]}
    for adjustment in designs:
        for got, want in zip(
            factorization_arrays(first[adjustment]),
            factorization_arrays(second[adjustment]),
        ):
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("reduced", [False, True], ids=["gram", "gram_reduced"])
def test_categorical_gram_inverse_is_exact(reduced):
    """On an all-categorical design ``gram_inv`` is dpotrf/dpotri of the
    explicit ``WᵀW``, bit for bit: every entry is an integer count."""
    from scipy.linalg import lapack

    table = build_toy_table(n=400, seed=3)
    if reduced:  # City's reference level absent: its block drops a column
        table = table.filter(table.values("City") == "Rural")
    factorization = build_rows_factorization(
        table, "Income", ("Gender", "City", "Training")
    )
    assert factorization.rank == (3 if reduced else 4)
    w = factorization.basis().T
    r_factor, info = lapack.dpotrf(w.T @ w, lower=0)
    assert info == 0
    upper, info = lapack.dpotri(r_factor, lower=0)
    assert info == 0
    expected = np.triu(upper) + np.triu(upper, 1).T
    np.testing.assert_array_equal(factorization.gram_inv, expected)


@pytest.mark.parametrize(
    "adjustment", [(), ("a", "b")], ids=["intercept-only", "wider-than-table"]
)
def test_categorical_outcome_rejected_on_every_design(adjustment):
    """The outcome is validated before any gate, so a design the width test
    rejects raises too instead of returning the degenerate marker."""
    levels = [f"l{i:02d}" for i in range(12)]
    table = Table({"a": levels, "b": levels[::-1], "o": ["yes", "no"] * 6})
    with pytest.raises(EstimationError, match="must be continuous"):
        build_rows_factorization(table, "o", adjustment)


def test_unknown_adjustment_raises_schema_error():
    table = build_toy_table(n=50, seed=1)
    with pytest.raises(SchemaError, match="Region"):
        build_rows_factorization(table, "Income", ("City", "Region"))


def test_kernel_memoises_factorizations_per_table(monkeypatch):
    """The kernel memoises each design's factorization on its table.

    Two kernel calls on one table build the design once and reuse the
    object; a content-equal but distinct table builds its own, bit-identical
    one; an unknown adjuster raises on every call and memoises nothing.
    Builds are counted through the module global the kernel calls on a
    miss, which is also what the repo benchmark's ledger patches.
    """
    from repro.causal import batch
    from repro.obs import telemetry_session

    built = []
    build = batch.build_rows_factorization

    def recording(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(batch, "build_rows_factorization", recording)
    table = build_toy_table(n=300, seed=4)
    masks = random_masks(ensure_rng(4), table.n_rows, 5)
    adjustment = ("Gender", "City")
    with telemetry_session(enabled=True) as telemetry:
        first = rows_kernel(table, masks, "Income", adjustment)
        second = rows_kernel(table, masks, "Income", adjustment)
        assert len(built) == 1
        assert batch._table_factorization(table, "Income", adjustment) is built[0]
        routes = telemetry.registry.snapshot()["counters"]["estimation.factorizations"]
        assert sum(routes["values"].values()) == 1
        for got, want in zip(second, first):
            assert_cate_close(got, want, exact=True)

        copy = table.filter(np.ones(table.n_rows, dtype=bool))
        rows_kernel(copy, masks, "Income", adjustment)
        assert len(built) == 2 and built[1] is not built[0]
        for got, want in zip(
            factorization_arrays(built[1]), factorization_arrays(built[0])
        ):
            np.testing.assert_array_equal(got, want)

        for _ in range(2):
            with pytest.raises(SchemaError, match="Region"):
                rows_kernel(table, masks, "Income", ("City", "Region"))
    assert len(built) == 2
    assert list(table.__dict__["_factorization_cache"]) == [("Income", adjustment)]
    lookups = telemetry.registry.snapshot()["counters"]["cache.lookups"]["values"]
    assert lookups == {
        "outcome=hit,tier=factorization": 2.0,
        "outcome=miss,tier=factorization": 2.0,
    }


def test_memoised_factorizations_hold_no_copy_of_the_design():
    """A memoised factorization keeps row indices into its table's ``Aᵀ``,
    not a copy of ``W``: every one, the degenerate marker included, holds
    the table's own ``_Moments.rows`` and no ``(n, rank)`` array."""
    table = build_toy_table(n=300, seed=4)
    table = table.with_column("Gender2", table.values("Gender"))
    designs = [("Gender",), ("City", "Gender"), (), ("Gender", "Gender2")] * 2
    masks = random_masks(ensure_rng(4), table.n_rows, len(designs))
    rows_kernel(table, masks, "Income", designs)
    rows = table.__dict__["_moments_cache"]["Income"].rows
    memo = table.__dict__["_factorization_cache"]
    assert sorted(adjustment for _, adjustment in memo) == sorted(set(designs))
    assert memo[("Income", ("Gender", "Gender2"))].degenerate
    for factorization in memo.values():
        assert factorization.rows is rows
        owned = [
            getattr(factorization, field.name)
            for field in dataclasses.fields(factorization)
            if field.name != "rows"
        ]
        assert not any(
            isinstance(value, np.ndarray) and value.ndim == 2
            and table.n_rows in value.shape
            for value in owned
        )
        np.testing.assert_array_equal(
            factorization.basis(), rows[factorization.keep]
        )


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
