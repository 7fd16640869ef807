"""Shard differential suite: out-of-core mining ≡ in-RAM mining, bit for bit.

The tentpole contract of the sharded data layer: running FairCap with
``config.shard_rows`` set — which spills the table into a columnar shard
store and mines against the :class:`~repro.datasets.sharded.ShardedTable`
handle — returns the *identical* result to the in-RAM run.  Same rules in
the same order, same candidate utilities and CATE fields, same metrics,
for every tested shard size and every executor.  The identity holds
because the spill is a pure re-layout: packed predicate words merge
exactly from shard segments, and every materialised context sub-table is
content-identical (same fingerprint) to the in-RAM gather, so downstream
estimation runs the same arithmetic on the same bytes.

Also pinned here:

- the 36-world scenario oracle smoke passes with sharding on (every grid
  world mines to a bit-identical ruleset out of core);
- the absent-category route (an exactly-zero design column, or a
  categorical block with no row at its reference level) builds its
  reduced Gram by subselecting the table's moment matrix — no materialised
  re-accumulation — agrees with an explicit ``lstsq`` fit of the same
  design, and is bit-for-bit the in-RAM build off a shard store.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from tests.conftest import build_toy_dag, build_toy_table
from tests.parallel.test_equivalence import assert_identical_results
from repro.core.config import FairCapConfig
from repro.core.faircap import FairCap, FairCapResult
from repro.mining.patterns import Pattern
from repro.parallel import ProcessExecutor, SerialExecutor
from repro.rules.protected import ProtectedGroup

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def toy_problem():
    table = build_toy_table(n=400, seed=11)
    return (
        table,
        None,
        build_toy_dag(),
        ProtectedGroup(Pattern.of(Gender="Female"), name="women"),
        FairCapConfig(),
    )


@pytest.fixture(scope="module")
def german_problem(small_german_bundle):
    bundle = small_german_bundle
    config = FairCapConfig(
        max_grouping_size=2, max_values_per_attribute=4, min_subgroup_size=10
    )
    return bundle.table, bundle.schema, bundle.dag, bundle.protected, config


def _run(problem, shard_rows=None, executor=None) -> FairCapResult:
    table, schema, dag, protected, config = problem
    if shard_rows is not None:
        config = replace(config, shard_rows=shard_rows)
    return FairCap(config, executor=executor).run(table, schema, dag, protected)


@pytest.fixture(scope="module")
def in_ram_reference(request):
    """Memoised serial in-RAM runs, one per problem fixture."""
    memo: dict[str, FairCapResult] = {}

    def get(name: str) -> FairCapResult:
        if name not in memo:
            memo[name] = _run(
                request.getfixturevalue(name), executor=SerialExecutor()
            )
        return memo[name]

    return get


# -- shard-size sweep (serial) -----------------------------------------------------


@pytest.mark.parametrize("shard_rows", [53, 97, 400, 4096])
def test_toy_sharded_serial_identical(request, in_ram_reference, shard_rows):
    """Every shard size — ragged, exact-fit, single-shard — same bits."""
    result = _run(
        request.getfixturevalue("toy_problem"),
        shard_rows=shard_rows,
        executor=SerialExecutor(),
    )
    assert_identical_results(in_ram_reference("toy_problem"), result)


@pytest.mark.parametrize("shard_rows", [97, 800])
def test_german_sharded_serial_identical(request, in_ram_reference, shard_rows):
    result = _run(
        request.getfixturevalue("german_problem"),
        shard_rows=shard_rows,
        executor=SerialExecutor(),
    )
    assert_identical_results(in_ram_reference("german_problem"), result)


# -- executor sweep ----------------------------------------------------------------


@pytest.mark.parametrize(
    "executor_factory", [lambda: ProcessExecutor(n_workers=2)], ids=["process"]
)
def test_toy_sharded_executors_identical(
    request, in_ram_reference, executor_factory
):
    result = _run(
        request.getfixturevalue("toy_problem"),
        shard_rows=97,
        executor=executor_factory(),
    )
    assert_identical_results(in_ram_reference("toy_problem"), result)


@pytest.mark.parametrize(
    "executor_factory", [lambda: ProcessExecutor(n_workers=2)], ids=["process"]
)
def test_german_sharded_executors_identical(
    request, in_ram_reference, executor_factory
):
    """Workers mine the sharded handle (a forked process inherits it, a
    spawned one reopens the store by path) — same bits as in RAM."""
    result = _run(
        request.getfixturevalue("german_problem"),
        shard_rows=800,
        executor=executor_factory(),
    )
    assert_identical_results(in_ram_reference("german_problem"), result)


# -- oracle worlds -----------------------------------------------------------------


def _world_runs(name: str, n: int, shard_rows: int, executor=None):
    import dataclasses

    from repro.scenarios import ScenarioWorld, run_world
    from repro.scenarios.oracle import oracle_config
    from repro.scenarios.spec import spec_by_name

    world = ScenarioWorld(spec_by_name(name))
    bundle = world.bundle(n)
    reference = run_world(world, bundle)
    sharded = run_world(
        world,
        bundle,
        dataclasses.replace(oracle_config(world), shard_rows=shard_rows),
        executor=executor,
    )
    return world, bundle, reference, sharded


@pytest.mark.scenario
@pytest.mark.parametrize(
    "name", ["linear-g2-d1-gap-lo", "imbalanced-groups"]
)
@pytest.mark.parametrize("shard_rows", [64, 500])
def test_oracle_world_sharded_identical(name, shard_rows):
    _, _, reference, sharded = _world_runs(name, 500, shard_rows)
    assert_identical_results(reference, sharded)


@pytest.mark.scenario
def test_oracle_world_sharded_process_identical():
    _, _, reference, sharded = _world_runs(
        "linear-g2-d1-gap-lo", 500, 128, executor=ProcessExecutor(n_workers=2)
    )
    assert_identical_results(reference, sharded)


@pytest.mark.scenario
def test_full_grid_sharded_oracle_smoke():
    """All 36 grid worlds mine out of core to bit-identical rulesets."""
    import dataclasses

    from repro.scenarios import ScenarioWorld, oracle_grid, run_world
    from repro.scenarios.oracle import oracle_config

    failures = []
    for spec in oracle_grid():
        world = ScenarioWorld(spec)
        bundle = world.bundle(300)
        reference = run_world(world, bundle)
        sharded = run_world(
            world,
            bundle,
            dataclasses.replace(oracle_config(world), shard_rows=128),
        )
        try:
            assert_identical_results(reference, sharded)
        except AssertionError as exc:
            failures.append(f"{spec.name}: {exc}")
    assert not failures, "\n".join(failures)


# -- absent-category routing pin ---------------------------------------------------

#: The City level each sub-table keeps.  Keeping the reference level
#: ``Metro`` leaves Rural's one-hot column all zero; keeping ``Rural``
#: leaves the reference level absent, so Rural's column equals the
#: intercept.  Either way ``col(W)`` is the intercept's span: rank 1.
ABSENT_LEVELS = ("Metro", "Rural")


def _absent_category_subtable(table, level):
    """The sub-population of one City level: the other level is absent."""
    return table.filter(table.column("City").decode() == level)


def test_absent_category_routes_through_reduced_gram():
    """A zero-column or absent-reference design takes the reduced-Gram
    subselection route (no materialised slow rebuild, no degenerate marker)
    and the route counter pins it."""
    from repro.causal.batch import GramFactorization, build_rows_factorization
    from repro.obs import telemetry_session

    table = build_toy_table(n=400, seed=3)
    for level in ABSENT_LEVELS:
        sub = _absent_category_subtable(table, level)
        with telemetry_session(enabled=True) as telemetry:
            factorization = build_rows_factorization(sub, "Income", ("City",))
        routes = telemetry.registry.snapshot()["counters"][
            "estimation.factorizations"
        ]["values"]
        assert routes == {"route=gram_reduced": 1.0}, level
        assert isinstance(factorization, GramFactorization)


def _lstsq_reference(table):
    """``(y_res, y_res_sq, rank)`` of Income on the explicit design
    ``[1, one-hot(City)]`` (reference level dropped), fitted by ``lstsq``,
    which handles a zero column and one equal to the intercept alike."""
    city = table.column("City")
    design = np.column_stack(
        [np.ones(table.n_rows)]
        + [city.decode() == level for level in city.categories[1:]]
    ).astype(np.float64)
    y = table.column("Income").decode()
    coefficients, *_ = np.linalg.lstsq(design, y, rcond=None)
    y_res = y - design @ coefficients
    return y_res, float(y_res @ y_res), int(np.linalg.matrix_rank(design))


def test_reduced_gram_matches_lstsq_reference():
    """Differential pin: the subselected-Gram factorization agrees with a
    least-squares fit of the full design."""
    from repro.causal.batch import build_rows_factorization

    table = build_toy_table(n=400, seed=3)
    for level in ABSENT_LEVELS:
        sub = _absent_category_subtable(table, level)
        gram = build_rows_factorization(sub, "Income", ("City",))
        y_res, y_res_sq, rank = _lstsq_reference(sub)
        assert gram.n == sub.n_rows
        # One categorical with one present level: intercept only survives.
        assert gram.rank == rank == 1
        np.testing.assert_allclose(gram.y_res, y_res, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(gram.y_res_sq, y_res_sq, rtol=1e-9)


def _assert_same_factorization(got, want) -> None:
    assert type(got) is type(want)
    assert (got.n, got.rank, got.degenerate) == (want.n, want.rank, want.degenerate)
    np.testing.assert_array_equal(got.basis(), want.basis())
    np.testing.assert_array_equal(got.gram_inv, want.gram_inv)
    np.testing.assert_array_equal(got.y_res, want.y_res)


def test_reduced_gram_matches_lstsq_reference_sharded(tmp_path):
    """Same pin with the parent table out of core: the context gather off
    the shard store feeds the identical reduced-Gram build, bit for bit, and
    a store whose root lacks the level decides the reduction on
    shard-merged counts."""
    from repro.causal.batch import build_rows_factorization
    from repro.datasets.sharded import ShardedTable

    table = build_toy_table(n=400, seed=3)
    store = ShardedTable.write(table, str(tmp_path / "store"), 73)
    for level in ABSENT_LEVELS:
        sub = store.filter(store.column("City").decode() == level)
        in_ram = _absent_category_subtable(table, level)
        assert sub.fingerprint() == in_ram.fingerprint()
        gram = build_rows_factorization(sub, "Income", ("City",))
        _assert_same_factorization(
            gram, build_rows_factorization(in_ram, "Income", ("City",))
        )
        y_res, _, rank = _lstsq_reference(in_ram)
        assert gram.rank == rank
        np.testing.assert_allclose(gram.y_res, y_res, rtol=1e-9, atol=1e-9)
        # Shard-merged Gram entries are exact integer counts: the same
        # columns survive and the inverse matches bit for bit; the outcome
        # products are shard-order float sums (rtol, as for any root).
        root = ShardedTable.write(in_ram, str(tmp_path / level), 53)
        merged = build_rows_factorization(root, "Income", ("City",))
        assert merged.rank == gram.rank
        np.testing.assert_array_equal(merged.gram_inv, gram.gram_inv)
        np.testing.assert_allclose(merged.y_res, gram.y_res, rtol=1e-9, atol=1e-9)
