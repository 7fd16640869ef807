"""Telemetry differential obligations.

Two contracts from the observability issue:

1. **Bit-identity**: turning telemetry on must not perturb the numerics —
   a traced run returns the identical ``FairCapResult`` (rule for rule,
   metric for metric) as an untraced one.
2. **Executor invariance**: the ``deterministic`` counter family (mining
   candidates / pruned / kept / estimated columns / rules) is derived from
   the lattice traversal, which the :mod:`repro.parallel` contract pins
   across executors — so serial and process(2) runs must report
   *exactly* the same deterministic counters.  Engine counters (cache
   traffic, factorization routes) legitimately differ per executor and are
   only checked for presence.

Checked on the German credit dataset and on two oracle-grid worlds (one
plain linear world, one degenerate world that exercises popcount pruning).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from tests.parallel.test_equivalence import assert_identical_results
from repro.core.config import FairCapConfig
from repro.core.faircap import FairCap
from repro.obs.trace import iter_spans
from repro.parallel import ProcessExecutor, SerialExecutor
from repro.scenarios import ScenarioWorld, oracle_config, oracle_grid

EXECUTORS = {
    "serial": lambda: SerialExecutor(),
    "process2": lambda: ProcessExecutor(n_workers=2),
}

#: One plain linear world, one degenerate world (perfectly separated
#: treatment, so the invalid-estimate counters light up).
WORLD_NAMES = ("linear-g2-d1-gap-lo", "separated")


def deterministic_counters(report: dict) -> dict:
    assert report is not None, "telemetry report missing from FairCapResult"
    return {
        name: counter["values"]
        for name, counter in report["counters"].items()
        if counter["deterministic"]
    }


@pytest.fixture(scope="module")
def german_problem(small_german_bundle):
    bundle = small_german_bundle
    config = FairCapConfig(
        max_grouping_size=2,
        max_values_per_attribute=4,
        min_subgroup_size=10,
        telemetry=True,
    )
    return bundle.table, bundle.schema, bundle.dag, bundle.protected, config


def _run(problem, executor=None):
    table, schema, dag, protected, config = problem
    return FairCap(config, executor=executor).run(table, schema, dag, protected)


@pytest.fixture(scope="module")
def german_runs(german_problem):
    """One traced German run per executor kind."""
    return {
        name: _run(german_problem, executor=make())
        for name, make in EXECUTORS.items()
    }


@pytest.mark.slow
def test_tracing_is_bit_identical_to_untraced(german_problem, german_runs):
    table, schema, dag, protected, config = german_problem
    untraced = FairCap(replace(config, telemetry=False)).run(
        table, schema, dag, protected
    )
    assert untraced.telemetry is None
    traced = german_runs["serial"]
    assert traced.telemetry is not None
    assert_identical_results(untraced, traced)


@pytest.mark.slow
@pytest.mark.parametrize("executor_name", ["process2"])
def test_deterministic_counters_executor_invariant_german(
    german_runs, executor_name
):
    reference = deterministic_counters(german_runs["serial"].telemetry)
    candidate = deterministic_counters(german_runs[executor_name].telemetry)
    assert candidate == reference


@pytest.mark.slow
def test_deterministic_family_covers_the_mining_pipeline(german_runs):
    counters = deterministic_counters(german_runs["serial"].telemetry)
    assert {"mining.contexts", "mining.candidates", "mining.kept",
            "mining.estimated_columns", "mining.rules"} <= set(counters)
    report = german_runs["serial"].telemetry
    # Engine counters exist but make no cross-executor promise.
    assert "cache.lookups" in report["counters"]
    assert "estimation.factorizations" in report["counters"]
    assert not report["counters"]["cache.lookups"]["deterministic"]


@pytest.mark.slow
@pytest.mark.parametrize("executor_name", list(EXECUTORS))
def test_factorization_tier_counts_memo_lookups(german_runs, executor_name):
    """The factorization memo's lookups fill the factorization cache tier:
    every miss is one build, and nothing is ever evicted."""
    report = german_runs[executor_name].telemetry
    counters = report["counters"]
    lookups = counters["cache.lookups"]["values"]
    hits = lookups["outcome=hit,tier=factorization"]
    misses = lookups["outcome=miss,tier=factorization"]
    assert misses == sum(counters["estimation.factorizations"]["values"].values())
    assert hits > 0
    gauge = report["gauges"]["cache.hit_rate"]["tier=factorization"]
    assert gauge == hits / (hits + misses)
    evictions = counters.get("cache.evictions", {}).get("values", {})
    assert "tier=factorization" not in evictions


@pytest.mark.slow
def test_run_report_meta_and_spans(german_runs):
    result = german_runs["serial"]
    report = result.telemetry
    meta = report["meta"]
    assert meta["n_rows"] == result.n_rows
    assert meta["executor"] == "serial"
    assert meta["n_rules"] == len(result.ruleset)
    assert meta["nodes_evaluated"] == result.nodes_evaluated
    assert set(meta["timings"]) == set(result.timings)
    names = [span["name"] for span in iter_spans(report["spans"])]
    assert "faircap.run" in names
    assert "estimation.level" in names
    # Step 2 mines one grouping pattern to completion per span.
    assert names.count("mining.context") == meta["n_grouping_patterns"]


@pytest.mark.slow
def test_process_spans_graft_into_the_run_tree(german_runs):
    report = german_runs["process2"].telemetry
    roots = [span["name"] for span in report["spans"]]
    assert roots == ["faircap.run"]
    names = {span["name"] for span in iter_spans(report["spans"])}
    assert "parallel.map" in names
    assert "mining.context" in names  # worker trees grafted, not dropped


# -- oracle-grid worlds --------------------------------------------------------

_SPECS = {spec.name: spec for spec in oracle_grid()}


@pytest.fixture(scope="module", params=WORLD_NAMES, ids=lambda n: n)
def world_runs(request):
    world = ScenarioWorld(_SPECS[request.param])
    bundle = world.bundle(500)
    config = replace(oracle_config(world), telemetry=True)
    problem = (bundle.table, bundle.schema, bundle.dag, bundle.protected, config)
    return request.param, {
        name: _run(problem, executor=make())
        for name, make in EXECUTORS.items()
    }


@pytest.mark.scenario
def test_deterministic_counters_executor_invariant_worlds(world_runs):
    name, runs = world_runs
    reference = deterministic_counters(runs["serial"].telemetry)
    assert reference, f"{name}: no deterministic counters recorded"
    candidate = deterministic_counters(runs["process2"].telemetry)
    assert candidate == reference, f"{name}: process2 differs"


@pytest.mark.scenario
def test_world_results_identical_across_executors(world_runs):
    _, runs = world_runs
    assert_identical_results(runs["serial"], runs["process2"])


@pytest.mark.scenario
def test_degenerate_world_records_invalid_estimates(world_runs):
    name, runs = world_runs
    if name != "separated":
        pytest.skip("only the degenerate world rejects every candidate")
    counters = deterministic_counters(runs["serial"].telemetry)
    assert sum(counters.get("mining.invalid_estimates", {}).values()) > 0


@pytest.mark.slow
def test_popcount_prunes_are_counted():
    """At small n some German intervention values lose all support inside a
    subgroup, which is exactly what the popcount prune rejects — the counter
    and the derived prune rate must see it."""
    from repro.datasets import load_german
    from repro.obs.report import derived_stats

    bundle = load_german(n=300, rng=5)
    config = FairCapConfig(
        max_grouping_size=2,
        max_values_per_attribute=4,
        min_subgroup_size=10,
        telemetry=True,
    )
    result = FairCap(config).run(
        bundle.table, bundle.schema, bundle.dag, bundle.protected
    )
    counters = deterministic_counters(result.telemetry)
    assert sum(counters["mining.pruned"].values()) > 0
    assert result.telemetry["derived"]["prune_rate"] > 0
    assert derived_stats(result.telemetry["counters"]) == result.telemetry["derived"]
