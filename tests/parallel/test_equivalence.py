"""Differential tests: every executor returns the *identical* FairCap result.

This is the core correctness contract of the parallel mining layer
(:mod:`repro.parallel`): for every bundled dataset, running FairCap with
``ProcessExecutor(n_workers=4)`` (or any other executor / worker count)
returns the same ``RuleSet`` as the serial reference — same rules, same
order, same metrics to 1e-12 — and evaluates the same lattice.
"""

from __future__ import annotations

import math

import pytest

from tests.conftest import build_toy_dag, build_toy_table
from repro.core.config import FairCapConfig
from repro.core.faircap import FairCap, FairCapResult
from repro.mining.patterns import Pattern
from repro.obs.trace import iter_spans
from repro.parallel import ProcessExecutor, SerialExecutor
from repro.rules.protected import ProtectedGroup

METRIC_FIELDS = (
    "n_rules",
    "coverage",
    "protected_coverage",
    "expected_utility",
    "expected_utility_protected",
    "expected_utility_non_protected",
    "unfairness",
)

CATE_FIELDS = ("estimate", "stderr", "p_value", "n", "n_treated", "n_control")


def _same_float(a: float, b: float) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) and math.isnan(b):
            return True
    return a == b


def assert_same_cate(a, b) -> None:
    assert (a is None) == (b is None)
    if a is None:
        return
    assert a.valid == b.valid and a.adjustment == b.adjustment
    for field in CATE_FIELDS:
        assert _same_float(getattr(a, field), getattr(b, field)), field


def assert_identical_results(
    reference: FairCapResult, candidate: FairCapResult
) -> None:
    """Rule-for-rule, metric-for-metric equality (1e-12 on metrics)."""
    assert candidate.grouping_patterns == reference.grouping_patterns
    assert candidate.nodes_evaluated == reference.nodes_evaluated

    assert len(candidate.candidate_rules) == len(reference.candidate_rules)
    for got, want in zip(candidate.candidate_rules, reference.candidate_rules):
        assert got == want  # patterns, utilities, coverage counts
        assert_same_cate(got.estimate, want.estimate)
        assert_same_cate(got.estimate_protected, want.estimate_protected)
        assert_same_cate(got.estimate_non_protected, want.estimate_non_protected)

    # Same selected rules in the same order.
    assert candidate.ruleset.rules == reference.ruleset.rules
    assert candidate.greedy.indices == reference.greedy.indices

    for field in METRIC_FIELDS:
        got = getattr(candidate.metrics, field)
        want = getattr(reference.metrics, field)
        assert got == pytest.approx(want, abs=1e-12), field


@pytest.fixture(scope="module")
def synth_problem():
    """The bundled synthetic toy problem (known ground-truth effects)."""
    table = build_toy_table(n=900, seed=11)
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


@pytest.fixture(scope="module")
def stackoverflow_problem(small_so_bundle):
    bundle = small_so_bundle
    config = FairCapConfig(
        max_grouping_size=2, max_values_per_attribute=4, min_subgroup_size=10
    )
    return bundle.table, bundle.schema, bundle.dag, bundle.protected, config


PROBLEMS = ("synth_problem", "german_problem", "stackoverflow_problem")


def _run(problem, executor=None, cache=None) -> FairCapResult:
    table, schema, dag, protected, config = problem
    return FairCap(config, executor=executor, cache=cache).run(
        table, schema, dag, protected
    )


@pytest.fixture(scope="module")
def serial_reference(request):
    """Memoised serial runs, one per problem fixture."""
    memo: dict[str, FairCapResult] = {}

    def get(name: str) -> FairCapResult:
        if name not in memo:
            memo[name] = _run(
                request.getfixturevalue(name), executor=SerialExecutor()
            )
        return memo[name]

    return get


@pytest.mark.slow
@pytest.mark.parametrize("problem_name", PROBLEMS)
def test_process_executor_4_workers_identical(
    request, serial_reference, problem_name
):
    """The issue's headline contract: ProcessExecutor(4) ≡ SerialExecutor."""
    problem = request.getfixturevalue(problem_name)
    result = _run(problem, executor=ProcessExecutor(n_workers=4))
    assert_identical_results(serial_reference(problem_name), result)


@pytest.mark.slow
@pytest.mark.parametrize("n_workers", [2, 3])
def test_process_worker_count_invariance(
    request, serial_reference, n_workers
):
    """Chunk boundaries move with the worker count; results must not."""
    problem = request.getfixturevalue("synth_problem")
    result = _run(problem, executor=ProcessExecutor(n_workers=n_workers))
    assert_identical_results(serial_reference("synth_problem"), result)


@pytest.mark.slow
def test_cache_transparent(request, serial_reference):
    """A shared, pre-warmed cache changes latency, never results."""
    from repro.parallel import EstimationCache

    problem = request.getfixturevalue("synth_problem")
    cache = EstimationCache(max_entries=8192)
    first = _run(problem, cache=cache)
    warmed = _run(problem, cache=cache)
    assert cache.stats().hits > 0
    assert_identical_results(serial_reference("synth_problem"), first)
    assert_identical_results(serial_reference("synth_problem"), warmed)


@pytest.mark.slow
def test_shared_cache_survives_process_executor(request, serial_reference):
    """Worker-computed entries merge back into the caller's cache.

    Process pools die at the end of each run, so cross-run reuse only
    exists because workers ship their new entries home; a warm second run
    must be answered from the merged cache and stay identical.
    """
    from repro.parallel import EstimationCache

    problem = request.getfixturevalue("synth_problem")
    cache = EstimationCache(max_entries=65_536)
    first = _run(problem, executor=ProcessExecutor(n_workers=2), cache=cache)
    assert len(cache) > 0, "worker entries were not merged back"
    entries_after_first = len(cache)
    warmed = _run(problem, executor=ProcessExecutor(n_workers=2), cache=cache)
    assert len(cache) == entries_after_first  # nothing new to compute
    assert_identical_results(serial_reference("synth_problem"), first)
    assert_identical_results(serial_reference("synth_problem"), warmed)


@pytest.mark.slow
def test_explicit_cache_respected_when_config_disables_caching(request):
    """FairCap(cache=...) wins over config.cache_size == 0 in workers too:
    the caller's cache must accumulate entries under the process executor."""
    from dataclasses import replace

    from repro.parallel import EstimationCache

    table, schema, dag, protected, config = request.getfixturevalue(
        "synth_problem"
    )
    no_cache_config = replace(config, cache_size=0)
    cache = EstimationCache(max_entries=65_536)
    result = FairCap(
        no_cache_config, executor=ProcessExecutor(n_workers=2), cache=cache
    ).run(table, schema, dag, protected)
    assert len(cache) > 0, "explicitly-passed cache was dropped by workers"
    baseline = FairCap(no_cache_config).run(table, schema, dag, protected)
    assert_identical_results(baseline, result)


@pytest.mark.slow
@pytest.mark.parametrize("n_workers", [1, 2], ids=["serial", "process2"])
def test_default_run_builds_no_estimation_cache(request, monkeypatch, n_workers):
    """A run without a caller's cache estimates without one, in the caller
    and in process workers: nothing constructs an ``EstimationCache`` and
    no estimation-tier lookup is counted."""
    from dataclasses import replace

    from repro.parallel import EstimationCache

    def refuse(self, *args, **kwargs):
        raise AssertionError("a run without a caller's cache built one")

    # Forked workers inherit the patch; the counters below cover workers
    # started any other way.
    monkeypatch.setattr(EstimationCache, "__init__", refuse)
    table, schema, dag, protected, config = request.getfixturevalue(
        "synth_problem"
    )
    config = replace(config, n_workers=n_workers, telemetry=True)
    report = FairCap(config).run(table, schema, dag, protected).telemetry
    lookups = report["counters"]["cache.lookups"]["values"]
    assert lookups, "no factorization lookups were counted"
    assert not [key for key in lookups if "tier=estimation" in key]
    for gauge in ("cache.entries", "cache.hit_rate"):
        assert "tier=estimation" not in report["gauges"].get(gauge, {})


@pytest.mark.slow
def test_config_spelling_matches_explicit_executor(request, serial_reference):
    """`FairCapConfig(n_workers=2)` runs the process pool, identically."""
    table, schema, dag, protected, config = request.getfixturevalue(
        "synth_problem"
    )
    from dataclasses import replace

    configured = replace(config, n_workers=2, telemetry=True)
    result = FairCap(configured).run(table, schema, dag, protected)
    assert_identical_results(serial_reference("synth_problem"), result)
    assert result.telemetry["meta"]["executor"] == "process"
    assert "parallel.map" in _span_names(result.telemetry)


def _span_names(report) -> set[str]:
    return {span["name"] for span in iter_spans(report["spans"])}


@pytest.mark.slow
def test_single_worker_process_executor_runs_serial_loop(
    request, serial_reference
):
    """A one-worker pool cannot beat the in-process loop, so it never
    starts: no ``parallel.map`` span, and the serial loop's results."""
    from dataclasses import replace

    table, schema, dag, protected, config = request.getfixturevalue(
        "synth_problem"
    )
    result = FairCap(
        replace(config, telemetry=True), executor=ProcessExecutor(1)
    ).run(table, schema, dag, protected)
    assert_identical_results(serial_reference("synth_problem"), result)
    names = _span_names(result.telemetry)
    assert "mining.context" in names
    assert "parallel.map" not in names


@pytest.mark.slow
@pytest.mark.parametrize(
    # single-stratum's lone grouping context covers every row, so workers
    # estimate on a sub-table equal to the root table they were shipped.
    "world_name",
    ["imbalanced-groups", "overlap-regions", "single-stratum"],
)
def test_process_executor_identical_on_oracle_worlds(world_name):
    from repro.scenarios import ScenarioWorld, oracle_grid
    from repro.scenarios.oracle import oracle_config, run_world

    spec = {s.name: s for s in oracle_grid()}[world_name]
    world = ScenarioWorld(spec)
    bundle = world.bundle(500)
    config = oracle_config(world)
    reference = run_world(world, bundle, config)
    result = run_world(world, bundle, config, executor=ProcessExecutor(2))
    assert_identical_results(reference, result)
