"""Parallel mining throughput against the scenario oracle.

Step 2 gains throughput only from parallelism across grouping patterns
(the paper's optimisation (ii)): each worker mines its patterns one at a
time, to completion, through the same per-pattern function as the serial
loop.  This module certifies that configuration on every grid world as the
CLI spells it, ``n_workers=2`` (a two-worker process pool): the run must
sit inside the same analytic CATE bands, satisfy the same
fairness/coverage constraints, recover the planted ruleset at the recovery
tier, and track the serial default engine bit for bit.
"""

from __future__ import annotations

import pytest

from repro.scenarios import ScenarioWorld, check_cate_recovery, check_fairness
from repro.scenarios.oracle import (
    check_planted_recovery,
    oracle_config,
    run_world,
    _compare_results,
)

from tests.scenarios.conftest import BASE_N, SPECS, ScenarioRun

pytestmark = pytest.mark.scenario

#: Per-pattern results are pure functions of the pattern's own content, so
#: the process pool must reproduce the serial engine exactly.
THROUGHPUT_RTOL = 0.0


def _build_throughput_run(name: str, n: int) -> ScenarioRun:
    world = ScenarioWorld(SPECS[name])
    bundle = world.bundle(n)
    config = oracle_config(world, n_workers=2)
    return ScenarioRun(world, bundle, run_world(world, bundle, config))


@pytest.fixture(scope="module", params=sorted(SPECS), ids=lambda n: n)
def throughput_run(request) -> ScenarioRun:
    """One process-pool FairCap run per grid world (base tier)."""
    return _build_throughput_run(request.param, BASE_N)


def test_cate_estimates_match_truth(throughput_run):
    problems = check_cate_recovery(throughput_run.world, throughput_run.result)
    assert not problems, "\n".join(problems)


def test_fairness_constraints_hold(throughput_run):
    problems = check_fairness(throughput_run.result)
    assert not problems, "\n".join(problems)


def test_tracks_default_engine_at_rtol(throughput_run):
    """Same candidates, same selection, utilities within THROUGHPUT_RTOL."""
    reference = run_world(throughput_run.world, throughput_run.bundle)
    problems = _compare_results(
        reference,
        throughput_run.result,
        THROUGHPUT_RTOL,
        "process-vs-serial",
    )
    assert not problems, "\n".join(problems)


RECOVERY_NAMES = sorted(
    name for name, spec in SPECS.items() if spec.assert_recovery
)


@pytest.mark.parametrize("name", RECOVERY_NAMES)
def test_planted_ruleset_recovered(name):
    run = _build_throughput_run(name, SPECS[name].recovery_n)
    problems = check_planted_recovery(run.world, run.result)
    assert not problems, "\n".join(problems)
