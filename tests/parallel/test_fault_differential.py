"""Recovery-determinism differentials: faulted runs ≡ the clean serial run.

The fault-tolerance layer (:mod:`repro.parallel.resilience`) promises that
recovery never changes results — a run that survived a worker kill, a
stuck chunk, or a degraded-serial chunk is bit-for-bit identical to the
fault-free serial reference, and a resumed run is identical to a fresh
one.  These tests inject each failure mode deterministically (faults are
keyed by ``(chunk, attempt)``, no timing races) and compare through the
same rule-for-rule assertion the executor differentials use.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from tests.conftest import build_toy_dag, build_toy_table
from tests.parallel.test_equivalence import assert_identical_results
from repro.core.config import FairCapConfig
from repro.core.faircap import FairCap
from repro.mining.patterns import Pattern
from repro.parallel import ProcessExecutor, SerialExecutor
from repro.rules.protected import ProtectedGroup

pytestmark = [pytest.mark.slow, pytest.mark.chaos]


def _psm_segments() -> set[str]:
    """POSIX shared-memory segments Python has created (named ``psm_*``)."""
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-tmpfs platforms
        return set()


@pytest.fixture(scope="module")
def toy_problem():
    return (
        build_toy_table(n=300, seed=7),
        None,
        build_toy_dag(),
        ProtectedGroup(Pattern.of(Gender="Female"), name="women"),
    )


def _run(problem, config, executor=None):
    table, schema, dag, protected = problem
    return FairCap(config, executor=executor).run(table, schema, dag, protected)


@pytest.fixture(scope="module")
def toy_reference(toy_problem):
    return _run(toy_problem, FairCapConfig(), SerialExecutor())


# -- fault matrix -------------------------------------------------------------
#
# One entry per recovery mechanism.  The toy problem mines 8 grouping
# contexts, so with 2 workers the resilient loop sees chunks 0-7.

FAULT_MATRIX = [
    # A worker dies mid-chunk (os._exit, like an OOM kill): the pool is
    # respawned and unfinished chunks retried.
    ("worker-kill", dict(fault_plan="kill:chunk=1", retry_backoff_seconds=0.01)),
    # A chunk wedges past the per-chunk timeout: the stuck pool is torn
    # down, the chunk retried on a fresh one.
    (
        "chunk-timeout",
        dict(
            fault_plan="delay:chunk=0,seconds=30",
            chunk_timeout_seconds=1.5,
            retry_backoff_seconds=0.01,
        ),
    ),
    # A chunk fails every attempt: after max_retries it runs in-process on
    # the driver (degraded serial).
    (
        "degraded-serial",
        dict(
            fault_plan="raise:chunk=2,attempt=any",
            max_chunk_retries=1,
            retry_backoff_seconds=0.01,
        ),
    ),
]


@pytest.mark.parametrize(
    "overrides", [entry[1] for entry in FAULT_MATRIX],
    ids=[entry[0] for entry in FAULT_MATRIX],
)
def test_faulted_run_identical_to_clean_serial(
    toy_problem, toy_reference, overrides
):
    before = _psm_segments()
    config = FairCapConfig(**overrides)
    result = _run(toy_problem, config, executor=ProcessExecutor(2))
    assert_identical_results(toy_reference, result)
    # Recovery must not leak shared-memory segments either.
    assert _psm_segments() <= before


def test_recovery_events_reach_the_metrics_registry(toy_problem, toy_reference):
    config = FairCapConfig(
        fault_plan="kill:chunk=1", retry_backoff_seconds=0.01, telemetry=True
    )
    result = _run(toy_problem, config, executor=ProcessExecutor(2))
    assert_identical_results(toy_reference, result)
    counters = result.telemetry["counters"]
    assert counters["pool.respawns"]["values"][""] >= 1.0
    assert counters["retry.attempts"]["values"]["reason=worker_lost"] >= 1.0


@pytest.fixture(scope="module")
def german_problem(small_german_bundle):
    bundle = small_german_bundle
    config = FairCapConfig(
        max_grouping_size=2, max_values_per_attribute=4, min_subgroup_size=10
    )
    problem = (bundle.table, bundle.schema, bundle.dag, bundle.protected)
    return problem, config


def test_faulted_run_identical_on_german(german_problem):
    problem, config = german_problem
    reference = _run(problem, config, executor=SerialExecutor())
    faulted = replace(
        config,
        fault_plan="kill:chunk=0;raise:chunk=1",
        retry_backoff_seconds=0.01,
    )
    result = _run(problem, faulted, executor=ProcessExecutor(2))
    assert_identical_results(reference, result)


@pytest.mark.parametrize("world_name", ["imbalanced-groups", "single-stratum"])
def test_faulted_run_identical_on_oracle_worlds(world_name):
    from repro.scenarios import ScenarioWorld, oracle_grid
    from repro.scenarios.oracle import oracle_config, run_world

    spec = {s.name: s for s in oracle_grid()}[world_name]
    world = ScenarioWorld(spec)
    bundle = world.bundle(500)
    config = oracle_config(world)
    reference = run_world(world, bundle, config)
    faulted = replace(
        config, fault_plan="kill:chunk=0", retry_backoff_seconds=0.01
    )
    result = run_world(world, bundle, faulted, executor=ProcessExecutor(2))
    assert_identical_results(reference, result)


# -- checkpoint / resume ------------------------------------------------------


def test_resume_identical_to_fresh_run(tmp_path, toy_problem, toy_reference):
    config = FairCapConfig(checkpoint_dir=str(tmp_path), telemetry=True)
    fresh = _run(toy_problem, config)
    assert_identical_results(toy_reference, fresh)
    saved = fresh.telemetry["counters"]["checkpoint.saved"]["values"][""]
    assert saved == 8.0  # one file per grouping context
    assert "checkpoint.resumed" not in fresh.telemetry["counters"]

    resumed = _run(toy_problem, config)
    assert_identical_results(toy_reference, resumed)
    counters = resumed.telemetry["counters"]
    assert counters["checkpoint.resumed"]["values"][""] == saved
    assert "checkpoint.saved" not in counters  # nothing left to mine


def test_resume_works_across_executors(tmp_path, toy_problem, toy_reference):
    # Executor and worker count are result-neutral, so they are excluded
    # from the run key: a serial run's checkpoint resumes a process run.
    serial_config = FairCapConfig(checkpoint_dir=str(tmp_path))
    assert_identical_results(toy_reference, _run(toy_problem, serial_config))
    process_config = replace(serial_config, telemetry=True)
    resumed = _run(toy_problem, process_config, executor=ProcessExecutor(2))
    assert_identical_results(toy_reference, resumed)
    counters = resumed.telemetry["counters"]
    assert counters["checkpoint.resumed"]["values"][""] == 8.0


def test_aborted_driver_resumes_identically(tmp_path, toy_problem, toy_reference):
    config = FairCapConfig(
        checkpoint_dir=str(tmp_path), fault_plan="abort:after=3"
    )
    with pytest.raises(SystemExit):
        _run(toy_problem, config)
    partial = list(tmp_path.rglob("ctx-*.pkl"))
    assert len(partial) == 3  # the abort fired after exactly three saves

    resumed_config = replace(config, fault_plan=None, telemetry=True)
    resumed = _run(toy_problem, resumed_config)
    assert_identical_results(toy_reference, resumed)
    counters = resumed.telemetry["counters"]
    assert counters["checkpoint.resumed"]["values"][""] == 3.0
    assert counters["checkpoint.saved"]["values"][""] == 5.0


_SIGKILL_CHILD = """\
import sys
sys.path.insert(0, "src")
sys.path.insert(0, ".")
import repro.core.intervention as intervention
intervention.CHECKPOINT_WINDOW = 1  # spread saves across the whole run
from tests.conftest import build_toy_dag, build_toy_table
from repro.core.config import FairCapConfig
from repro.core.faircap import FairCap
from repro.mining.patterns import Pattern
from repro.rules.protected import ProtectedGroup

table = build_toy_table(n=300, seed=7)
config = FairCapConfig(checkpoint_dir=sys.argv[1])
FairCap(config).run(
    table, None, build_toy_dag(),
    ProtectedGroup(Pattern.of(Gender="Female"), name="women"),
)
"""


def test_sigkilled_driver_resumes_identically(tmp_path, toy_problem, toy_reference):
    """The acceptance scenario: SIGKILL the driver mid-run, resume, compare."""
    repo_root = Path(__file__).resolve().parents[2]
    child = subprocess.Popen(
        [sys.executable, "-c", _SIGKILL_CHILD, str(tmp_path)], cwd=repo_root
    )
    try:
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if any(tmp_path.rglob("ctx-*.pkl")) or child.poll() is not None:
                break
            time.sleep(0.005)
        child.kill()
    finally:
        child.wait(timeout=30)

    resumed = _run(
        toy_problem, FairCapConfig(checkpoint_dir=str(tmp_path), telemetry=True)
    )
    assert_identical_results(toy_reference, resumed)
    if child.returncode and child.returncode < 0:
        # The kill genuinely interrupted the run: the resume must have
        # picked up at least the first checkpointed context.
        counters = resumed.telemetry["counters"]
        assert counters["checkpoint.resumed"]["values"][""] >= 1.0
