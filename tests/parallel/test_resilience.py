"""Unit obligations of :mod:`repro.parallel.resilience`.

Three surfaces: the :class:`RetryPolicy` arithmetic (deterministic,
jitter-free), the :class:`FaultPlan` grammar and matching semantics, and
the resilient :class:`ProcessExecutor` loop itself — exercised with toy
picklable workloads so recovery mechanics are tested in isolation from
the mining pipeline (the differential suite covers the composition).
"""

from __future__ import annotations

import pytest

from repro.core.config import FairCapConfig
from repro.obs import telemetry_session
from repro.parallel import ProcessExecutor, SerialExecutor
from repro.parallel.resilience import (
    ANY_ATTEMPT,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
)
from repro.utils.errors import ConfigError


# -- retry policy -------------------------------------------------------------


def test_backoff_is_deterministic_and_exponential():
    policy = RetryPolicy(max_retries=3, backoff_seconds=0.1, backoff_multiplier=2.0)
    assert policy.delay(0) == 0.0
    assert policy.delay(1) == pytest.approx(0.1)
    assert policy.delay(2) == pytest.approx(0.2)
    assert policy.delay(3) == pytest.approx(0.4)
    # No jitter: the schedule is a pure function of the attempt number.
    assert [policy.delay(k) for k in range(4)] == [
        policy.delay(k) for k in range(4)
    ]


def test_retry_policy_validation():
    with pytest.raises(ConfigError):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ConfigError):
        RetryPolicy(backoff_seconds=-0.1)
    with pytest.raises(ConfigError):
        RetryPolicy(backoff_multiplier=0.5)
    with pytest.raises(ConfigError):
        RetryPolicy(chunk_timeout_seconds=0.0)


def test_retry_policy_from_config():
    config = FairCapConfig(
        max_chunk_retries=5, retry_backoff_seconds=0.2, chunk_timeout_seconds=3.0
    )
    policy = RetryPolicy.from_config(config)
    assert policy.max_retries == 5
    assert policy.backoff_seconds == pytest.approx(0.2)
    assert policy.chunk_timeout_seconds == pytest.approx(3.0)


# -- fault plan grammar -------------------------------------------------------


def test_fault_plan_parse_round_trip():
    plan = FaultPlan.parse("kill:chunk=1;delay:chunk=0,seconds=0.5;raise:attempt=any")
    assert plan.specs == (
        FaultSpec(kind="kill", chunk=1),
        FaultSpec(kind="delay", chunk=0, seconds=0.5),
        FaultSpec(kind="raise", attempt=ANY_ATTEMPT),
    )
    assert plan.abort_after() is None


def test_fault_plan_parse_abort():
    plan = FaultPlan.parse("abort:after=3")
    assert plan.abort_after() == 3


@pytest.mark.parametrize(
    "text",
    [
        "",
        "explode",
        "kill:worker=1",
        "abort:after=0",
        "delay:seconds=-1",
        "corrupt_attach",
    ],
)
def test_fault_plan_rejects_malformed_specs(text):
    with pytest.raises(ConfigError):
        FaultPlan.parse(text)


def test_fault_spec_matching_is_keyed_by_chunk_and_attempt():
    spec = FaultSpec(kind="kill", chunk=2, attempt=0)
    assert spec.matches(2, 0)
    assert not spec.matches(2, 1)  # the retry runs clean
    assert not spec.matches(1, 0)
    any_attempt = FaultSpec(kind="raise", chunk=2, attempt=ANY_ATTEMPT)
    assert any_attempt.matches(2, 0) and any_attempt.matches(2, 5)
    wildcard_chunk = FaultSpec(kind="delay", attempt=0)
    assert wildcard_chunk.matches(0, 0) and wildcard_chunk.matches(9, 0)
    # abort is not chunk-scoped.
    assert not FaultSpec(kind="abort").matches(0, 0)


def test_config_accepts_plan_strings_and_validates_knobs():
    config = FairCapConfig(fault_plan="kill:chunk=1")
    assert isinstance(config.fault_plan, FaultPlan)
    with pytest.raises(ConfigError):
        FairCapConfig(max_chunk_retries=-1)
    with pytest.raises(ConfigError):
        FairCapConfig(chunk_timeout_seconds=0.0)
    with pytest.raises(ConfigError):
        FairCapConfig(retry_backoff_seconds=-1.0)
    with pytest.raises(ConfigError):
        FairCapConfig(fault_plan="bogus:chunk=1")


# -- resilient executor loop --------------------------------------------------
#
# Toy workload: state is the payload dict itself; the work squares items.
# Module-level so ProcessPoolExecutor can pickle them by reference.


def _toy_build_state(payload):
    return payload


def _toy_square(state, item):
    return item * item + state["offset"]


ITEMS = list(range(6))
EXPECTED = [i * i + 3 for i in ITEMS]
PAYLOAD = {"offset": 3}


def _resilient_map(plan, policy=None, n_workers=2, telemetry=None):
    executor = ProcessExecutor(n_workers)
    return executor.map_with_state(
        _toy_build_state,
        PAYLOAD,
        _toy_square,
        ITEMS,
        retry=policy or RetryPolicy(backoff_seconds=0.01),
        fault_plan=plan,
    )


@pytest.mark.slow
def test_fault_free_resilient_map_matches_fast_path():
    executor = ProcessExecutor(2)
    fast = executor.map_with_state(_toy_build_state, PAYLOAD, _toy_square, ITEMS)
    assert fast == EXPECTED
    assert _resilient_map(plan=None) == EXPECTED


@pytest.mark.slow
@pytest.mark.chaos
def test_worker_kill_is_recovered_by_pool_respawn():
    with telemetry_session(enabled=True) as telemetry:
        got = _resilient_map(FaultPlan.parse("kill:chunk=1"))
    assert got == EXPECTED
    counters = telemetry.registry.snapshot()["counters"]
    assert counters["pool.respawns"]["values"][""] >= 1.0
    assert counters["retry.attempts"]["values"]["reason=worker_lost"] >= 1.0
    assert "chunks.degraded_serial" not in counters


@pytest.mark.slow
@pytest.mark.chaos
def test_injected_error_is_retried_on_the_same_pool():
    with telemetry_session(enabled=True) as telemetry:
        got = _resilient_map(FaultPlan.parse("raise:chunk=0"))
    assert got == EXPECTED
    counters = telemetry.registry.snapshot()["counters"]
    assert counters["retry.attempts"]["values"] == {"reason=error": 1.0}
    # An ordinary exception leaves the pool healthy: no respawn.
    assert "pool.respawns" not in counters


@pytest.mark.slow
@pytest.mark.chaos
def test_stuck_chunk_times_out_and_is_retried():
    plan = FaultPlan.parse("delay:chunk=0,seconds=30")
    policy = RetryPolicy(backoff_seconds=0.01, chunk_timeout_seconds=1.0)
    with telemetry_session(enabled=True) as telemetry:
        got = _resilient_map(plan, policy=policy)
    assert got == EXPECTED
    counters = telemetry.registry.snapshot()["counters"]
    assert counters["retry.attempts"]["values"]["reason=timeout"] >= 1.0


@pytest.mark.slow
@pytest.mark.chaos
def test_retry_exhaustion_degrades_to_in_process_serial():
    # The fault fires on *every* attempt, so only the caller-side degraded
    # path (which never installs the plan) can complete the chunk.
    plan = FaultPlan.parse("raise:chunk=3,attempt=any")
    policy = RetryPolicy(max_retries=1, backoff_seconds=0.01)
    with telemetry_session(enabled=True) as telemetry:
        got = _resilient_map(plan, policy=policy)
    assert got == EXPECTED
    counters = telemetry.registry.snapshot()["counters"]
    assert counters["chunks.degraded_serial"]["values"][""] == 1.0
    assert counters["retry.attempts"]["values"]["reason=error"] == 2.0


@pytest.mark.slow
@pytest.mark.chaos
def test_persistent_kill_degrades_instead_of_failing():
    plan = FaultPlan.parse("kill:chunk=2,attempt=any")
    policy = RetryPolicy(max_retries=1, backoff_seconds=0.01)
    with telemetry_session(enabled=True) as telemetry:
        got = _resilient_map(plan, policy=policy)
    assert got == EXPECTED
    counters = telemetry.registry.snapshot()["counters"]
    assert counters["chunks.degraded_serial"]["values"][""] >= 1.0


def test_genuine_error_surfaces_from_the_degraded_path():
    # A deterministic bug must not be swallowed by recovery: after retries
    # exhaust, the degraded-serial execution re-raises it to the caller.
    executor = ProcessExecutor(2)
    with pytest.raises(ZeroDivisionError):
        executor.map_with_state(
            _toy_build_state,
            PAYLOAD,
            _toy_divide_by_item,
            [2, 1, 0],
            retry=RetryPolicy(max_retries=1, backoff_seconds=0.0),
        )


def _toy_divide_by_item(state, item):
    return state["offset"] / item


# -- checkpoint store ---------------------------------------------------------


class _StubTable:
    def fingerprint(self):
        return "table-v1"


class _StubEvaluator:
    table = _StubTable()
    outcome = "income"
    dag = None
    protected = None


def _checkpoint_for(tmp_path, config):
    from repro.parallel.resilience import RunCheckpoint

    return RunCheckpoint.for_run(
        tmp_path, _StubEvaluator(), config, items=["t1", "t2"]
    )


def test_checkpoint_save_load_round_trip(tmp_path):
    checkpoint = _checkpoint_for(tmp_path, FairCapConfig())
    assert checkpoint.load(0, "pattern-a") is None
    checkpoint.save(0, "pattern-a", best={"rule": 1}, nodes=42)
    assert checkpoint.load(0, "pattern-a") == ({"rule": 1}, 42)
    # The file is addressed by (index, pattern): neither alone hits.
    assert checkpoint.load(1, "pattern-a") is None
    assert checkpoint.load(0, "pattern-b") is None


def test_checkpoint_torn_file_reads_as_miss(tmp_path):
    checkpoint = _checkpoint_for(tmp_path, FairCapConfig())
    checkpoint.save(0, "pattern-a", best=None, nodes=7)
    path = checkpoint._path(0, "pattern-a")
    path.write_bytes(path.read_bytes()[:3])  # crash mid-write
    assert checkpoint.load(0, "pattern-a") is None


def test_run_key_pins_algorithm_but_not_execution(tmp_path):
    import dataclasses

    base = FairCapConfig()
    fresh = _checkpoint_for(tmp_path, base)
    # Result-determining fields re-key the run: stale results cannot leak.
    algo = dataclasses.replace(base, min_subgroup_size=25)
    assert _checkpoint_for(tmp_path, algo).root != fresh.root
    # Result-neutral fields (where the work runs) resume the same run.
    moved = dataclasses.replace(
        base,
        n_workers=8,
        fault_plan="kill:chunk=0",
        max_chunk_retries=9,
        checkpoint_dir=str(tmp_path),
    )
    assert _checkpoint_for(tmp_path, moved).root == fresh.root


def test_serial_executor_ignores_fault_plans():
    # In-process executors cannot lose workers; plans are process-pool-only.
    got = SerialExecutor().map_with_state(
        _toy_build_state,
        PAYLOAD,
        _toy_square,
        ITEMS,
        retry=RetryPolicy(),
        fault_plan=FaultPlan.parse("kill:chunk=0,attempt=any"),
    )
    assert got == EXPECTED
