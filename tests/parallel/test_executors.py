"""Unit tests for the execution layer."""

from __future__ import annotations

import pytest

from repro.parallel.executors import (
    ProcessExecutor,
    SerialExecutor,
    chunk_indices,
    default_worker_count,
    make_executor,
)
from repro.utils.errors import ConfigError


def _add_state(state: int, x: int) -> int:
    return state + x


def _identity_state(payload: int) -> int:
    return payload


class TestChunkIndices:
    def test_covers_every_index_exactly_once(self):
        chunks = chunk_indices(103, n_workers=4)
        flat = [i for chunk in chunks for i in chunk]
        assert flat == list(range(103))

    def test_chunk_count_targets_work_stealing(self):
        # Roughly chunks_per_worker chunks per worker: enough granularity
        # for stealing, not so much that scheduling overhead dominates.
        chunks = chunk_indices(1000, n_workers=4, chunks_per_worker=4)
        assert 8 <= len(chunks) <= 32

    def test_small_inputs(self):
        assert chunk_indices(0, 4) == []
        assert chunk_indices(1, 4) == [[0]]
        assert chunk_indices(3, 8) == [[0], [1], [2]]


@pytest.mark.parametrize(
    "executor",
    [SerialExecutor(), ProcessExecutor(2)],
    ids=["serial", "process"],
)
class TestExecutorContract:
    def test_map_preserves_input_order(self, executor):
        # More chunks than workers: the pool hands them out as workers
        # free up, and results still come back in input order.
        items = list(range(23))
        got = executor.map_with_state(_identity_state, 100, _add_state, items)
        assert got == [100 + x for x in items]

    def test_map_with_state(self, executor):
        got = executor.map_with_state(_identity_state, 100, _add_state, [1, 2, 3])
        assert got == [101, 102, 103]

    def test_map_empty(self, executor):
        assert executor.map_with_state(_identity_state, 0, _add_state, []) == []


class TestMakeExecutor:
    def test_kinds(self):
        """The worker count alone picks the executor."""
        assert type(make_executor(1)) is SerialExecutor
        two = make_executor(2)
        assert type(two) is ProcessExecutor and two.n_workers == 2

    def test_default_worker_count_is_positive(self):
        assert make_executor(0).n_workers == default_worker_count() >= 1

    @pytest.mark.parametrize("visible", [1, 3])
    def test_zero_means_all_visible_cpus(self, monkeypatch, visible):
        monkeypatch.setattr(
            "repro.parallel.executors.default_worker_count", lambda: visible
        )
        executor = make_executor(0)
        assert executor.n_workers == visible
        expected = SerialExecutor if visible == 1 else ProcessExecutor
        assert type(executor) is expected

    def test_default_worker_count_honors_cpu_affinity(self, monkeypatch):
        """A cgroup/taskset-limited container must not oversubscribe."""
        import os

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert default_worker_count() == 3

    def test_default_worker_count_without_affinity_uses_cpu_count(
        self, monkeypatch
    ):
        import os

        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert default_worker_count() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert default_worker_count() == 1

    def test_bad_worker_count_rejected(self):
        for bad in (-1, 0):
            with pytest.raises(ConfigError):
                ProcessExecutor(bad)
        with pytest.raises(ConfigError):
            make_executor(-1)
