"""The execution layer: the serial reference and the process pool.

Both executors implement one operation, :meth:`map_with_state`: apply
``fn(state, item)`` to every item, in input order, where the *state* is
built once per worker from a picklable payload.  This is the primitive the
mining fan-out uses: the state (a :class:`~repro.rules.utility.RuleEvaluator`
plus its caches) is expensive to build and cheap to share, while the items
(chunks of grouping-pattern indices) are tiny.

:class:`ProcessExecutor` ships the payload to each worker exactly once via
the pool initializer and submits every chunk as its own task, so idle
workers steal remaining chunks from the pool queue (chunked work-stealing).
Because results are reassembled in input order, both executors are
observationally identical — see the determinism contract in
:mod:`repro.parallel`.  The worker count is the only knob:
:func:`make_executor` turns it into the serial loop (one worker) or a
process pool (more).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Sequence

from repro.obs.runtime import current as obs_current
from repro.parallel.resilience import RetryPolicy, install_plan
from repro.utils.errors import ConfigError

# Per-process state installed by the pool initializer (one per worker).
_WORKER_STATE: Any = None


def _worker_init(
    build_state: Callable[[Any], Any], payload: Any, fault_plan: Any = None
) -> None:
    global _WORKER_STATE
    install_plan(fault_plan)
    _WORKER_STATE = build_state(payload)


def _worker_call(fn: Callable[[Any, Any], Any], item: Any) -> Any:
    return fn(_WORKER_STATE, item)


def _worker_call_tracked(
    fn: Callable[[Any, Any], Any], index: int, attempt: int, item: Any
) -> Any:
    """Resilient-path task: fault hooks keyed by ``(chunk, attempt)``.

    The attempt number ships with the task (not worker state) so injected
    faults stay deterministic across pool respawns — see
    :func:`repro.parallel.resilience.apply_chunk_faults`.
    """
    from repro.parallel.resilience import apply_chunk_faults

    apply_chunk_faults(index, attempt)
    return fn(_WORKER_STATE, item)


def default_worker_count() -> int:
    """Worker count that ``n_workers=0`` resolves to: every visible CPU.

    Honors the CPU *affinity* mask where the platform exposes it, so a
    cgroup- or taskset-limited container (for example 1-CPU CI runners)
    does not oversubscribe its process pool; ``os.cpu_count()`` reports
    the machine's CPUs, not the schedulable ones.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        try:
            return max(1, len(affinity(0)))
        except OSError:  # pragma: no cover - platform-specific failure
            pass
    return max(1, os.cpu_count() or 1)


def chunk_indices(
    n_items: int, n_workers: int, chunks_per_worker: int = 4
) -> list[list[int]]:
    """Split ``range(n_items)`` into contiguous chunks for work-stealing.

    Produces roughly ``n_workers * chunks_per_worker`` chunks so that a slow
    chunk (one grouping pattern with a huge lattice) does not serialise the
    run: workers that finish early pull the next chunk from the pool queue.
    Contiguity keeps per-chunk results easy to reassemble canonically.
    """
    if n_items <= 0:
        return []
    target = max(1, n_workers * chunks_per_worker)
    size = max(1, -(-n_items // target))
    return [
        list(range(start, min(start + size, n_items)))
        for start in range(0, n_items, size)
    ]


class SerialExecutor:
    """The reference executor: plain in-process iteration."""

    kind = "serial"

    def __init__(self) -> None:
        self.n_workers = 1

    def map_with_state(
        self,
        build_state: Callable[[Any], Any],
        payload: Any,
        fn: Callable[[Any, Any], Any],
        items: Sequence[Any],
        retry: "RetryPolicy | None" = None,
        fault_plan: Any = None,
    ) -> list[Any]:
        """Build the state once and apply ``fn(state, item)`` in order.

        ``retry``/``fault_plan`` are accepted for signature parity with the
        process executor and ignored: an in-process executor cannot lose a
        worker, and fault injection targets process pools only.
        """
        with obs_current().tracer.span(
            "parallel.map", kind=self.kind, n_workers=self.n_workers,
            chunks=len(items),
        ):
            state = build_state(payload)
            return [fn(state, item) for item in items]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n_workers={self.n_workers})"


class ProcessExecutor(SerialExecutor):
    """Process-pool executor: chunked work-stealing across CPU cores.

    ``map_with_state`` sends the payload to each worker exactly once (pool
    initializer) and submits each item as its own task; the pool's shared
    queue gives work-stealing for free.  ``build_state`` and ``fn`` must be
    module-level functions and the payload must be picklable.
    """

    kind = "process"

    def __init__(self, n_workers: int) -> None:
        self.n_workers = int(n_workers)
        if self.n_workers < 1:
            raise ConfigError("n_workers must be >= 1")

    def map_with_state(
        self,
        build_state: Callable[[Any], Any],
        payload: Any,
        fn: Callable[[Any, Any], Any],
        items: Sequence[Any],
        retry: "RetryPolicy | None" = None,
        fault_plan: Any = None,
    ) -> list[Any]:
        items = list(items)
        if not items:
            return []
        with obs_current().tracer.span(
            "parallel.map", kind=self.kind, n_workers=self.n_workers,
            chunks=len(items),
        ):
            if retry is None and fault_plan is None:
                with ProcessPoolExecutor(
                    max_workers=min(self.n_workers, len(items)),
                    initializer=_worker_init,
                    initargs=(build_state, payload),
                ) as pool:
                    futures = [
                        pool.submit(_worker_call, fn, item) for item in items
                    ]
                    return [future.result() for future in futures]
            return self._map_resilient(
                build_state, payload, fn, items, retry or RetryPolicy(), fault_plan
            )

    def _map_resilient(
        self,
        build_state: Callable[[Any], Any],
        payload: Any,
        fn: Callable[[Any, Any], Any],
        items: list[Any],
        policy: "RetryPolicy",
        fault_plan: Any,
    ) -> list[Any]:
        """Pool loop that survives worker death, stuck chunks, and bad luck.

        Invariants that keep results bit-identical to the fault-free run:
        chunks are pure functions of immutable inputs, every result is
        stored under its original index, and the output list is assembled
        in input order — so retries, respawns, and the degraded-serial
        path can change *where* a chunk ran but never *what* it returned.

        Failure handling:

        - a chunk raising an ordinary exception is retried on the same
          (still healthy) pool, ``retry.attempts{reason="error"}``;
        - ``BrokenProcessPool`` (a worker died: OOM kill, segfault,
          injected ``os._exit``) charges an attempt to every unfinished
          chunk — the pool cannot say which one killed it — and respawns
          the pool, re-running the initializer,
          ``retry.attempts{reason="worker_lost"}`` + ``pool.respawns``;
        - a chunk exceeding ``policy.chunk_timeout_seconds`` cannot be
          cancelled (the worker is stuck *running* it), so the pool is
          torn down and respawned, ``retry.attempts{reason="timeout"}``;
        - a chunk that exhausts ``max_retries`` runs in-process instead
          (``chunks.degraded_serial``) — unbounded by the timeout, so a
          genuinely slow chunk completes slowly rather than never; a
          genuine error surfaces from here uncaught.  The driver never
          installs the fault plan, so this path is fault-free by
          construction (no injected-kill livelock).
        """
        telemetry = obs_current()

        def count(name: str, **labels) -> None:
            if telemetry.enabled:
                telemetry.registry.inc(name, 1, **labels)

        results: dict[int, Any] = {}
        attempts = {index: 0 for index in range(len(items))}
        pool: ProcessPoolExecutor | None = None
        try:
            while True:
                runnable = [
                    index
                    for index in range(len(items))
                    if index not in results
                    and attempts[index] <= policy.max_retries
                ]
                if not runnable:
                    break
                round_attempt = max(attempts[index] for index in runnable)
                if round_attempt > 0:
                    time.sleep(policy.delay(round_attempt))
                if pool is None:
                    pool = ProcessPoolExecutor(
                        max_workers=min(self.n_workers, len(runnable)),
                        initializer=_worker_init,
                        initargs=(build_state, payload, fault_plan),
                    )
                futures = [
                    (
                        index,
                        pool.submit(
                            _worker_call_tracked,
                            fn,
                            index,
                            attempts[index],
                            items[index],
                        ),
                    )
                    for index in runnable
                ]
                failed: list[tuple[int, str]] = []
                pool_lost = False
                for index, future in futures:
                    if pool_lost:
                        # The pool is gone; harvest whatever finished
                        # before the loss, retry the rest.
                        if future.done():
                            try:
                                results[index] = future.result()
                                continue
                            except Exception:
                                pass
                        failed.append((index, "worker_lost"))
                        continue
                    try:
                        results[index] = future.result(
                            timeout=policy.chunk_timeout_seconds
                        )
                    except FutureTimeoutError:
                        # The worker is stuck *running* this chunk; a
                        # future can't be cancelled once running, so the
                        # only reclaim is replacing the pool.
                        failed.append((index, "timeout"))
                        pool_lost = True
                        self._stop_pool(pool)
                        pool = None
                    except BrokenProcessPool:
                        failed.append((index, "worker_lost"))
                        pool_lost = True
                        self._stop_pool(pool)
                        pool = None
                    except Exception:
                        failed.append((index, "error"))
                for index, reason in failed:
                    attempts[index] += 1
                    count("retry.attempts", reason=reason)
                if pool_lost and any(
                    index not in results
                    and attempts[index] <= policy.max_retries
                    for index in range(len(items))
                ):
                    count("pool.respawns")
        finally:
            if pool is not None:
                pool.shutdown(wait=True)
        degraded = [
            index for index in range(len(items)) if index not in results
        ]
        if degraded:
            state = build_state(payload)
            for index in degraded:
                results[index] = fn(state, items[index])
                count("chunks.degraded_serial")
        return [results[index] for index in range(len(items))]

    @staticmethod
    def _stop_pool(pool: ProcessPoolExecutor) -> None:
        """Hard-stop a broken or stuck pool without waiting on its workers."""
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - shutdown is best-effort
            pass
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:  # pragma: no cover
                pass


def make_executor(n_workers: int) -> SerialExecutor:
    """Build the executor for a worker count.

    ``0`` means all visible CPUs (:func:`default_worker_count`).  A count
    that resolves to 1 gives the in-process :class:`SerialExecutor`; a
    larger one gives a :class:`ProcessExecutor` with that many workers.
    """
    n_workers = n_workers or default_worker_count()
    if n_workers == 1:
        return SerialExecutor()
    return ProcessExecutor(n_workers)


Executor = SerialExecutor
"""Alias for type hints: every executor subclasses the serial reference."""
