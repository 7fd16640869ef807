"""Fault tolerance for the mining runtime: retries, fault injection, checkpoints.

Step-2 mining is the repo's long-running, restartable workload: a
multi-minute process-pool run over thousands of grouping contexts.  One
OOM-killed worker raises ``BrokenProcessPool`` and — before this module —
destroyed the whole run.  Three layers fix that without weakening the
serial ≡ process bit-identity contract (:mod:`repro.parallel`):

- :class:`RetryPolicy` — bounded retries with deterministic, jitter-free
  exponential backoff and an optional per-chunk timeout.  The resilient
  loop in :meth:`~repro.parallel.executors.ProcessExecutor.map_with_state`
  re-executes only unfinished chunks and degrades a chunk that exhausts
  its retries to in-process serial execution instead of failing the run.
  Because every chunk's result is a pure function of immutable inputs and
  results are reassembled in input order, *where* and *how often* a chunk
  runs cannot change any bit of the output.
- :class:`FaultPlan` / :class:`FaultSpec` — a config-driven, fully
  deterministic fault-injection harness.  Faults are keyed by
  ``(chunk, attempt)`` rather than by worker-local "fired once" state, so
  an injected failure fires on exactly the planned execution and the
  retry runs clean — every failure mode is reproducible in tests, no
  seeds or timing races involved.
- :class:`RunCheckpoint` — run-level checkpoint/resume.  With
  ``FairCapConfig.checkpoint_dir`` set, the driver persists each completed
  grouping-context result under a content-addressed run key (table
  fingerprint + digest of the result-determining config fields + the
  mining inputs), so a killed driver resumes instead of remining.  Files
  are written atomically (tmp + rename); a torn file from a crash is
  indistinguishable from a miss and is simply remined.

Fault-plan string schema (CLI ``--fault-plan`` / config ``fault_plan``)::

    plan   := spec (";" spec)*
    spec   := kind [":" field "=" value ("," field "=" value)*]
    kind   := "kill" | "delay" | "raise" | "abort"
    field  := "chunk" | "attempt" | "seconds" | "after"

``kill:chunk=1`` kills the worker process executing chunk 1 (attempt 0);
``delay:chunk=0,seconds=30`` makes chunk 0 sleep (pair with a chunk
timeout to exercise the timeout path); ``raise:chunk=2,attempt=any``
raises :class:`ChaosError` on *every* attempt of chunk 2 (exhausts the
retry budget, forcing the degraded-serial path); ``abort:after=3`` exits
the *driver* after the third checkpoint save (deterministic
crashed-driver tests).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path

from repro.obs.runtime import current as obs_current
from repro.utils.errors import ConfigError, ReproError


class ChaosError(ReproError):
    """Raised by an injected ``raise`` fault (fault-injection harness only)."""


class DriverAbort(SystemExit):
    """Raised by an injected ``abort`` fault: simulates a crashed driver."""


def _count(name: str, **labels) -> None:
    telemetry = obs_current()
    if telemetry.enabled:
        telemetry.registry.inc(name, 1, **labels)


# -- retry policy -------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with deterministic jitter-free exponential backoff.

    ``delay(attempt)`` is a pure function of the attempt number — no
    jitter — so recovery schedules are reproducible.  Jitter exists to
    decorrelate *competing* clients; the mining driver is the segment's
    only retrier, so determinism wins.  ``chunk_timeout_seconds`` bounds a
    single chunk execution inside the pool; a chunk that cannot finish
    under the timeout is retried and, once ``max_retries`` is exhausted,
    runs unbounded in the degraded-serial path (the run completes slowly
    rather than never).
    """

    max_retries: int = 2
    backoff_seconds: float = 0.05
    backoff_multiplier: float = 2.0
    chunk_timeout_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.backoff_seconds < 0:
            raise ConfigError("backoff_seconds must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ConfigError("backoff_multiplier must be >= 1")
        if self.chunk_timeout_seconds is not None and self.chunk_timeout_seconds <= 0:
            raise ConfigError("chunk_timeout_seconds must be > 0 or None")

    def delay(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (attempt 1 = first retry)."""
        if attempt <= 0:
            return 0.0
        return self.backoff_seconds * self.backoff_multiplier ** (attempt - 1)

    @classmethod
    def from_config(cls, config) -> "RetryPolicy":
        return cls(
            max_retries=getattr(config, "max_chunk_retries", 2),
            backoff_seconds=getattr(config, "retry_backoff_seconds", 0.05),
            chunk_timeout_seconds=getattr(config, "chunk_timeout_seconds", None),
        )


# -- fault-injection harness --------------------------------------------------

FAULT_KINDS = ("kill", "delay", "raise", "abort")

#: Sentinel for "fire on every attempt" (spelled ``attempt=any`` in plans).
ANY_ATTEMPT = -1


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    ``chunk``/``attempt`` select the execution the fault fires on
    (``chunk=None`` matches every chunk, ``attempt=ANY_ATTEMPT`` every
    attempt); ``seconds`` is the sleep length for ``delay``; ``after`` is
    the checkpoint-save count an ``abort`` fault triggers on.
    """

    kind: str
    chunk: int | None = None
    attempt: int = 0
    seconds: float = 0.25
    after: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r}; choose from {list(FAULT_KINDS)}"
            )
        if self.seconds < 0:
            raise ConfigError("fault seconds must be >= 0")
        if self.after < 1:
            raise ConfigError("abort 'after' must be >= 1")

    def matches(self, chunk: int, attempt: int) -> bool:
        if self.kind == "abort":
            return False  # not chunk-scoped
        if self.chunk is not None and self.chunk != chunk:
            return False
        return self.attempt in (ANY_ATTEMPT, attempt)

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        kind, _, rest = text.strip().partition(":")
        kwargs: dict = {}
        if rest:
            for part in rest.split(","):
                key, sep, value = part.partition("=")
                key = key.strip()
                value = value.strip()
                if not sep or key not in ("chunk", "attempt", "seconds", "after"):
                    raise ConfigError(f"bad fault field {part!r} in {text!r}")
                if key == "seconds":
                    kwargs[key] = float(value)
                elif key == "attempt" and value == "any":
                    kwargs[key] = ANY_ATTEMPT
                else:
                    kwargs[key] = int(value)
        return cls(kind=kind.strip(), **kwargs)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, picklable set of planned faults.

    Travels to process workers via the pool-initializer args (so a
    respawned pool re-installs it) and is consulted by
    :func:`apply_chunk_faults` at the top of every chunk execution.
    """

    specs: tuple[FaultSpec, ...] = ()

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        specs = tuple(
            FaultSpec.parse(part) for part in text.split(";") if part.strip()
        )
        if not specs:
            raise ConfigError(f"empty fault plan {text!r}")
        return cls(specs)

    def abort_after(self) -> int | None:
        for spec in self.specs:
            if spec.kind == "abort":
                return spec.after
        return None

    def chunk_faults(self, chunk: int, attempt: int) -> list[FaultSpec]:
        return [spec for spec in self.specs if spec.matches(chunk, attempt)]


#: The plan active in *this* process (installed by the pool initializer in
#: workers; never installed in the driver, so the degraded-serial path and
#: in-process executors run fault-free by construction).
_ACTIVE_PLAN: FaultPlan | None = None


def install_plan(plan: FaultPlan | None) -> None:
    global _ACTIVE_PLAN
    _ACTIVE_PLAN = plan


def apply_chunk_faults(chunk: int, attempt: int) -> None:
    """Fire any planned fault for this ``(chunk, attempt)`` execution.

    Keying on the attempt number (shipped with the task, not read from
    worker state) is what makes injection deterministic across pool
    respawns: a killed worker takes its memory with it, but the retry
    arrives tagged ``attempt=1`` and a ``kill`` spec pinned to attempt 0
    stays quiet.
    """
    plan = _ACTIVE_PLAN
    if plan is None:
        return
    for spec in plan.chunk_faults(chunk, attempt):
        if spec.kind == "delay":
            time.sleep(spec.seconds)
        elif spec.kind == "raise":
            raise ChaosError(
                f"injected failure on chunk {chunk} attempt {attempt}"
            )
        elif spec.kind == "kill":
            os._exit(17)  # simulate SIGKILL/OOM: no cleanup, no excuses


def maybe_driver_abort(plan: FaultPlan | None, saves: int) -> None:
    """Abort the driver after the planned number of checkpoint saves."""
    if plan is None:
        return
    after = plan.abort_after()
    if after is not None and saves == after:
        raise DriverAbort(17)


# -- checkpoint / resume ------------------------------------------------------

#: Config fields that cannot change mined results (worker count, caching,
#: observability, and the resilience knobs themselves), excluded from the
#: run key so a resume may e.g. use a different worker count.
RESULT_NEUTRAL_CONFIG_FIELDS = frozenset(
    {
        "n_workers",
        "cache_size",
        "telemetry",
        "checkpoint_dir",
        "fault_plan",
        "max_chunk_retries",
        "chunk_timeout_seconds",
        "retry_backoff_seconds",
    }
)


def _digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


def config_digest(config) -> str:
    """Digest of the result-determining config fields.

    The engine flag ``batch_estimation`` stays *in* the key although the
    differential suite proves it result-identical: resuming across a flag
    flip would be correct but impossible to audit.  Only fields that are
    result-neutral by construction (where the work runs, not what it
    computes) are excluded.
    """
    keyed = [
        (f.name, getattr(config, f.name))
        for f in dataclass_fields(config)
        if f.name not in RESULT_NEUTRAL_CONFIG_FIELDS
    ]
    return _digest(keyed)


class RunCheckpoint:
    """Content-addressed persistence of per-grouping-context mining results.

    Layout: ``<directory>/<run_key>/ctx-<index>-<pattern_digest>.pkl``, one
    pickle of ``(best_rule, nodes_evaluated)`` per grouping context.  The
    run key pins everything that determines results (table content, config
    digest, treatment items, DAG, protected group, outcome); the per-file
    pattern digest additionally pins the grouping pattern at that index,
    so a resume against a changed pattern list remines exactly the changed
    positions.  Saves are atomic (tmp + :func:`os.replace`); loads treat
    any unreadable file as a miss.
    """

    def __init__(self, directory, run_key: str) -> None:
        self.root = Path(directory) / run_key
        self.root.mkdir(parents=True, exist_ok=True)
        # Every context is addressed twice per run (load probe, then save);
        # memoise the digested path so the pattern is hashed once.
        self._paths: dict[tuple[int, object], Path] = {}

    @classmethod
    def for_run(cls, directory, evaluator, config, items) -> "RunCheckpoint":
        dag = evaluator.dag
        key = _digest(
            "faircap-step2",
            evaluator.table.fingerprint(),
            evaluator.outcome,
            config_digest(config),
            [repr(item) for item in items],
            sorted(dag.edges) if dag is not None else None,
            (repr(evaluator.protected.pattern), evaluator.protected.name)
            if evaluator.protected is not None
            else None,
        )
        return cls(directory, key)

    def _path(self, index: int, pattern) -> Path:
        key = (index, pattern)
        path = self._paths.get(key)
        if path is None:
            path = self.root / f"ctx-{index:05d}-{_digest(pattern)}.pkl"
            self._paths[key] = path
        return path

    def load(self, index: int, pattern):
        """The saved ``(best, nodes)`` for this context, or ``None``."""
        path = self._path(index, pattern)
        try:
            with open(path, "rb") as fh:
                result = pickle.load(fh)
        except (OSError, EOFError, pickle.UnpicklingError, AttributeError):
            return None  # missing or torn by a crash mid-write: remine
        _count("checkpoint.resumed")
        return result

    def save(self, index: int, pattern, best, nodes: int) -> None:
        path = self._path(index, pattern)
        tmp = str(path) + f".{os.getpid()}.tmp"
        data = pickle.dumps((best, nodes))
        # Low-level write path: this runs once per grouping context inside
        # the mining loop, and the buffered-``open`` wrapper alone costs as
        # much as the write itself at that call rate.
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            os.write(fd, data)
        finally:
            os.close(fd)
        os.replace(tmp, path)
        _count("checkpoint.saved")
