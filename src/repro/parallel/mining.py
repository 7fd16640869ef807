"""Process-pool fan-out of FairCap's Step 2 over grouping patterns.

One grouping pattern = one independent work unit: build its
:class:`~repro.rules.utility.GroupEvaluationContext`, run the lattice
search, return the best rule.  This module packages that unit for the
:class:`~repro.parallel.executors.ProcessExecutor`; a single worker never
gets here, because :func:`repro.core.intervention.mine_interventions_detailed`
runs the in-process serial loop instead:

- the *payload* carries everything a worker needs (table, DAG, protected
  group, estimator, config, items, patterns) and is shipped to each process
  exactly once via the pool initializer;
- the *work items* are chunks of grouping-pattern indices
  (:func:`~repro.parallel.executors.chunk_indices`), small enough that the
  pool queue load-balances them across workers (work-stealing);
- every per-pattern result travels with its index, and the final rule list
  is reassembled in index order — the canonical Step-1 mining order the
  serial loop produces, which is what makes results independent of worker
  count (determinism contract, :mod:`repro.parallel`).

Each worker mines its patterns one at a time through
:func:`repro.core.intervention.mine_grouping` — the same per-pattern function
the serial loop uses — so a worker holds one grouping context at a time.
Under ``config.batch_estimation`` (the default) a lattice level is one
GEMM batch per sub-population (:mod:`repro.causal.batch`).  When the caller
passes an :class:`~repro.parallel.cache.EstimationCache`, each worker gets
a copy that stores whole-level entries, which is what keeps results
bit-identical across worker counts — a level's batch composition is
determined by the traversal, never by which worker mined neighbouring
patterns (see ``EstimationCache.rows_level_key``).

This module is imported lazily by :mod:`repro.core.intervention` to keep
``repro.parallel`` importable from ``repro.core.config``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence

from repro.parallel.cache import CacheStats, EstimationCache
from repro.parallel.executors import ProcessExecutor, chunk_indices
from repro.parallel.resilience import RetryPolicy


@dataclass
class _MiningState:
    """Per-worker state: the evaluator plus the shared search inputs.

    ``owns_telemetry`` marks state built by :func:`_build_state` inside a
    process worker, where the worker installed its *own* telemetry session:
    only then may :func:`_mine_chunk` drain it and ship the snapshot back.
    The degraded-serial recovery path builds its state in the caller, which
    shares the caller's session, and draining that would reset the caller's
    registry mid-run.
    """

    evaluator: object
    items: list
    config: object
    patterns: tuple
    owns_telemetry: bool = False
    cache_baseline: CacheStats | None = None


def _build_state(payload: dict) -> _MiningState:
    """Pool initializer target: rebuild the evaluator inside a worker.

    A worker builds a cache only when the caller has one.  It is *seeded*
    from a snapshot of the caller's cache (cross-run warm start) and set to
    record what it computes, so new entries can travel back with the chunk
    results and accumulate in the caller's cache across runs — e.g. across
    the nine variants of a Table 4 block, which would otherwise
    re-estimate everything because each run's process pool is torn down
    at the end.

    The degraded-serial recovery path runs this builder *in the caller*
    (``payload["caller_pid"]`` matches): there it must not install a
    worker telemetry session (that would clobber the caller's live one).

    Each worker builds the moment matrices of the sub-tables it mines,
    exactly as the serial loop does: every context estimates on its own
    sub-table, so nothing built on the caller's root table would be read.
    """
    from repro.rules.utility import RuleEvaluator

    config = payload["config"]
    in_caller = payload.get("caller_pid") == os.getpid()
    owns_telemetry = False
    if getattr(config, "telemetry", False) and not in_caller:
        # The parent's telemetry session does not cross the process
        # boundary; give the worker its own, installed for the pool's
        # lifetime (workers mine many chunks — _mine_chunk drains per
        # chunk so counts never double across chunks).
        from repro.obs.runtime import Telemetry, install

        install(Telemetry(enabled=True))
        owns_telemetry = True
    # A worker has a cache only when the caller has one, with the caller's
    # bound and content.
    cache = None
    if payload["cache_entries"] is not None:
        cache = EstimationCache(payload["cache_entries"])
        cache.seed(payload["cache_snapshot"])
        cache.record_new_entries()
    evaluator = RuleEvaluator(
        payload["table"],
        payload["outcome"],
        payload["dag"],
        payload["protected"],
        estimator=payload["estimator"],
        min_subgroup_size=config.min_subgroup_size,
        cache=cache,
    )
    return _MiningState(
        evaluator=evaluator,
        items=payload["items"],
        config=config,
        patterns=payload["patterns"],
        owns_telemetry=owns_telemetry,
        # Start counting cache activity after the warm-start seeding above.
        cache_baseline=(
            cache.stats() if owns_telemetry and cache is not None else None
        ),
    )


def _mine_chunk(
    state: _MiningState, indices: list[int]
) -> tuple[list[tuple], dict, dict | None]:
    """Chunk worker: mine the best treatment for each grouping pattern.

    Patterns are mined one after another to completion, so every result
    is independent of how patterns were chunked across workers.  Returns
    the per-pattern results, the cache entries this chunk computed (empty
    unless the worker cache is in recording mode), and — from process
    workers with telemetry on — the chunk's drained telemetry snapshot for
    the caller to absorb.
    """
    from repro.core.intervention import mine_grouping

    out = []
    for i in indices:
        result = mine_grouping(
            state.evaluator, state.patterns[i].pattern, state.items, state.config
        )
        out.append((i, result.best, result.nodes_evaluated))
    cache = state.evaluator.cache
    new_entries = cache.drain_new_entries() if cache is not None else {}
    telemetry_payload = None
    if state.owns_telemetry:
        from repro.obs.runtime import current

        telemetry = current()
        if telemetry.enabled:
            if cache is not None:
                # Worker caches live outside the caller's run-end counter
                # sweep; fold this chunk's lookup delta in before draining.
                state.cache_baseline = cache.emit_counters(
                    telemetry.registry, state.cache_baseline
                )
            telemetry_payload = telemetry.drain()
    return out, new_entries, telemetry_payload


def mine_groups_detailed(
    evaluator,
    grouping_patterns: Sequence,
    items: list,
    config,
    executor: ProcessExecutor,
) -> list[tuple]:
    """Per-pattern Step-2 results through a process pool, in input order.

    Returns one ``(best_rule_or_None, nodes_evaluated)`` per grouping
    pattern — the granularity the checkpoint layer persists.  The pool runs
    with the config's :class:`RetryPolicy` and fault plan: worker death,
    chunk timeout, and retry exhaustion are recovered inside
    :meth:`~repro.parallel.executors.ProcessExecutor.map_with_state`
    without changing any result bit (see the determinism contract).
    """
    patterns = tuple(grouping_patterns)
    if not patterns:
        return []

    # Workers rebuild the evaluator from a picklable payload (shipped once
    # per worker via the pool initializer).  The caller's cache content, if
    # it has a cache, rides along as a warm-start snapshot, and each chunk
    # brings its freshly-computed entries back for merging below.
    cache = evaluator.cache
    payload = {
        "table": evaluator.table,
        "outcome": evaluator.outcome,
        "dag": evaluator.dag,
        "protected": evaluator.protected,
        "estimator": evaluator.estimator,
        "config": config,
        "items": items,
        "patterns": patterns,
        "caller_pid": os.getpid(),
        "cache_snapshot": cache.snapshot() if cache is not None else None,
        "cache_entries": cache.max_entries if cache is not None else None,
    }
    chunk_results = executor.map_with_state(
        _build_state,
        payload,
        _mine_chunk,
        chunk_indices(len(patterns), executor.n_workers),
        retry=RetryPolicy.from_config(config),
        fault_plan=getattr(config, "fault_plan", None),
    )

    indexed: list[tuple] = []
    for chunk, new_entries, telemetry_payload in chunk_results:
        indexed.extend(chunk)
        if new_entries:
            cache.seed(new_entries)
        if telemetry_payload is not None:
            # Process workers count in their own registries; fold each
            # chunk's snapshot into the caller's session (counters add,
            # span trees graft under the active faircap.run span).
            from repro.obs.runtime import current

            current().absorb(telemetry_payload)
    indexed.sort(key=lambda entry: entry[0])
    return [(best, nodes) for _, best, nodes in indexed]
