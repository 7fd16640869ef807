"""Pluggable parallel execution for the FairCap pipeline.

Step 2 of FairCap (treatment mining) dominates end-to-end runtime: every
grouping pattern spawns a lattice search whose nodes each cost one or more
OLS fits.  The work is embarrassingly parallel *across grouping patterns*
(the paper's optimisation (ii)) and largely redundant *across variants and
repeated runs* (the same sub-population / treatment / adjustment-set triple
is re-estimated again and again).  This package addresses both:

- :mod:`repro.parallel.executors` — the execution layer, chosen by the
  worker count alone (:func:`~repro.parallel.executors.make_executor`): one
  worker runs the in-process
  :class:`~repro.parallel.executors.SerialExecutor` (the reference), more
  run the :class:`~repro.parallel.executors.ProcessExecutor` (chunked
  work-stealing over candidate grouping patterns via a process pool).
- :mod:`repro.parallel.cache` — :class:`~repro.parallel.cache.EstimationCache`,
  a content-addressed memo of ``estimate_cate`` results keyed by
  ``(estimator, table fingerprint, treated mask, outcome, adjustment set)``
  so overlapping candidates share estimation work across problem variants
  and experiment runs.  A caller that runs several variants passes one;
  a single run builds none, since almost nothing recurs inside it.
- :mod:`repro.parallel.mining` — the process-pool fan-out of Step 2
  (imported lazily by :mod:`repro.core.intervention`; it is *not* re-exported
  here to keep this package importable from :mod:`repro.core.config`).

Determinism contract
--------------------
FairCap results are **bit-for-bit identical regardless of executor and
worker count**.  The guarantees that make this hold:

1. *Canonical work order.*  Grouping patterns are numbered before fan-out
   and every executor reassembles per-pattern results by that index, so the
   candidate-rule list entering greedy selection is always in Step-1 mining
   order — the same canonical order the serial loop produces.
2. *Independent work units.*  A grouping pattern's lattice search reads only
   immutable inputs (table, DAG, config); nothing about one pattern's
   outcome influences another's, so partitioning cannot change any result.
3. *Identical arithmetic.*  Workers run the exact same estimation code on
   the exact same rows; no reduction is order-sensitive (per-pattern results
   are concatenated, never summed across workers in arrival order).
4. *Transparent caching.*  :class:`~repro.parallel.cache.EstimationCache` is
   keyed by the full content of an estimation problem, so a hit returns a
   value identical to what recomputation would produce; cache state can
   never alter a result, only its latency.

The differential suite ``tests/parallel/test_equivalence.py`` locks this
contract down by asserting rule-for-rule, metric-for-metric equality between
executors on every bundled dataset.

The names below resolve on first access (PEP 562).
"""

from repro._lazy import lazy_exports

#: Export -> the submodule it is re-exported from.
_LAZY = {
    name: f"repro.parallel.{module}"
    for module, names in (
        ("cache", ("CacheStats", "EstimationCache")),
        ("executors", (
            "Executor", "ProcessExecutor", "SerialExecutor", "chunk_indices",
            "make_executor",
        )),
        ("resilience", (
            "ChaosError", "FaultPlan", "FaultSpec", "RetryPolicy", "RunCheckpoint",
        )),
    )
    for name in names
}

__all__ = [
    "CacheStats",
    "ChaosError",
    "EstimationCache",
    "Executor",
    "FaultPlan",
    "FaultSpec",
    "ProcessExecutor",
    "RetryPolicy",
    "RunCheckpoint",
    "SerialExecutor",
    "chunk_indices",
    "make_executor",
]

__getattr__, __dir__ = lazy_exports(__name__, _LAZY)
