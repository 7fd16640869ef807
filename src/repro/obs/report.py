"""Run reports: one JSON document per instrumented run.

A run report is the serialised form of a telemetry session — counter /
gauge / histogram snapshots, the span tree, and a handful of derived
headline rates (cache hit-rate, popcount prune-rate) that the benchmark
trend gate tracks against committed baselines.  The schema is documented in
``benchmarks/README.md``; bump :data:`REPORT_VERSION` on breaking changes.
"""

from __future__ import annotations

import json
from typing import Mapping

from repro.obs.runtime import Telemetry

REPORT_VERSION = 1


def _counter_total(counters: Mapping, name: str) -> float:
    counter = counters.get(name)
    if not counter:
        return 0.0
    return float(sum(counter["values"].values()))


def _labeled_total(counters: Mapping, name: str, **labels: object) -> float:
    counter = counters.get(name)
    if not counter:
        return 0.0
    want = {f"{k}={v}" for k, v in labels.items()}
    total = 0.0
    for key, value in counter["values"].items():
        parts = set(key.split(",")) if key else set()
        if want <= parts:
            total += value
    return float(total)


def derived_stats(counters: Mapping) -> dict:
    """Headline rates computed from a counters snapshot.

    - ``cache_hit_rate``: cache lookups answered without recomputing,
      across every tier.  The estimation tier's counts are the
      :class:`~repro.parallel.cache.EstimationCache` deltas folded in at
      run end; the factorization tier's are counted per lookup in the
      per-sub-table factorization memo of :mod:`repro.causal.batch`, with
      or without a cache attached, and a miss is one build.  (Within one
      cold run the estimation tier is nearly all misses: a level batch
      hits only when another grouping pattern with identical coverage,
      hence the same sub-table and level digest, estimated it first — 8
      hits against 822 misses on the ``so-run`` benchmark workload — so a
      per-run rate restricted to that tier would be near zero; the
      factorization tier repeats within a context and carries the signal.)
    - ``prune_rate``: lattice candidates rejected by popcount support
      pruning before any estimation;
    - ``scalar_fallback_rate``: estimated columns routed through the scalar
      OLS fallback instead of the batched FWL identities.
    """
    hits = _labeled_total(counters, "cache.lookups", outcome="hit")
    misses = _labeled_total(counters, "cache.lookups", outcome="miss")
    lookups = hits + misses
    candidates = _counter_total(counters, "mining.candidates")
    pruned = _counter_total(counters, "mining.pruned")
    estimated = _counter_total(counters, "mining.estimated_columns")
    fallbacks = _counter_total(counters, "estimation.scalar_fallbacks")
    return {
        "cache_hit_rate": hits / lookups if lookups else 0.0,
        "prune_rate": pruned / candidates if candidates else 0.0,
        "scalar_fallback_rate": fallbacks / estimated if estimated else 0.0,
    }


def build_report(telemetry: Telemetry, meta: dict | None = None) -> dict:
    """Assemble the run-report document for one telemetry session."""
    snapshot = telemetry.registry.snapshot()
    report = {
        "version": REPORT_VERSION,
        "meta": dict(meta) if meta else {},
        "counters": snapshot["counters"],
        "gauges": snapshot["gauges"],
        "histograms": snapshot["histograms"],
        "derived": derived_stats(snapshot["counters"]),
        "spans": telemetry.tracer.to_dicts(),
    }
    return report


def write_report(path: str, report: Mapping) -> None:
    """Write a run report as pretty-printed JSON (trailing newline included)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
