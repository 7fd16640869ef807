"""CI perf-trend gate: compare smoke wall-clock against committed baselines.

The committed ``benchmarks/BENCH_*.json`` records each carry a
``smoke_baseline`` block — the wall-clock of the exact ``--smoke``
configuration CI runs, measured when the record was last regenerated.  This
script compares the current CI run's ``benchmarks/results/*-smoke.json``
outputs against those baselines and

- prints a markdown trend table (the workflow appends it to
  ``$GITHUB_STEP_SUMMARY``), and
- emits a GitHub ``::warning::`` annotation for every benchmark whose
  wall-clock regressed by more than ``--threshold`` (default 20%).

It is a *soft* gate, like the coverage floor: CI runners are heterogeneous
and a wall-clock ratio across machines is a trend signal, not a verdict —
the differential/oracle gates inside the benches themselves remain the hard
correctness gates.  The only hard failures here are missing or malformed
inputs (they mean the pipeline is miswired, not slow).

Usage::

    PYTHONPATH=src python benchmarks/bench_estimation.py --smoke
    PYTHONPATH=src python benchmarks/bench_scenarios.py --smoke
    python benchmarks/trend_gate.py >> "$GITHUB_STEP_SUMMARY"
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RESULTS_DIR = BENCH_DIR / "results"

#: (name, committed baseline record, smoke output written by --smoke)
GATES = (
    ("estimation", BENCH_DIR / "BENCH_estimation.json",
     RESULTS_DIR / "estimation-smoke.json"),
    ("scenarios", BENCH_DIR / "BENCH_scenarios.json",
     RESULTS_DIR / "scenarios-smoke.json"),
    ("serve", BENCH_DIR / "BENCH_serve.json",
     RESULTS_DIR / "serve-smoke.json"),
)


def _load(path: Path) -> dict:
    if not path.exists():
        raise SystemExit(f"trend gate input missing: {path}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise SystemExit(f"trend gate input unreadable: {path}: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="soft-warn when wall-clock regresses by more "
                             "than this fraction (default 0.20)")
    parser.add_argument("--rate-threshold", type=float, default=0.05,
                        help="soft-warn when a telemetry-derived engine rate "
                             "moves the wrong way (cache hit rate or prune "
                             "rate drops, scalar-fallback rate rises) by more "
                             "than this absolute amount vs the committed "
                             "baseline (default 0.05)")
    args = parser.parse_args(argv)

    lines = [
        "## Benchmark trend (smoke wall-clock vs committed baseline)",
        "",
        "| benchmark | baseline s | current s | ratio | status |",
        "|---|---|---|---|---|",
    ]
    warnings: list[str] = []
    for name, baseline_path, smoke_path in GATES:
        baseline_record = _load(baseline_path)
        smoke_record = _load(smoke_path)
        baseline = baseline_record.get("smoke_baseline", {})
        baseline_wall = baseline.get("wall_seconds")
        current_wall = smoke_record.get("wall_seconds") or smoke_record.get(
            "grid_wall_seconds"
        )
        if not smoke_record.get("passed", False):
            warnings.append(
                f"::warning::bench-trend: {name} smoke run reported failures "
                "(see its job step) — timing ignored"
            )
            lines.append(f"| {name} | — | — | — | :x: smoke failed |")
            continue
        if baseline_wall is None or current_wall is None:
            lines.append(
                f"| {name} | {baseline_wall or '—'} | {current_wall or '—'} "
                "| — | no baseline recorded |"
            )
            continue
        ratio = current_wall / baseline_wall if baseline_wall > 0 else float("inf")
        regressed = ratio > 1.0 + args.threshold
        status = (
            f":warning: +{(ratio - 1) * 100:.0f}% over baseline"
            if regressed
            else "ok"
        )
        lines.append(
            f"| {name} | {baseline_wall:.2f} | {current_wall:.2f} "
            f"| {ratio:.2f}x | {status} |"
        )
        if regressed:
            warnings.append(
                f"::warning::bench-trend: {name} smoke wall-clock "
                f"{current_wall:.2f}s is {(ratio - 1) * 100:.0f}% over the "
                f"committed baseline {baseline_wall:.2f}s "
                f"(soft gate, threshold {args.threshold * 100:.0f}%)"
            )

    # -- serving tier (RPS / tail latency / hot-reload probe) ------------------
    # Throughput and p99 against the committed smoke baseline, same soft
    # philosophy as wall-clock.  The hot-reload probe is hard-gated inside
    # bench_serve itself (a failed/hybrid response fails the smoke job);
    # the row here keeps the zero-failed claim visible in the summary.
    smoke_serve = RESULTS_DIR / "serve-smoke.json"
    serve_record = _load(smoke_serve) if smoke_serve.exists() else {}
    serve_baseline = (
        _load(BENCH_DIR / "BENCH_serve.json").get("smoke_baseline", {})
        if (BENCH_DIR / "BENCH_serve.json").exists()
        else {}
    )
    serve_load = serve_record.get("load", {})
    if serve_load and serve_baseline:
        lines.append("")
        lines.append("### Serving tier (smoke load, keep-alive clients)")
        lines.append("")
        lines.append("| metric | baseline | current | status |")
        lines.append("|---|---|---|---|")
        for metric, unit, higher_is_better in (
            ("rps", "req/s", True),
            ("p99_ms", "ms", False),
        ):
            base_value = serve_baseline.get(metric)
            cur_value = serve_load.get(metric)
            if not base_value or cur_value is None:
                lines.append(f"| {metric} | — | — | not recorded |")
                continue
            ratio = cur_value / base_value
            regressed = (
                ratio < 1.0 - args.threshold
                if higher_is_better
                else ratio > 1.0 + args.threshold
            )
            status = (
                f":warning: {'-' if higher_is_better else '+'}"
                f"{abs(ratio - 1) * 100:.0f}% vs baseline"
                if regressed
                else "ok"
            )
            lines.append(
                f"| {metric} | {base_value:,} {unit} | {cur_value:,} {unit} "
                f"| {status} |"
            )
            if regressed:
                direction = "below" if higher_is_better else "over"
                warnings.append(
                    f"::warning::bench-trend: serve {metric} {cur_value:,} "
                    f"is {abs(ratio - 1) * 100:.0f}% {direction} the "
                    f"committed baseline {base_value:,} (soft gate, "
                    f"threshold {args.threshold * 100:.0f}%)"
                )
        probe = serve_record.get("hot_reload_probe", {})
        if probe:
            lines.append(
                f"| hot-reload probe | zero failed | "
                f"{probe.get('completed')}/{probe.get('total_requests')} ok, "
                f"{probe.get('failed')} failed, {probe.get('hybrids')} hybrids "
                f"| {'ok' if probe.get('zero_failed') else ':x: FAILED'} |"
            )

    # -- overhead probes (telemetry, resilience) -------------------------------
    # Hard-gated inside bench_estimation itself (over-budget fails the smoke
    # job after one re-probe); surfaced here so the job summary shows the
    # trend even while both sit comfortably inside budget.
    smoke_estimation = RESULTS_DIR / "estimation-smoke.json"
    estimation_record = (
        _load(smoke_estimation) if smoke_estimation.exists() else {}
    )
    overhead_probes = [
        ("telemetry", estimation_record.get("telemetry_overhead", {})),
        ("resilience", estimation_record.get("resilience_overhead", {})),
        # Out-of-core probe: off = in-RAM table, on = ShardedTable spill.
        # Bit-identity is hard-gated inside the bench; the trend table
        # shows the mining-cost trend.
        ("sharding", estimation_record.get("shard_overhead", {})),
    ]
    if any(probe for _, probe in overhead_probes):
        lines.append("")
        lines.append("### Overhead probes (smoke scale, fault-free run)")
        lines.append("")
        lines.append("| probe | off s | on s | overhead | budget | status |")
        lines.append("|---|---|---|---|---|---|")
        for probe_name, probe_row in overhead_probes:
            if not probe_row:
                lines.append(f"| {probe_name} | — | — | — | — | not recorded |")
                continue
            budget = (
                f"{probe_row.get('max_overhead_pct', 0):.0f}% or "
                f"{probe_row.get('absolute_floor_seconds', 0) * 1e3:.0f}ms"
            )
            lines.append(
                f"| {probe_name} | {probe_row.get('off_seconds', 0):.3f} "
                f"| {probe_row.get('on_seconds', 0):.3f} "
                f"| {probe_row.get('overhead_pct', 0):+.2f}% | {budget} "
                f"| {'ok' if probe_row.get('within_budget') else ':x: over budget'} |"
            )

    # -- out-of-core scale curve (committed record) ----------------------------
    # The curve itself only runs on full bench invocations (three
    # subprocess pairs up to 1M rows), so the gate renders the committed
    # record rather than a smoke measurement: the job summary always shows
    # the current payoff claim of the sharded data layer, and a commit
    # that regenerates the record with an unbounded largest point gets a
    # warning annotation here on top of the bench's own hard failure.
    curve = _load(BENCH_DIR / "BENCH_estimation.json").get("shard_scale_curve")
    if curve:
        lines.append("")
        lines.append(
            f"### Out-of-core scale curve (committed; {curve.get('world')}, "
            f"shard_rows={curve.get('shard_rows')})"
        )
        lines.append("")
        lines.append(
            "| rows | sharded s | sharded peak RSS | in-RAM s "
            "| in-RAM peak RSS | RSS saved |"
        )
        lines.append("|---|---|---|---|---|---|")
        for point in curve.get("points", []):
            sharded, in_ram = point.get("sharded", {}), point.get("in_ram", {})
            lines.append(
                f"| {point.get('rows'):,} | {sharded.get('seconds')} "
                f"| {sharded.get('hwm_kb', 0) / 1024:.0f} MB "
                f"| {in_ram.get('seconds')} "
                f"| {in_ram.get('hwm_kb', 0) / 1024:.0f} MB "
                f"| {point.get('rss_saving_kb', 0) / 1024:.0f} MB |"
            )
        bounded = curve.get("rss_bounded_at_largest")
        lines.append("")
        lines.append(
            "Sharded peak RSS (`VmHWM`) at the largest point below the "
            "in-RAM run's: " + ("yes" if bounded else ":warning: **no**")
        )
        if not bounded:
            warnings.append(
                "::warning::bench-trend: committed shard scale curve shows "
                "the sharded run's peak RSS at its largest point is NOT "
                "below the in-RAM run's — the out-of-core payoff claim "
                "no longer holds in the committed record"
            )

    # -- engine-rate trend (telemetry run report) ------------------------------
    # Unlike wall-clock, these rates are machine-independent: a move the
    # wrong way means the engine is genuinely doing more work per answer
    # (cache churn, lost pruning, columns leaving the batched FWL kernel for
    # the scalar OLS fallback), not that the runner is slow.  Still soft —
    # rates move legitimately when the mining configuration changes.
    baseline_derived = _load(BENCH_DIR / "BENCH_estimation.json").get(
        "run_report_baseline", {}
    ).get("derived", {})
    smoke_path = RESULTS_DIR / "estimation-smoke.json"
    current_derived = (
        _load(smoke_path).get("run_report_baseline", {}).get("derived", {})
        if smoke_path.exists()
        else {}
    )
    if baseline_derived and current_derived:
        lines.append("")
        lines.append("### Engine rates (telemetry run report, smoke scale)")
        lines.append("")
        lines.append("| rate | baseline | current | status |")
        lines.append("|---|---|---|---|")
        for rate, higher_is_better in (
            ("cache_hit_rate", True),
            ("prune_rate", True),
            ("scalar_fallback_rate", False),
        ):
            base_value = baseline_derived.get(rate)
            cur_value = current_derived.get(rate)
            if base_value is None or cur_value is None:
                lines.append(f"| {rate} | — | — | not recorded |")
                continue
            worse = (base_value - cur_value) * (1 if higher_is_better else -1)
            regressed = worse > args.rate_threshold
            moved = "dropped" if higher_is_better else "rose"
            status = f":warning: {moved} {worse:.3f}" if regressed else "ok"
            lines.append(
                f"| {rate} | {base_value:.3f} | {cur_value:.3f} | {status} |"
            )
            if regressed:
                side = "below" if higher_is_better else "above"
                warnings.append(
                    f"::warning::bench-trend: {rate} {cur_value:.3f} is "
                    f"{worse:.3f} {side} the committed baseline "
                    f"{base_value:.3f} (soft gate, threshold "
                    f"{args.rate_threshold:.2f} absolute)"
                )

    lines.append("")
    lines.append(
        "_Soft gate: CI runner speed varies; regressions >"
        f"{args.threshold * 100:.0f}% emit a warning annotation, never a_ "
        "_failure.  Baselines live in the committed `BENCH_*.json` records_ "
        "_(`smoke_baseline` block) and are refreshed by full bench runs._"
    )
    print("\n".join(lines))
    for warning in warnings:
        print(warning)
    return 0


if __name__ == "__main__":
    sys.exit(main())
