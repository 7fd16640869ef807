"""Engine comparison for Step-2 mining: scalar reference vs default engine.

Runs FairCap's Step 2 (treatment mining) on the German Table-4 configuration
at increasing row counts through two engines:

- ``scalar``  — per-candidate OLS (``batch_estimation=False``), the
  differential reference;
- ``default`` — the batched engine: each grouping pattern mined to
  completion, lattice levels composed from packed item bitsets with
  popcount pruning, one GEMM pair per (sub-population, adjustment set).

Every batched run is differentially checked against its scalar twin — same
lattice, same candidate rules (rtol 1e-9 on utilities), same selected
ruleset — a speedup only counts if the answer is unchanged.

The out-of-core data layer is probed twice.  A *shard-overhead probe*
(every invocation) mines the 4k-row German workload in RAM and through a
``ShardedTable`` spill and enforces both bit-identity and a ≤5% Step-2
cost.  A *scale curve* (full runs only) mines one scenario world sharded
vs in-RAM at 30k/100k/1M rows in fresh subprocesses (``scale_child.py``)
and records wall-clock plus peak RSS (``VmHWM``) and peak address space
(``VmPeak``) per point; the committed curve pins the payoff — the
1M-row world completes with peak RSS below the in-RAM run's.

Usage::

    PYTHONPATH=src python benchmarks/bench_estimation.py            # full curve
    PYTHONPATH=src python benchmarks/bench_estimation.py --sizes 1000,4000
    PYTHONPATH=src python benchmarks/bench_estimation.py --smoke    # CI job

Outputs:

- ``benchmarks/BENCH_estimation.json`` — machine-readable record (schema in
  ``benchmarks/README.md``); the committed copy is the perf trajectory of
  the repository and carries the ``smoke_baseline`` block the CI
  ``bench-trend`` job compares against.
- ``benchmarks/results/estimation.txt`` — human-readable table.
- ``--smoke`` writes ``benchmarks/results/estimation-smoke.{txt,json}``
  instead (deterministic paths; never touches the committed record).

``--smoke`` shrinks the run to a plumbing/equality check.  Wall-clock
numbers are recorded, not gated: only differential mismatches and the
overhead budgets below fail a run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from benchenv import environment
from repro.core.faircap import FairCap
from repro.experiments.settings import ExperimentSettings

BENCH_DIR = Path(__file__).resolve().parent
JSON_PATH = BENCH_DIR / "BENCH_estimation.json"
TEXT_PATH = BENCH_DIR / "results" / "estimation.txt"
SMOKE_TEXT_PATH = BENCH_DIR / "results" / "estimation-smoke.txt"
SMOKE_JSON_PATH = BENCH_DIR / "results" / "estimation-smoke.json"

RTOL = 1e-9
SMOKE_ROWS = 800

# Telemetry must be free when off and near-free when on: the telemetry-on
# default run may cost at most 1% over telemetry-off — OR at most 10 ms
# absolute, whichever is larger.  The absolute floor exists because the
# instrumentation cost is a near-fixed few milliseconds per run (counter
# folds and span bookkeeping, not per-candidate work): at smoke scale
# (~150 ms of Step 2) a 1% budget is ~1.5 ms, below scheduler noise on
# shared CI boxes, while at experiment scale (seconds) the 1% relative
# budget is the binding constraint.  The floor still catches real
# regressions — per-event emission on the cache-lookup path, the kind of
# mistake this gate exists for, costs ~20 ms at smoke scale.
TELEMETRY_OVERHEAD_MAX_PCT = 1.0
TELEMETRY_OVERHEAD_FLOOR_SECONDS = 0.010

# Same budget shape for the fault-tolerance layer: a fault-free run with
# checkpointing enabled (the priciest resilience feature a healthy run
# pays for — one pickle + atomic rename per grouping context, plus the
# run-key digest) may cost at most 1% over the plain run, or 10 ms
# absolute, whichever is larger.  The retry/fault-injection plumbing
# itself adds only per-chunk argument passing and is covered by the same
# measurement: the checkpointed side runs the full resilient loop.
RESILIENCE_OVERHEAD_MAX_PCT = 1.0
RESILIENCE_OVERHEAD_FLOOR_SECONDS = 0.010

# Out-of-core data layer: Step-2 mining through a ShardedTable handle
# (packed predicate words merged from shard segments, context gathers off
# the store) may cost at most 5% over the in-RAM table on the same rows —
# and must stay bit-identical, which the probe checks with the full
# differential comparison.  Probed at the 4k experiment scale, where shard
# traffic is real work rather than fixed-cost noise.
SHARD_OVERHEAD_MAX_PCT = 5.0
SHARD_OVERHEAD_FLOOR_SECONDS = 0.010
SHARD_PROBE_ROWS = 4_000
SHARD_PROBE_SHARD_ROWS = 1_024

#: Out-of-core scale curve (full runs only): one scenario world mined
#: sharded vs in-RAM at SO scale (30k), 100k and 1M rows, each point in a
#: fresh subprocess so the VmHWM/VmPeak high-water marks of one point
#: cannot leak into the next.  The committed curve is the payoff record of
#: the sharded data layer: the 1M-row world mines to completion with peak
#: RSS below the in-RAM run's.
SCALE_WORLD = "linear-g3-d1-gap-lo"
SCALE_SIZES = (30_000, 100_000, 1_000_000)
SCALE_SHARD_ROWS = 4_096
SCALE_CHILD = BENCH_DIR / "scale_child.py"

ENGINES = ("scalar", "default")


def _engine_configs(config):
    return {"scalar": replace(config, batch_estimation=False), "default": config}


def _parse_sizes(text: str) -> list[int]:
    sizes = sorted({int(part) for part in text.split(",") if part.strip()})
    if not sizes or any(s < 200 for s in sizes):
        raise argparse.ArgumentTypeError("sizes must be integers >= 200")
    return sizes


def _check_identical(scalar, candidate, label: str) -> list[str]:
    """Differential check vs the scalar engine; returns mismatch strings."""
    problems: list[str] = []
    if candidate.nodes_evaluated != scalar.nodes_evaluated:
        problems.append(
            f"{label}: lattice differs: {candidate.nodes_evaluated} vs "
            f"{scalar.nodes_evaluated} nodes"
        )
    if len(candidate.candidate_rules) != len(scalar.candidate_rules):
        problems.append(f"{label}: candidate count differs")
    else:
        for got, want in zip(candidate.candidate_rules, scalar.candidate_rules):
            if got.grouping != want.grouping or got.intervention != want.intervention:
                problems.append(
                    f"{label}: candidate patterns differ: {got} vs {want}"
                )
                break
            for field in ("utility", "utility_protected", "utility_non_protected"):
                a, b = getattr(got, field), getattr(want, field)
                if abs(a - b) > RTOL * max(abs(a), abs(b), 1.0):
                    problems.append(
                        f"{label}: {field} differs on {got.grouping}: {a} vs {b}"
                    )
                    break
    got_rules = [(r.grouping, r.intervention) for r in candidate.ruleset.rules]
    want_rules = [(r.grouping, r.intervention) for r in scalar.ruleset.rules]
    if got_rules != want_rules:
        problems.append(f"{label}: selected rulesets differ")
    return problems


def _run(config, bundle):
    return FairCap(config).run(
        bundle.table, bundle.schema, bundle.dag, bundle.protected
    )


def _time_step2(configs: dict, bundle, reps: int) -> dict:
    """Best ``treatment_mining`` seconds per engine, rotated interleaving.

    The first (un-timed) run warms the caches every engine shares — the
    DAG's d-separation/backdoor memos and the per-table fingerprints — so
    no engine gets a cold-cache handicap.  No run carries an estimation
    cache: ``FairCap`` builds none unless its caller passes one, and this
    bench passes none.  The engine order is rotated every rep (a fixed
    order hands whichever engine runs after the slow scalar pass a
    systematic thermal/cache handicap), and the *minimum* across reps is
    reported: on shared single-core boxes the minimum is the
    interference-robust statistic — any slower sample is the same
    deterministic computation plus noise.
    """
    _run(next(iter(configs.values())), bundle)
    times: dict[str, list[float]] = {name: [] for name in configs}
    results: dict[str, object] = {}
    names = list(configs)
    for rep in range(reps):
        order = names[rep % len(names):] + names[: rep % len(names)]
        for name in order:
            results[name] = _run(configs[name], bundle)
            times[name].append(results[name].timings["treatment_mining"])
    return {name: (min(times[name]), results[name]) for name in configs}


def _measure_size(settings, dataset: str, variant: str, reps: int):
    bundle = settings.load(dataset)
    variants = settings.variants_for(bundle)
    if variant not in variants:
        raise SystemExit(
            f"unknown variant {variant!r}; choose from: "
            f"{', '.join(sorted(variants))}"
        )
    config = settings.config_for(bundle, variants[variant])
    timed = _time_step2(_engine_configs(config), bundle, reps)
    scalar_seconds, scalar_result = timed["scalar"]
    default_seconds, default_result = timed["default"]
    problems = _check_identical(scalar_result, default_result, "default")
    row = {
        "rows": bundle.table.n_rows,
        "scalar_seconds": round(scalar_seconds, 4),
        "default_seconds": round(default_seconds, 4),
        "speedup_vs_scalar": round(scalar_seconds / default_seconds, 2)
        if default_seconds > 0
        else float("inf"),
        "nodes_evaluated": default_result.nodes_evaluated,
        "identical": not problems,
    }
    return row, problems


def _measure_telemetry_overhead(settings, dataset: str, variant: str, reps: int):
    """Telemetry-on vs telemetry-off cost of the default engine.

    Alternating interleaved order (off/on, then on/off, ...) with the
    minimum across reps on each side — the same interference-robust
    protocol as :func:`_time_step2`.  Returns the overhead row plus the
    telemetry-on run's report (whose derived rates become the committed
    trend baseline).
    """
    bundle = settings.load(dataset)
    variants = settings.variants_for(bundle)
    config = settings.config_for(bundle, variants[variant])
    config_on = replace(config, telemetry=True)
    _run(config, bundle)  # warm the shared DAG/backdoor memos
    times: dict[str, list[float]] = {"off": [], "on": []}
    report = None
    # The deltas under test are single-digit milliseconds; the min over
    # fewer than ~5 alternating reps still carries scheduler noise of the
    # same magnitude.
    reps = max(reps, 5)
    for rep in range(reps):
        order = ("off", "on") if rep % 2 == 0 else ("on", "off")
        for mode in order:
            result = _run(config_on if mode == "on" else config, bundle)
            times[mode].append(result.timings["treatment_mining"])
            if mode == "on":
                report = result.telemetry
    off_seconds = min(times["off"])
    on_seconds = min(times["on"])
    delta = on_seconds - off_seconds
    overhead_pct = 100.0 * delta / off_seconds if off_seconds > 0 else 0.0
    row = {
        "rows": bundle.table.n_rows,
        "reps": reps,
        "off_seconds": round(off_seconds, 4),
        "on_seconds": round(on_seconds, 4),
        "overhead_pct": round(overhead_pct, 2),
        "max_overhead_pct": TELEMETRY_OVERHEAD_MAX_PCT,
        "absolute_floor_seconds": TELEMETRY_OVERHEAD_FLOOR_SECONDS,
        "within_budget": (
            delta <= TELEMETRY_OVERHEAD_FLOOR_SECONDS
            or overhead_pct <= TELEMETRY_OVERHEAD_MAX_PCT
        ),
    }
    return row, report


def _measure_resilience_overhead(settings, dataset: str, variant: str, reps: int):
    """Fault-free cost of the resilience tier: plain vs checkpointed run.

    The checkpointed side pays everything a healthy resilient run pays —
    the run-key digest, one pickle + atomic rename per grouping context,
    and the per-window driver-abort check — against a *fresh* directory
    every rep (a warm resume would measure the resume path instead).
    Alternating interleaved order with the minimum per side, the same
    protocol as :func:`_measure_telemetry_overhead`.
    """
    import shutil
    import tempfile

    bundle = settings.load(dataset)
    variants = settings.variants_for(bundle)
    config = settings.config_for(bundle, variants[variant])
    _run(config, bundle)  # warm the shared DAG/backdoor memos
    times: dict[str, list[float]] = {"off": [], "on": []}
    reps = max(reps, 5)
    for rep in range(reps):
        order = ("off", "on") if rep % 2 == 0 else ("on", "off")
        for mode in order:
            if mode == "on":
                scratch = tempfile.mkdtemp(prefix="bench-checkpoint-")
                try:
                    result = _run(
                        replace(config, checkpoint_dir=scratch), bundle
                    )
                finally:
                    shutil.rmtree(scratch, ignore_errors=True)
            else:
                result = _run(config, bundle)
            times[mode].append(result.timings["treatment_mining"])
    off_seconds = min(times["off"])
    on_seconds = min(times["on"])
    delta = on_seconds - off_seconds
    overhead_pct = 100.0 * delta / off_seconds if off_seconds > 0 else 0.0
    return {
        "rows": bundle.table.n_rows,
        "reps": reps,
        "off_seconds": round(off_seconds, 4),
        "on_seconds": round(on_seconds, 4),
        "overhead_pct": round(overhead_pct, 2),
        "max_overhead_pct": RESILIENCE_OVERHEAD_MAX_PCT,
        "absolute_floor_seconds": RESILIENCE_OVERHEAD_FLOOR_SECONDS,
        "within_budget": (
            delta <= RESILIENCE_OVERHEAD_FLOOR_SECONDS
            or overhead_pct <= RESILIENCE_OVERHEAD_MAX_PCT
        ),
    }


def _measure_shard_overhead(settings, dataset: str, variant: str, reps: int):
    """In-RAM vs out-of-core cost of the default engine on the same rows.

    With ``shard_rows`` set, ``FairCap.run`` spills the table into a
    columnar shard store and mines against the ShardedTable handle; the
    contract is bit-identity at near-zero Step-2 cost, because packed
    predicate words merge exactly from shard segments and every context
    gather is a content-identical sub-table.  Alternating interleaved
    order with the per-side minimum, like the other probes.  The timed
    phase (``treatment_mining``) excludes the one-time spill write — an
    ingest cost each rep pays outside the timer.  Returns the overhead row
    plus any differential mismatches (a hard failure, not an overhead).
    """
    bundle = settings.load(dataset)
    variants = settings.variants_for(bundle)
    config = settings.config_for(bundle, variants[variant])
    config_sharded = replace(config, shard_rows=SHARD_PROBE_SHARD_ROWS)
    _run(config, bundle)  # warm the shared DAG/backdoor memos
    times: dict[str, list[float]] = {"off": [], "on": []}
    results: dict[str, object] = {}
    reps = max(reps, 3)
    for rep in range(reps):
        order = ("off", "on") if rep % 2 == 0 else ("on", "off")
        for mode in order:
            result = _run(config_sharded if mode == "on" else config, bundle)
            times[mode].append(result.timings["treatment_mining"])
            results[mode] = result
    problems = _check_identical(results["off"], results["on"], "sharded")
    off_seconds = min(times["off"])
    on_seconds = min(times["on"])
    delta = on_seconds - off_seconds
    overhead_pct = 100.0 * delta / off_seconds if off_seconds > 0 else 0.0
    row = {
        "rows": bundle.table.n_rows,
        "shard_rows": SHARD_PROBE_SHARD_ROWS,
        "reps": reps,
        "off_seconds": round(off_seconds, 4),
        "on_seconds": round(on_seconds, 4),
        "overhead_pct": round(overhead_pct, 2),
        "max_overhead_pct": SHARD_OVERHEAD_MAX_PCT,
        "absolute_floor_seconds": SHARD_OVERHEAD_FLOOR_SECONDS,
        "identical": not problems,
        "within_budget": (
            delta <= SHARD_OVERHEAD_FLOOR_SECONDS
            or overhead_pct <= SHARD_OVERHEAD_MAX_PCT
        ),
    }
    return row, problems


def _run_scale_point(mode: str, n: int) -> dict:
    """One scale-curve point, in a fresh subprocess (clean memory peaks)."""
    import subprocess

    completed = subprocess.run(
        [
            sys.executable,
            str(SCALE_CHILD),
            mode,
            SCALE_WORLD,
            str(n),
            str(SCALE_SHARD_ROWS),
        ],
        capture_output=True,
        text=True,
        timeout=1800,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"scale child failed ({mode}, n={n}):\n"
            f"{completed.stdout}\n{completed.stderr}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _measure_scale_curve() -> dict:
    """Sharded vs in-RAM wall-clock and peak memory at 30k/100k/1M rows.

    Both sides run the default engine without an estimation cache (see
    ``scale_child.py``) so the peaks compare the data layer itself: the sharded side samples the world
    chunk-by-chunk straight into the shard store and never materialises
    the full table, the in-RAM side holds it for the whole run.  The two
    sides draw different sample streams (chunked sampling advances the
    rng differently), so the curve records memory and time, not equality
    — bit-identity on a *shared* table is the differential suite's and
    the shard-overhead probe's job.
    """
    points = []
    for n in SCALE_SIZES:
        sharded = _run_scale_point("sharded", n)
        in_ram = _run_scale_point("unsharded", n)
        points.append(
            {
                "rows": n,
                "sharded": sharded,
                "in_ram": in_ram,
                "rss_saving_kb": in_ram["hwm_kb"] - sharded["hwm_kb"],
                "peak_saving_kb": in_ram["peak_kb"] - sharded["peak_kb"],
            }
        )
    largest = points[-1]
    return {
        "world": SCALE_WORLD,
        "shard_rows": SCALE_SHARD_ROWS,
        "mining_config": "default engine, no estimation cache (both modes)",
        "points": points,
        "rss_bounded_at_largest": (
            largest["sharded"]["hwm_kb"] < largest["in_ram"]["hwm_kb"]
        ),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", default="german",
                        choices=["german", "stackoverflow"])
    parser.add_argument("--sizes", type=_parse_sizes, default=None,
                        help="comma-separated row counts "
                             "(default 1000,2000,<experiment scale>)")
    parser.add_argument("--reps", type=int, default=5,
                        help="rotated interleaved runs per (engine, size); "
                             "the minimum counts")
    parser.add_argument("--variant", default="No constraints",
                        help="problem variant to mine (default: the slowest)")
    parser.add_argument("--smoke", action="store_true",
                        help=f"tiny configuration for CI: {SMOKE_ROWS} rows, "
                             "1 rep, equality check only; writes "
                             "results/estimation-smoke.{txt,json}")
    args = parser.parse_args(argv)

    base = ExperimentSettings.from_environment()
    experiment_n = base.rows_for(args.dataset)
    if args.smoke:
        sizes = [SMOKE_ROWS]
        args.reps = 1
    elif args.sizes is not None:
        sizes = args.sizes
    else:
        sizes = sorted({1_000, 2_000, experiment_n})

    rows = []
    failures: list[str] = []
    wall_start = time.perf_counter()
    for n in sizes:
        settings = ExperimentSettings(so_n=n, german_n=n, seed=base.seed)
        row, problems = _measure_size(settings, args.dataset, args.variant, args.reps)
        failures.extend(f"n={n}: {p}" for p in problems)
        rows.append(row)

    # Telemetry overhead always runs at smoke scale: the same configuration
    # CI gates on, whether this is a smoke or a full invocation.
    overhead_settings = ExperimentSettings(
        so_n=SMOKE_ROWS, german_n=SMOKE_ROWS, seed=base.seed
    )
    probe_start = time.perf_counter()
    overhead, run_report = _measure_telemetry_overhead(
        overhead_settings, args.dataset, args.variant, args.reps
    )
    if not overhead["within_budget"]:
        # One re-probe before declaring failure: a single measurement can
        # land in an unlucky scheduling window (observed: the same build
        # spanning -10% to +12% back to back on a shared box).  A real
        # regression is persistent and fails the second probe too.
        overhead, run_report = _measure_telemetry_overhead(
            overhead_settings, args.dataset, args.variant, args.reps
        )
        overhead["remeasured"] = True
    if not overhead["within_budget"]:
        failures.append(
            f"telemetry overhead {overhead['overhead_pct']:.2f}% exceeds "
            f"{TELEMETRY_OVERHEAD_MAX_PCT:.0f}% "
            f"({overhead['off_seconds']:.3f}s off vs "
            f"{overhead['on_seconds']:.3f}s on)"
        )
    # Resilience-overhead probe, same scale and re-probe discipline: the
    # fault-tolerance layer must be near-free on runs where nothing fails.
    resilience = _measure_resilience_overhead(
        overhead_settings, args.dataset, args.variant, args.reps
    )
    if not resilience["within_budget"]:
        resilience = _measure_resilience_overhead(
            overhead_settings, args.dataset, args.variant, args.reps
        )
        resilience["remeasured"] = True
    if not resilience["within_budget"]:
        failures.append(
            f"resilience overhead {resilience['overhead_pct']:.2f}% exceeds "
            f"{RESILIENCE_OVERHEAD_MAX_PCT:.0f}% "
            f"({resilience['off_seconds']:.3f}s plain vs "
            f"{resilience['on_seconds']:.3f}s checkpointed)"
        )
    # Shard-overhead probe: the out-of-core data layer must be near-free
    # and bit-identical on the workload it exists for.  Probed at the 4k
    # experiment scale (not smoke scale) in every invocation, with the
    # same re-probe discipline as the other overhead gates.
    shard_settings = ExperimentSettings(
        so_n=SHARD_PROBE_ROWS, german_n=SHARD_PROBE_ROWS, seed=base.seed
    )
    shard_overhead, shard_problems = _measure_shard_overhead(
        shard_settings, args.dataset, args.variant, args.reps
    )
    if not shard_overhead["within_budget"] and not shard_problems:
        shard_overhead, shard_problems = _measure_shard_overhead(
            shard_settings, args.dataset, args.variant, args.reps
        )
        shard_overhead["remeasured"] = True
    failures.extend(f"shard probe: {p}" for p in shard_problems)
    if not shard_overhead["within_budget"]:
        failures.append(
            f"shard overhead {shard_overhead['overhead_pct']:.2f}% exceeds "
            f"{SHARD_OVERHEAD_MAX_PCT:.0f}% "
            f"({shard_overhead['off_seconds']:.3f}s in-RAM vs "
            f"{shard_overhead['on_seconds']:.3f}s sharded)"
        )
    probe_seconds = time.perf_counter() - probe_start
    # The out-of-core scale curve only runs on full invocations: three
    # subprocess pairs up to 1M rows are bench work, not CI smoke work.
    # The committed record is what the trend gate reports from.
    scale_curve = None
    if not args.smoke:
        print(
            "measuring out-of-core scale curve @ "
            + ", ".join(f"{n:,}" for n in SCALE_SIZES)
            + " rows ..."
        )
        scale_curve = _measure_scale_curve()
        if not scale_curve["rss_bounded_at_largest"]:
            largest = scale_curve["points"][-1]
            failures.append(
                f"out-of-core peak RSS not bounded at "
                f"{largest['rows']} rows: sharded "
                f"{largest['sharded']['hwm_kb']} kB vs in-RAM "
                f"{largest['in_ram']['hwm_kb']} kB"
            )
    wall = time.perf_counter() - wall_start

    at_scale = rows[-1]
    payload = {
        "benchmark": "estimation",
        "dataset": args.dataset,
        "variant": args.variant,
        "step": "treatment_mining",
        "engines": list(ENGINES),
        "cpu_count": os.cpu_count(),
        "env": environment(),
        "smoke": args.smoke,
        "reps": args.reps,
        "sizes": rows,
        "wall_seconds": round(wall, 3),
        "speedup_vs_scalar_at_experiment_scale": at_scale["speedup_vs_scalar"],
        "telemetry_overhead": overhead,
        "resilience_overhead": resilience,
        "shard_overhead": shard_overhead,
        "shard_scale_curve": scale_curve,
        "run_report_baseline": {
            "rows": overhead["rows"],
            "derived": (run_report or {}).get("derived", {}),
        },
        "differential_failures": failures,
        "passed": not failures,
    }

    lines = [
        f"bench_estimation: dataset={args.dataset} variant={args.variant!r} "
        f"step=treatment_mining reps={args.reps} cpus={os.cpu_count()} "
        f"schedulable={payload['env']['schedulable_cpus']}"
        f"{' [smoke]' if args.smoke else ''}",
        "",
        f"{'rows':>7} {'scalar s':>9} {'default s':>10} {'vs scalar':>10}  "
        "identical",
    ]
    for row in rows:
        lines.append(
            f"{row['rows']:>7} {row['scalar_seconds']:>9.3f} "
            f"{row['default_seconds']:>10.3f} "
            f"{row['speedup_vs_scalar']:>9.2f}x  "
            f"{'yes' if row['identical'] else 'NO'}"
        )
    lines.append("")
    lines.append(
        f"telemetry overhead @ {overhead['rows']} rows: "
        f"{overhead['off_seconds']:.3f}s off -> {overhead['on_seconds']:.3f}s on "
        f"({overhead['overhead_pct']:+.2f}%, budget "
        f"{TELEMETRY_OVERHEAD_MAX_PCT:.0f}% or "
        f"{TELEMETRY_OVERHEAD_FLOOR_SECONDS * 1e3:.0f}ms) — "
        f"{'OK' if overhead['within_budget'] else 'OVER BUDGET'}"
    )
    lines.append(
        f"resilience overhead @ {resilience['rows']} rows: "
        f"{resilience['off_seconds']:.3f}s plain -> "
        f"{resilience['on_seconds']:.3f}s checkpointed "
        f"({resilience['overhead_pct']:+.2f}%, budget "
        f"{RESILIENCE_OVERHEAD_MAX_PCT:.0f}% or "
        f"{RESILIENCE_OVERHEAD_FLOOR_SECONDS * 1e3:.0f}ms) — "
        f"{'OK' if resilience['within_budget'] else 'OVER BUDGET'}"
    )
    lines.append(
        f"shard overhead @ {shard_overhead['rows']} rows "
        f"(shard_rows={shard_overhead['shard_rows']}): "
        f"{shard_overhead['off_seconds']:.3f}s in-RAM -> "
        f"{shard_overhead['on_seconds']:.3f}s sharded "
        f"({shard_overhead['overhead_pct']:+.2f}%, budget "
        f"{SHARD_OVERHEAD_MAX_PCT:.0f}% or "
        f"{SHARD_OVERHEAD_FLOOR_SECONDS * 1e3:.0f}ms; "
        f"{'bit-identical' if shard_overhead['identical'] else 'RESULTS DIFFER'}"
        f") — {'OK' if shard_overhead['within_budget'] else 'OVER BUDGET'}"
    )
    if scale_curve is not None:
        lines.append("")
        lines.append(
            f"out-of-core scale curve @ {scale_curve['world']} "
            f"(shard_rows={scale_curve['shard_rows']}, "
            f"{scale_curve['mining_config']}):"
        )
        lines.append(
            f"{'rows':>9} {'sharded s':>10} {'rss MB':>8} {'peak MB':>8} "
            f"{'in-RAM s':>10} {'rss MB':>8} {'peak MB':>8} {'rss saved':>10}"
        )
        for point in scale_curve["points"]:
            sharded, in_ram = point["sharded"], point["in_ram"]
            lines.append(
                f"{point['rows']:>9,} {sharded['seconds']:>10.2f} "
                f"{sharded['hwm_kb'] / 1024:>8.0f} "
                f"{sharded['peak_kb'] / 1024:>8.0f} "
                f"{in_ram['seconds']:>10.2f} {in_ram['hwm_kb'] / 1024:>8.0f} "
                f"{in_ram['peak_kb'] / 1024:>8.0f} "
                f"{point['rss_saving_kb'] / 1024:>8.0f}MB"
            )
        lines.append(
            "sharded peak RSS at the largest point below the in-RAM run's: "
            + ("yes" if scale_curve["rss_bounded_at_largest"] else "NO")
        )
    if args.smoke:
        lines.append("smoke run: default == scalar equality check only")
    else:
        lines.append(
            f"at experiment scale: {at_scale['speedup_vs_scalar']:.2f}x over "
            "the scalar reference"
        )
    print("\n".join(lines))

    text_path = SMOKE_TEXT_PATH if args.smoke else TEXT_PATH
    text_path.parent.mkdir(exist_ok=True)
    text_path.write_text("\n".join(lines) + "\n")
    print(f"wrote {text_path}")
    if args.smoke:
        SMOKE_JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {SMOKE_JSON_PATH}")
    else:
        # The committed record doubles as the CI trend baseline: re-run the
        # smoke configuration so the baseline wall-clock is measured by the
        # same code path CI executes.
        smoke_settings = ExperimentSettings(
            so_n=SMOKE_ROWS, german_n=SMOKE_ROWS, seed=base.seed
        )
        smoke_start = time.perf_counter()
        _measure_size(smoke_settings, args.dataset, args.variant, 1)
        # A CI smoke run's wall clock covers the measurement above PLUS the
        # telemetry overhead probe; fold the probe's duration (already
        # measured once this invocation, same configuration) into the
        # baseline so the trend ratio compares like with like.
        payload["smoke_baseline"] = {
            "wall_seconds": round(
                time.perf_counter() - smoke_start + probe_seconds, 3
            ),
            "rows": SMOKE_ROWS,
            "reps": 1,
            "cpu_count": os.cpu_count(),
        }
        JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {JSON_PATH}")

    if failures:
        print("FAILURE:", *failures, sep="\n  ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
