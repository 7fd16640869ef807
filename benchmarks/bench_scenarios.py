"""Mining wall-clock across the ground-truth scenario grid, oracle-gated.

Runs FairCap end to end on every world of the scenario oracle grid
(:mod:`repro.scenarios`) and records the per-scenario ``treatment_mining``
wall-clock of the default engine, extending the repo's perf-trajectory
record to the known-CATE workloads — while the built-in oracle gate
re-checks, per scenario, that

- CATE estimates sit in the analytic band around the closed-form truth,
- the scenario's fairness constraints hold,
- batch ≡ scalar estimation and serial ≡ process execution, and
- the serving round-trip preserves every decision.

A timing only counts when every check passes; any violation fails the
bench (CI runs ``--smoke`` on every PR).

Usage::

    PYTHONPATH=src python benchmarks/bench_scenarios.py           # full grid
    PYTHONPATH=src python benchmarks/bench_scenarios.py --rows 2400
    PYTHONPATH=src python benchmarks/bench_scenarios.py --smoke   # CI job

Outputs:

- ``benchmarks/BENCH_scenarios.json`` — machine-readable record (schema in
  ``benchmarks/README.md``); carries the ``smoke_baseline`` block the CI
  ``bench-trend`` job compares against.  Smoke runs never overwrite it.
- ``benchmarks/results/scenarios.txt`` — human-readable table.
- ``--smoke`` writes ``benchmarks/results/scenarios-smoke.{txt,json}``
  (deterministic paths for the CI artifact upload and trend gate).
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
from repro.scenarios import (
    ScenarioWorld,
    check_world,
    oracle_config,
    oracle_grid,
    run_world,
)

BENCH_DIR = Path(__file__).resolve().parent
JSON_PATH = BENCH_DIR / "BENCH_scenarios.json"
TEXT_PATH = BENCH_DIR / "results" / "scenarios.txt"
# Smoke runs land in their own files so the committed full-grid record is
# never clobbered by the CI gate.
SMOKE_TEXT_PATH = BENCH_DIR / "results" / "scenarios-smoke.txt"
SMOKE_JSON_PATH = BENCH_DIR / "results" / "scenarios-smoke.json"

#: Scenarios the smoke gate exercises: one plain world, the deepest
#: confounding, a fairness-constrained world, and a degenerate world.
SMOKE_NAMES = (
    "linear-g2-d1-gap-lo",
    "linear-g3-d2-fair-hi",
    "variant-indiv-bgl",
    "separated",
)

#: The at-scale telemetry probe: one world mined at serving-realistic row
#: counts with telemetry on, so the committed record carries an engine
#: counter snapshot (factorization routes, prune rates, cache traffic) at a
#: scale where they mean something.  Full runs only; never part of smoke.
AT_SCALE_NAME = "linear-g3-d2-gap-hi"
AT_SCALE_ROWS = 30_000


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=1_200,
                        help="rows per scenario (default 1200)")
    parser.add_argument("--reps", type=int, default=3,
                        help="timed runs per scenario; the minimum counts")
    parser.add_argument("--scenarios", default=None,
                        help="comma-separated scenario names (default: all)")
    parser.add_argument("--smoke", action="store_true",
                        help="reduced-n CI gate: 4 representative scenarios "
                             "at 400 rows, 1 rep, oracle checks only")
    args = parser.parse_args(argv)

    specs = {spec.name: spec for spec in oracle_grid()}
    if args.smoke:
        names = list(SMOKE_NAMES)
        args.rows = 400
        args.reps = 1
    elif args.scenarios:
        names = [part.strip() for part in args.scenarios.split(",") if part.strip()]
        unknown = [name for name in names if name not in specs]
        if unknown:
            raise SystemExit(f"unknown scenarios: {unknown}")
    else:
        names = sorted(specs)

    rows = []
    failures: list[str] = []
    wall_start = time.perf_counter()
    for name in names:
        world = ScenarioWorld(specs[name])
        bundle = world.bundle(args.rows)
        config = oracle_config(world)

        problems = check_world(world, bundle, config)
        failures.extend(f"{name}: {p}" for p in problems)

        # The minimum counts: at millisecond scale any slower sample is the
        # same deterministic computation plus scheduler noise.
        timings: list[float] = []
        for _ in range(args.reps):
            result = run_world(world, bundle, config)
            timings.append(result.timings["treatment_mining"])
        mining_seconds = min(timings)
        row = {
            "scenario": name,
            "rows": bundle.table.n_rows,
            "mining_seconds": round(mining_seconds, 5),
            "total_seconds": round(sum(result.timings.values()), 5),
            "n_rules": len(result.ruleset),
            "nodes_evaluated": result.nodes_evaluated,
            "oracle_ok": not problems,
        }
        rows.append(row)
    wall = time.perf_counter() - wall_start

    payload = {
        "benchmark": "scenarios",
        "step": "treatment_mining",
        "cpu_count": os.cpu_count(),
        "env": environment(),
        "smoke": args.smoke,
        "rows_per_scenario": args.rows,
        "reps": args.reps,
        "n_scenarios": len(rows),
        "grid_wall_seconds": round(wall, 3),
        "mining_seconds_total": round(
            sum(r["mining_seconds"] for r in rows), 4
        ),
        "scenarios": rows,
        "oracle_failures": failures,
        "passed": not failures,
    }

    lines = [
        f"bench_scenarios: {len(rows)} worlds at n={args.rows} "
        f"reps={args.reps} cpus={os.cpu_count()}"
        f"{' [smoke]' if args.smoke else ''}",
        "",
        f"{'scenario':<28} {'rows':>6} {'mining s':>9} {'rules':>6}  oracle",
    ]
    for row in rows:
        lines.append(
            f"{row['scenario']:<28} {row['rows']:>6} "
            f"{row['mining_seconds']:>9.4f} {row['n_rules']:>6}  "
            f"{'ok' if row['oracle_ok'] else 'FAIL'}"
        )
    lines.append("")
    lines.append(
        f"grid wall-clock: {wall:.2f}s "
        f"(mining only: {payload['mining_seconds_total']:.2f}s)"
    )
    print("\n".join(lines))

    text_path = SMOKE_TEXT_PATH if args.smoke else TEXT_PATH
    text_path.parent.mkdir(exist_ok=True)
    text_path.write_text("\n".join(lines) + "\n")
    if args.smoke:
        SMOKE_JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {SMOKE_JSON_PATH}")
    else:
        # Measure the smoke configuration through the same code path CI
        # runs, so the committed record carries the trend-gate baseline.
        smoke_start = time.perf_counter()
        for name in SMOKE_NAMES:
            world = ScenarioWorld(specs[name])
            bundle = world.bundle(400)
            config = oracle_config(world)
            smoke_problems = check_world(world, bundle, config)
            failures.extend(f"smoke {name}: {p}" for p in smoke_problems)
            run_world(world, bundle, config)
        payload["smoke_baseline"] = {
            "wall_seconds": round(time.perf_counter() - smoke_start, 3),
            "rows": 400,
            "reps": 1,
            "n_scenarios": len(SMOKE_NAMES),
            "cpu_count": os.cpu_count(),
        }

        # One world at serving-realistic scale, telemetry on: the committed
        # snapshot of what the engine actually does per mined rule (the
        # oracle checks already ran at grid scale; at 30k rows only the
        # counters are the point).
        world = ScenarioWorld(specs[AT_SCALE_NAME])
        bundle = world.bundle(AT_SCALE_ROWS)
        at_scale_config = replace(oracle_config(world), telemetry=True)
        result = run_world(world, bundle, at_scale_config)
        report = result.telemetry or {}
        payload["at_scale"] = {
            "scenario": AT_SCALE_NAME,
            "rows": bundle.table.n_rows,
            "mining_seconds": round(result.timings["treatment_mining"], 4),
            "total_seconds": round(sum(result.timings.values()), 4),
            "n_rules": len(result.ruleset),
            "nodes_evaluated": result.nodes_evaluated,
            "derived": report.get("derived", {}),
            "counters": {
                name: counter["values"]
                for name, counter in report.get("counters", {}).items()
            },
        }
        print(
            f"at-scale telemetry probe: {AT_SCALE_NAME} at "
            f"{bundle.table.n_rows} rows, "
            f"mining {payload['at_scale']['mining_seconds']:.2f}s, "
            f"{payload['at_scale']['n_rules']} rules"
        )

        payload["passed"] = not failures
        JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {JSON_PATH}")
    print(f"wrote {text_path}")

    if failures:
        print("ORACLE FAILURE:", *failures, sep="\n  ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
