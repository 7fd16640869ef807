"""Mining workloads: cold ``run`` processes, timed from outside and inside.

Set-up starts one untimed child whose ruleset is the reference for the
seed (it also writes the bytecode caches, as a user's first run would).
The timed phase then starts cold children one after another, never two
at once, while the next one is expected to end within ``--seconds`` and
until at least ``MIN_RUNS`` have finished.  Each child's ruleset must
match the reference (patterns and counts exact, utilities to rtol 1e-9)
and its ``nodes_evaluated`` must be equal; a mismatch, a non-zero exit or
a timeout is a failed run.

The gated times are the lower quartile of the window's children: the
host's speed drifts by 15-20% over minutes and in bursts, which moves the
median child of a window with it; the lower quartile was the steadiest of
median, lower quartile, fastest and fastest-half mean across windows of
ten cold children in four traces (worst IQR over median 15%, against 23%
for the median and 18% for the fastest).  Medians are printed beside
them.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time

from perfbench.common import ROOT, child_env, median, percentile

CHILD = os.path.join(ROOT, "perfbench", "mine_child.py")
CHILD_TIMEOUT_S = 150

#: Workload -> child spec.  ``reduced`` is the self-test size.
WORKLOADS = {
    "so-run": {
        "dataset": "stackoverflow",
        "variant": "Group fairness",
        "n": 2_000,
        "reduced": {"n": 500},
    },
}

MIN_RUNS = 3
MIN_TRACED_RUNS = 2
RTOL = 1e-9
_EXACT_RULE_FIELDS = (
    "grouping",
    "intervention",
    "coverage_count",
    "protected_coverage_count",
)
_FLOAT_RULE_FIELDS = ("utility", "utility_protected", "utility_non_protected")


def ruleset_mismatch(got: dict, ref: dict) -> str | None:
    """Why a child's record disagrees with the reference (``None`` if not)."""
    if got["nodes_evaluated"] != ref["nodes_evaluated"]:
        return (
            f"nodes_evaluated {got['nodes_evaluated']} != "
            f"{ref['nodes_evaluated']}"
        )
    if len(got["rules"]) != len(ref["rules"]):
        return f"{len(got['rules'])} rules != {len(ref['rules'])}"
    for i, (a, b) in enumerate(zip(got["rules"], ref["rules"])):
        for field in _EXACT_RULE_FIELDS:
            if a[field] != b[field]:
                return f"rule {i} {field}: {a[field]!r} != {b[field]!r}"
        for field in _FLOAT_RULE_FIELDS:
            if not math.isclose(a[field], b[field], rel_tol=RTOL, abs_tol=0.0):
                return f"rule {i} {field}: {a[field]!r} != {b[field]!r}"
    return None


def corrupt(record: dict) -> dict:
    """A copy of ``record`` whose first rule's utility is off by 1e-6."""
    bad = json.loads(json.dumps(record))
    if bad["rules"]:
        bad["rules"][0]["utility"] *= 1.0 + 1e-6
    else:
        bad["nodes_evaluated"] += 1
    return bad


def _spec(workload: str, seed: int, reduced: bool, work_dir: str) -> dict:
    base = dict(WORKLOADS[workload])
    sizes = base.pop("reduced")
    if reduced:
        base.update(sizes)
    base.update(seed=seed, work_dir=work_dir)
    return base


def run_child(spec: dict, trace: bool, tag: str, env: dict) -> tuple[dict | None, float, str]:
    """Start one cold child and wait for it: ``(record, wall_s, error)``."""
    out = os.path.join(spec["work_dir"], f"child-{tag}.json")
    if os.path.exists(out):
        os.unlink(out)
    spawn_t = time.monotonic()
    spec = dict(spec, trace=trace, out=out, spawn_t=spawn_t)
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, json.dumps(spec)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            env=env,
            timeout=CHILD_TIMEOUT_S,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return None, time.monotonic() - spawn_t, "timeout"
    wall = time.monotonic() - spawn_t
    if proc.returncode != 0:
        tail = proc.stderr.decode("utf-8", "replace").strip().splitlines()[-3:]
        return None, wall, f"exit {proc.returncode}: {' | '.join(tail)}"
    with open(out, encoding="utf-8") as handle:
        record = json.load(handle)
    os.unlink(out)
    return record, wall, ""


def _counter_total(counters: dict, name: str, **labels) -> float:
    values = counters.get(name, {}).get("values", {})
    want = {f"{k}={v}" for k, v in labels.items()}
    return float(
        sum(v for key, v in values.items() if want <= set(key.split(",")))
    )


def layer_metrics(record: dict) -> dict:
    """One traced child's per-layer numbers (names as in BENCHMARK.json)."""
    ledger = record["ledger"]
    own = ledger["self_s"]
    total = ledger["total_s"]
    calls = ledger["calls"]
    counters = record["counters"]
    gauges = record["gauges"]
    step2 = total.get("core.intervention", 0.0)
    run = total.get("faircap.run", 0.0)
    out = {
        "import.s": record["import_s"],
        "datasets.load_s": own.get("datasets.load", 0.0),
        "core.grouping.s": own.get("core.grouping", 0.0),
        "core.grouping.patterns": record["grouping_patterns"],
        "rules.utility.context_s": own.get("rules.utility.context", 0.0),
        "rules.utility.contexts": calls.get("rules.utility.context", 0),
        "rules.utility.compose_s": own.get("rules.utility.compose", 0.0),
        "mining.pruned": _counter_total(counters, "mining.pruned"),
        "causal.batch.factorize_s": own.get("causal.batch.factorize", 0.0),
        "causal.batch.factorizations": calls.get("causal.batch.factorize", 0),
        "causal.batch.estimate_s": own.get("causal.batch.estimate", 0.0),
        "mining.estimated_columns": _counter_total(
            counters, "mining.estimated_columns"
        ),
        "core.intervention.s": step2,
        "core.intervention.unattributed_s": own.get("core.intervention", 0.0),
        "core.intervention.unattributed_pct": (
            100.0 * own.get("core.intervention", 0.0) / step2 if step2 else 0.0
        ),
        "core.greedy.s": own.get("core.greedy", 0.0),
        "faircap.run.s": run,
        "faircap.unattributed_s": own.get("faircap.run", 0.0),
        "faircap.unattributed_pct": (
            100.0 * own.get("faircap.run", 0.0) / run if run else 0.0
        ),
        "experiments.report_s": own.get("experiments.report", 0.0),
        "mining.nodes_evaluated": record["nodes_evaluated"],
        "mining.candidates": _counter_total(counters, "mining.candidates"),
        "mining.kept": _counter_total(counters, "mining.kept"),
        "bench.ledger_residual_s": max(
            (
                abs(ledger["self_sum"][name] - ledger["roots"][name])
                for name in ledger["roots"]
            ),
            default=0.0,
        ),
    }
    for tier in ("estimation", "factorization"):
        out[f"parallel.cache.hit_rate.{tier}"] = float(
            gauges.get("cache.hit_rate", {}).get(f"tier={tier}", 0.0)
        )
        out[f"parallel.cache.evictions.{tier}"] = _counter_total(
            counters, "cache.evictions", tier=tier
        )
    return out


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    work_dir: str,
    reduced: bool = False,
    corrupt_reference: bool = False,
) -> dict:
    """Run one mining workload; returns the summary for ``run.py``."""
    env = child_env(work_dir)
    spec = _spec(workload, seed, reduced, work_dir)
    errors: list[str] = []

    reference, _, error = run_child(spec, False, "reference", env)
    if reference is None:
        return {"attempted": 1, "failed": 1, "errors": [f"reference: {error}"]}
    if corrupt_reference:
        reference = corrupt(reference)

    # A traced run alternates untraced and traced children, so the tracing
    # overhead compares processes started under the same conditions.
    modes = (False, True) if trace else (False,)
    records: dict[bool, list[tuple[dict, float]]] = {False: [], True: []}
    attempted = failed = 0
    minimum = MIN_TRACED_RUNS if trace else MIN_RUNS
    start = time.monotonic()
    step = 0.0  # wall time of the slowest round so far
    while len(records[trace]) < minimum or time.monotonic() - start + step <= seconds:
        round_start = time.monotonic()
        for mode in modes:
            attempted += 1
            record, wall, error = run_child(spec, mode, str(attempted), env)
            if record is not None:
                error = ruleset_mismatch(record, reference) or ""
            if error:
                failed += 1
                errors.append(f"run {attempted}: {error}")
            else:
                records[mode].append((record, wall))
        step = max(step, time.monotonic() - round_start)
        if failed >= minimum:
            break  # a failing workload is reported, not retried for ever

    summary = {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "n": len(records[trace]),
    }
    if not records[trace] or (trace and not records[False]):
        return summary
    walls = [wall for _, wall in records[trace]]

    def field(name: str, mode: bool = trace) -> list:
        return [record[name] for record, _ in records[mode]]

    summary["named"] = {
        "setup_s": (median(field("setup_s")), "s"),
        "wall_s": (median(walls), "s"),
        "wall_p25_s": (percentile(walls, 25), "s"),
        "mine_s": (median(field("mine_s")), "s"),
        "mine_p25_s": (percentile(field("mine_s"), 25), "s"),
        "import_s": (median(field("import_s")), "s"),
        "load_s": (median(field("load_s")), "s"),
        "report_s": (median(field("report_s")), "s"),
        "peak_rss_mb": (median(field("vm_hwm_kb")) / 1024.0, "MB"),
    }
    if trace:
        layers = [layer_metrics(record) for record, _ in records[True]]
        per_layer = {key: median(d[key] for d in layers) for key in layers[0]}
        per_layer["bench.trace_overhead_pct"] = 100.0 * (
            median(field("mine_s")) / median(field("mine_s", False)) - 1.0
        )
        summary["per_layer"] = per_layer
    else:
        summary["metrics"] = {
            "setup_s": median(field("setup_s")),
            "latency_ms": 1e3 * percentile(walls, 25),
            "heavy_ms": 1e3 * percentile(field("mine_s"), 25),
            "peak_rss_mb": median(field("vm_hwm_kb")) / 1024.0,
        }
    return summary
