"""One cold mining process: what ``python -m repro run`` does, timed.

Started by :mod:`perfbench.mining` as ``python3 perfbench/mine_child.py
SPEC_JSON``.  It imports what the CLI imports, loads the workload's
dataset, runs ``FairCap.run``, renders the CLI's report to stdout, and writes one JSON
record to ``spec["out"]``: phase timestamps, the selected ruleset, the
node count and the process's own ``VmHWM``.  With ``spec["trace"]`` it
also patches each layer's public functions and adds the span ledger and
the program's own telemetry counters to the record.
"""

from __future__ import annotations

import json
import os
import sys
import time

SPEC = json.loads(sys.argv[1])
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

import repro.__main__  # noqa: E402,F401  (the CLI's own import set)

T_IMPORTED = time.monotonic()

import contextlib  # noqa: E402
import dataclasses  # noqa: E402

from perfbench.ledger import Ledger  # noqa: E402

#: (patch target, span name).  ``faircap.py`` binds the Step-1/2/3 entry
#: points by name, so they are patched in that module's namespace.
MINING_PATCHES = (
    ("repro.core.faircap:mine_grouping_patterns", "core.grouping"),
    ("repro.core.faircap:mine_interventions_for_groups", "core.intervention"),
    ("repro.core.faircap:RulesetEvaluator", "core.greedy"),
    ("repro.core.faircap:greedy_select", "core.greedy"),
    ("repro.rules.utility:RuleEvaluator.context", "rules.utility.context"),
    ("repro.rules.utility:GroupEvaluationContext.begin_level", "rules.utility.compose"),
    ("repro.causal.batch:build_rows_factorization", "causal.batch.factorize"),
    ("repro.causal.batch:estimate_level_rows", "causal.batch.estimate"),
)


def vm_hwm_kb() -> int:
    """This process's own peak resident set (never ``ru_maxrss``, which a
    forked child inherits from its parent)."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> int:
    from repro.core.faircap import FairCap
    from repro.experiments.casestudy import render_case_study

    ledger = Ledger() if SPEC["trace"] else None
    if ledger is not None:
        for target, name in MINING_PATCHES:
            ledger.patch(target, name)

    def span(name):
        return ledger.span(name) if ledger is not None else contextlib.nullcontext()

    from perfbench.inputs import seeded_bundle

    dataset = SPEC["dataset"]
    seed = SPEC["seed"]
    with span("datasets.load"):
        settings, bundle = seeded_bundle(dataset, SPEC["n"], seed)
    variant = settings.variants_for(bundle)[SPEC["variant"]]
    config = settings.config_for(bundle, variant)
    t_loaded = time.monotonic()
    if ledger is not None:
        config = dataclasses.replace(config, telemetry=True)

    t_mine = time.monotonic()
    with span("faircap.run"):
        result = FairCap(config).run(
            bundle.table, bundle.schema, bundle.dag, bundle.protected
        )
    t_mined = time.monotonic()

    metrics = result.metrics
    with span("experiments.report"):
        text = "\n".join(
            [
                f"dataset={dataset} variant={SPEC['variant']!r} "
                f"rows={bundle.table.n_rows}",
                f"rules={metrics.n_rules} coverage={metrics.coverage:.1%} "
                f"protected coverage={metrics.protected_coverage:.1%}",
                f"expected utility={metrics.expected_utility:,.2f}",
                "",
                render_case_study(
                    f"{dataset} ({SPEC['variant']})",
                    result.ruleset,
                    bundle.templates,
                    rng=seed,
                ),
            ]
        )
        sys.stdout.write(text + "\n")
        sys.stdout.flush()
    t_reported = time.monotonic()

    from repro.serve.artifact import rule_to_dict

    record = {
        "import_s": T_IMPORTED - SPEC["spawn_t"],
        "setup_s": t_loaded - SPEC["spawn_t"],
        "load_s": t_loaded - T_IMPORTED,
        "mine_s": t_mined - t_mine,
        "report_s": t_reported - t_mined,
        "rules": [rule_to_dict(rule) for rule in result.ruleset],
        "nodes_evaluated": result.nodes_evaluated,
        "grouping_patterns": len(result.grouping_patterns),
        "timings": result.timings,
    }
    if ledger is not None:
        ledger.unpatch()
        record["ledger"] = ledger.summary()
        telemetry = result.telemetry or {}
        record["counters"] = telemetry.get("counters", {})
        record["gauges"] = telemetry.get("gauges", {})
    record["vm_hwm_kb"] = vm_hwm_kb()
    with open(SPEC["out"], "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
