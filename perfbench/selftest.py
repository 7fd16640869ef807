"""Self-tests of the benchmark, on its seconds-long reduced inputs.

Run from the repository root::

    python3 perfbench/selftest.py         # every workload (~3 minutes)
    python3 perfbench/selftest.py so-run  # one workload

For every workload it checks that the untraced run emits every end-to-end
metric with its unit and a non-zero value, and that the traced run emits
every per-layer metric and that layer self times plus the unattributed
remainder add up to their parent span.  It then checks that a corrupted
reference ruleset (mining) and corrupted reference answers (serving) are
counted as failures, and that the benchmark exits non-zero, without a
result line, when the program it measures is absent.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench.common import declared_metrics  # noqa: E402
from perfbench.run import WORKLOADS  # noqa: E402

END_TO_END, PER_LAYER = declared_metrics()
MINING = ("so-run",)
TOLERANCE_S = 1e-6


def bench(workload: str, *flags: str, cwd: str = ROOT) -> tuple[int, str]:
    # Mining runs stop at their minimum run count; the serving loop needs
    # a little time to send batches and activations.
    seconds = "2" if workload == "serve-mixed" else "0"
    proc = subprocess.run(
        [
            sys.executable, os.path.join(cwd, "perfbench", "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", seconds,
            "--reduced", *flags,
        ],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=600,
    )
    return proc.returncode, proc.stdout


def result_of(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def check_end_to_end(workload: str) -> None:
    code, out = bench(workload, "--trace", "0")
    check(code == 0, f"{workload}: exit {code}")
    result = result_of(out)
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{workload}: keys")
    check(result["correct"] and result["failed"] == 0, f"{workload}: {result}")
    check(set(result["metrics"]) == set(END_TO_END), f"{workload}: metric names")
    for name, cell in result["metrics"].items():
        check(cell["unit"] == END_TO_END[name], f"{workload}: unit of {name}")
        check(cell["value"] > 0, f"{workload}: {name} is {cell['value']}")
    check("(n=" in out, f"{workload}: sample counts missing")


def check_ledger(workload: str) -> None:
    code, out = bench(workload, "--trace", "1")
    check(code == 0, f"{workload}: traced exit {code}")
    result = result_of(out)
    check(result["correct"], f"{workload}: traced run failed: {result}")
    metrics = result["metrics"]
    check(set(metrics) == set(PER_LAYER), f"{workload}: per-layer names")
    for name, cell in metrics.items():
        check(cell["unit"] == PER_LAYER[name], f"{workload}: unit of {name}")
    value = {name: cell["value"] for name, cell in metrics.items()}
    check(value["bench.ledger_residual_s"] < TOLERANCE_S, f"{workload}: self times do not sum")
    if workload in MINING:
        # Medians of two traced runs are their means, so the sums survive.
        step2 = (
            value["rules.utility.context_s"]
            + value["rules.utility.compose_s"]
            + value["causal.batch.factorize_s"]
            + value["causal.batch.estimate_s"]
            + value["core.intervention.unattributed_s"]
        )
        run = (
            value["core.grouping.s"]
            + value["core.intervention.s"]
            + value["core.greedy.s"]
            + value["faircap.unattributed_s"]
        )
        check(abs(step2 - value["core.intervention.s"]) < TOLERANCE_S, f"{workload}: step 2")
        check(abs(run - value["faircap.run.s"]) < TOLERANCE_S, f"{workload}: faircap.run")
        check(value["mining.nodes_evaluated"] > 0, f"{workload}: no nodes")
        check(value["mining.nodes_evaluated"] == value["mining.candidates"], f"{workload}: nodes")
    else:
        check(value["serve.http.requests.200"] > 0, "serve-mixed: no requests")
        check(value["serve.engine.prescribe_s"] > 0, "serve-mixed: engine never ran")


def check_corruption(workload: str) -> None:
    code, out = bench(workload, "--trace", "0", "--corrupt")
    check(code == 0, f"{workload}: corrupt exit {code}")
    result = result_of(out)
    check(not result["correct"], f"{workload}: corruption passed as correct")
    check(result["failed"] >= 1, f"{workload}: corruption not counted")


def check_missing_program() -> None:
    scratch = tempfile.mkdtemp(prefix="selftest-", dir=ROOT)
    try:
        shutil.copytree(HERE, os.path.join(scratch, "perfbench"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
        code, out = bench("so-run", cwd=scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    check(code != 0, "benchmark succeeded without the program")
    check('"correct"' not in out, "benchmark printed a result without the program")


def main(argv: list[str]) -> int:
    workloads = argv or list(WORKLOADS)
    for workload in workloads:
        check_end_to_end(workload)
        print(f"ok {workload}: end-to-end metrics", flush=True)
        check_ledger(workload)
        print(f"ok {workload}: per-layer ledger", flush=True)
    for workload in ("so-run", "serve-mixed"):
        if workload in workloads:
            check_corruption(workload)
            print(f"ok {workload}: corruption counted as failure", flush=True)
    check_missing_program()
    print("ok: no program, no result", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
