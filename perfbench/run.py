"""The repository benchmark: two workloads, end-to-end and per-layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload so-run --seed 1 --seconds 50 --trace 0

Workloads: ``so-run`` times cold mining processes (see
``perfbench/mining.py``); ``serve-mixed`` drives ``python -m repro serve``
over two keep-alive connections (see ``perfbench/serving.py``).  Every
process runs OpenBLAS with one thread (``perfbench/common.py``).
``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is a separate run that records spans around each layer's
public functions and reports the per-layer ledger.
Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--reduced`` shrinks every input for the self-tests
(``perfbench/selftest.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("so-run", "serve-mixed")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--reduced", action="store_true", help="seconds-long self-test sizes"
    )
    parser.add_argument(
        "--corrupt",
        action="store_true",
        help="perturb the reference so every checked operation must fail "
        "(self-test of the correctness check)",
    )
    return parser.parse_args(argv)


def _exit_on_sigterm(signum, frame) -> None:
    # Unwinding runs the ``finally`` blocks that stop the children.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__main__.py")):
        print(
            "error: the program is missing (no src/repro under "
            f"{ROOT}); run from a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)
    from perfbench.common import declared_metrics, emit, environment, pin_blas_threads

    pin_blas_threads()  # before anything imports numpy
    end_to_end, per_layer = declared_metrics()

    work_dir = os.path.join(ROOT, ".perfbench_work", f"run-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        if args.workload == "serve-mixed":
            from perfbench import serving as module
        else:
            from perfbench import mining as module
        summary = module.run(
            args.workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            work_dir,
            reduced=args.reduced,
            corrupt_reference=args.corrupt,
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass

    attempted = max(1, int(summary["attempted"]))
    failed = int(summary["failed"])
    print("env " + json.dumps(environment(), sort_keys=True))
    for line in summary.get("errors", [])[:10]:
        print(f"FAILED {line}")
    print(
        f"{args.workload}: attempted={attempted} failed={failed} "
        f"error_rate={failed / attempted:.4f}"
    )
    for name, (value, unit) in summary.get("named", {}).items():
        count = summary.get("counts", {}).get(name, summary.get("n", 0))
        print(f"{args.workload}: {name} = {value:.6g} {unit} (n={count})")

    declared = per_layer if args.trace else end_to_end
    values = summary.get("per_layer" if args.trace else "metrics", {})
    undeclared = sorted(set(values) - set(declared))
    if undeclared:
        print(f"error: metrics missing from BENCHMARK.json: {undeclared}", file=sys.stderr)
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in declared.items()
    }
    if args.trace:
        for name, cell in metrics.items():
            print(f"{args.workload}: layer {name} = {cell['value']:.6g} {cell['unit']}")
    correct = (
        failed == 0
        and not undeclared
        and all(cell["value"] > 0 for name, cell in metrics.items() if name in end_to_end)
    )
    emit(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
