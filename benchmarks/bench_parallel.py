"""Speedup curves for the parallel treatment-mining executor.

Runs one FairCap configuration serially, then at each requested worker
count (one worker runs in-process, more run a process pool of that many
workers, as ``--workers`` does on the CLI), and reports the wall-clock
speedup curve.  Every run's ruleset is differentially checked against the
serial reference — a speedup only counts if the answer is identical (see
the determinism contract in ``repro.parallel``).

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel.py                 # full curve
    PYTHONPATH=src python benchmarks/bench_parallel.py --workers 1,2,4,8
    PYTHONPATH=src python benchmarks/bench_parallel.py --smoke         # CI job

The full curve uses the bundled Stack Overflow dataset at the laptop-scale
experiment size (6,000 rows); ``--smoke`` shrinks it to a plumbing check
(tiny rows, 1/2 workers) that still enforces serial ≡ parallel equality.
Results land in ``benchmarks/results/parallel.txt`` (``--smoke``:
``parallel-smoke.txt``, a deterministic path that never clobbers the
committed full-run table).  Speedups scale with the machine: on a
single-core container every curve is flat at ~1x by construction; the
≥2.5x-at-4-workers target applies to ≥4-core hardware.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from benchenv import environment
from repro.core.faircap import FairCap
from repro.experiments.settings import ExperimentSettings
from repro.parallel.executors import make_executor

RESULTS_PATH = Path(__file__).resolve().parent / "results" / "parallel.txt"
SMOKE_RESULTS_PATH = (
    Path(__file__).resolve().parent / "results" / "parallel-smoke.txt"
)


def _parse_workers(text: str) -> list[int]:
    counts = sorted({int(part) for part in text.split(",") if part.strip()})
    if not counts or any(c < 1 for c in counts):
        raise argparse.ArgumentTypeError("workers must be positive integers")
    return counts


def _run_once(config, bundle, executor):
    start = time.perf_counter()
    result = FairCap(config, executor=executor).run(
        bundle.table, bundle.schema, bundle.dag, bundle.protected
    )
    return time.perf_counter() - start, result


def _check_identical(reference, candidate, label: str) -> None:
    if candidate.ruleset.rules != reference.ruleset.rules:
        raise SystemExit(f"DIFFERENTIAL FAILURE: {label} ruleset != serial ruleset")
    if candidate.nodes_evaluated != reference.nodes_evaluated:
        raise SystemExit(f"DIFFERENTIAL FAILURE: {label} evaluated a different lattice")
    ref_m, cand_m = reference.metrics, candidate.metrics
    for field in (
        "n_rules", "coverage", "protected_coverage", "expected_utility",
        "expected_utility_protected", "expected_utility_non_protected",
    ):
        if abs(getattr(ref_m, field) - getattr(cand_m, field)) > 1e-12:
            raise SystemExit(f"DIFFERENTIAL FAILURE: {label} metrics differ ({field})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", default="stackoverflow",
                        choices=["stackoverflow", "german"])
    parser.add_argument("--n", type=int, default=None,
                        help="row count (default: experiment-scale setting)")
    parser.add_argument("--workers", type=_parse_workers, default=[1, 2, 4, 8],
                        help="comma-separated worker counts (default 1,2,4,8)")
    parser.add_argument("--variant", default="No constraints",
                        help="problem variant to mine (default: the slowest one)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configuration for CI: 1,200 rows, 1/2 workers")
    args = parser.parse_args(argv)

    settings = ExperimentSettings.from_environment()
    if args.smoke:
        settings = ExperimentSettings(so_n=1_200, german_n=1_200, seed=settings.seed)
        args.workers = [w for w in args.workers if w <= 2] or [1, 2]
    if args.n is not None:
        settings = ExperimentSettings(so_n=args.n, german_n=args.n, seed=settings.seed)

    bundle = settings.load(args.dataset)
    variants = settings.variants_for(bundle)
    if args.variant not in variants:
        raise SystemExit(f"unknown variant {args.variant!r}; "
                         f"choose from: {', '.join(sorted(variants))}")
    config = settings.config_for(bundle, variants[args.variant])

    lines = [
        f"bench_parallel: dataset={args.dataset} rows={bundle.table.n_rows} "
        f"variant={args.variant!r} cpus={os.cpu_count()}",
        f"env {json.dumps(environment(), sort_keys=True)}",
        "",
        f"{'executor':<12} {'workers':>7} {'seconds':>9} {'speedup':>9}  identical",
    ]
    print(*lines[:2], sep="\n")

    serial_seconds, reference = _run_once(config, bundle, make_executor(1))
    lines.append(f"{'serial':<12} {1:>7} {serial_seconds:>9.2f} {1.0:>8.2f}x  (reference)")
    print(lines[-1])

    best_speedup = 0.0
    for n_workers in args.workers:
        executor = make_executor(n_workers)
        seconds, result = _run_once(config, bundle, executor)
        _check_identical(reference, result, f"{executor.kind}[{n_workers}]")
        speedup = serial_seconds / seconds if seconds > 0 else float("inf")
        best_speedup = max(best_speedup, speedup)
        lines.append(
            f"{executor.kind:<12} {n_workers:>7} {seconds:>9.2f} {speedup:>8.2f}x  yes"
        )
        print(lines[-1])

    lines.append("")
    lines.append(
        f"best speedup {best_speedup:.2f}x over serial "
        f"({'smoke run — plumbing/equality check only' if args.smoke else 'full run'})"
    )
    print(lines[-1])

    results_path = SMOKE_RESULTS_PATH if args.smoke else RESULTS_PATH
    results_path.parent.mkdir(exist_ok=True)
    results_path.write_text("\n".join(lines) + "\n")
    print(f"wrote {results_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
