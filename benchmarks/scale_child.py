"""Child process for the out-of-core scale curve (``bench_estimation.py``).

Mines one scenario world — sampled chunk-by-chunk into a columnar shard
store (``sharded``) or fully in RAM (``unsharded``) — and prints a
one-line JSON record with the wall-clock and the process's peak address
space (``VmPeak``) / peak RSS (``VmHWM``).  One subprocess per curve point
keeps the memory numbers honest: both are process-lifetime high-water
marks, so points sharing an interpreter would inherit each other's peaks.
(``ru_maxrss`` would not do either: a forked child inherits its parent's
value, so every small point would report the bench parent's footprint.)
Invoked as::

    python benchmarks/scale_child.py <mode> <world> <n_rows> <shard_rows>
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.scenarios import ScenarioWorld, run_world
from repro.scenarios.oracle import oracle_config
from repro.scenarios.spec import spec_by_name


def _proc_status_kb(field: str) -> int:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    return -1


def main() -> int:
    mode, name, n, shard_rows = (
        sys.argv[1],
        sys.argv[2],
        int(sys.argv[3]),
        int(sys.argv[4]),
    )
    world = ScenarioWorld(spec_by_name(name))
    # The default Step-2 engine, which runs without an estimation cache, on
    # BOTH sides, so the peaks compare the data layer — the same
    # configuration as the memory-cap regression test
    # (tests/integration/test_memory_cap.py).  Factorizations die with
    # their context's sub-table, so neither side retains designs across
    # contexts.
    config = oracle_config(world)
    directory = tempfile.mkdtemp(prefix="bench-scale-shards-")
    try:
        start = time.perf_counter()
        if mode == "sharded":
            bundle = world.sharded_bundle(n, directory, shard_rows)
        else:
            bundle = world.bundle(n)
        result = run_world(world, bundle, config)
        seconds = time.perf_counter() - start
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    print(
        json.dumps(
            {
                "seconds": round(seconds, 3),
                "peak_kb": _proc_status_kb("VmPeak"),
                "hwm_kb": _proc_status_kb("VmHWM"),
                "rules": result.metrics.n_rules,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
