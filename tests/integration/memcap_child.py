"""Child workload for the shard-store memory-cap regression test.

Runs one scenario-world mining pass — out of core (``sharded``) or fully
in RAM (``unsharded``) — optionally under an ``RLIMIT_AS`` address-space
cap, and reports the process's peak address space and peak RSS.  Invoked
as::

    python memcap_child.py <mode> <n_rows> <shard_rows> <cap_bytes>

``cap_bytes`` of 0 runs uncapped (the probe runs that size the cap).
Prints ``PEAK_KB=<VmPeak kB> RSS_KB=<VmHWM kB> OK`` on success; on
``MemoryError`` prints ``MEMORY_ERROR`` and exits 42.  The cap is applied
*after* imports: the interpreter baseline (~280 MB of address space for
numpy/scipy) is environment noise the test calibrates away — the cap is
about the workload, not the import footprint.
"""

from __future__ import annotations

import resource
import shutil
import sys
import tempfile

from repro.scenarios import ScenarioWorld, run_world
from repro.scenarios.oracle import oracle_config
from repro.scenarios.spec import spec_by_name

WORLD = "linear-g3-d1-gap-lo"
EXIT_MEMORY_ERROR = 42


def proc_status_kb(field: str) -> int:
    """A ``/proc/self/status`` high-water mark of this process, in kB.

    ``VmHWM`` is this process's own peak RSS; ``ru_maxrss`` is not a
    substitute, because a forked child inherits its parent's value.
    """
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    return -1


def main() -> int:
    mode, n, shard_rows, cap = (
        sys.argv[1],
        int(sys.argv[2]),
        int(sys.argv[3]),
        int(sys.argv[4]),
    )
    if cap:
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    world = ScenarioWorld(spec_by_name(WORLD))
    # One config for BOTH paths, so the capped comparison is apples to
    # apples: the default Step-2 engine, which runs without an estimation
    # cache.  A factorization dies with its context's sub-table, so neither
    # path retains designs across contexts.
    config = oracle_config(world)
    directory = tempfile.mkdtemp(prefix="memcap-shards-")
    try:
        if mode == "sharded":
            bundle = world.sharded_bundle(n, directory, shard_rows)
        else:
            bundle = world.bundle(n)
        result = run_world(world, bundle, config)
    except MemoryError:
        print("MEMORY_ERROR")
        return EXIT_MEMORY_ERROR
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    print(
        f"PEAK_KB={proc_status_kb('VmPeak')} RSS_KB={proc_status_kb('VmHWM')} "
        f"RULES={result.metrics.n_rules} OK"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
