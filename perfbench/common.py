"""Shared helpers: statistics, the environment record, child-process env."""

from __future__ import annotations

import ctypes
import json
import math
import os
import platform
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """``(end_to_end, per_layer)`` name -> unit maps, read from BENCHMARK.json.

    A run with ``--trace 0`` reports every end-to-end metric and one with
    ``--trace 1`` every per-layer metric; a layer a workload never enters
    reports 0.  Mining layer times are per cold run; serving layer times
    are self seconds per call of the layer.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


#: OpenBLAS threads for every process of the benchmark.  With OpenBLAS's
#: default of one thread per CPU, Step 2's tiny factorizations spin-wait
#: across both CPUs of a 2-vCPU guest, so the run time follows whatever
#: else the host schedules: five 35 s so-run windows spread 18-20% (IQR
#: over median of the fastest run) unpinned and 6-7% at one thread, which
#: was also 1.7x faster.
BLAS_THREADS = "1"


def pin_blas_threads() -> None:
    """Set ``OPENBLAS_NUM_THREADS`` before numpy loads; children inherit it."""
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS


def child_env(work_dir: str) -> dict:
    """Environment for processes the benchmark starts.

    ``REPRO_*`` overrides are dropped so the seed and sizes come only from
    the benchmark; temporary files land in the checkout's work directory.
    ``OPENBLAS_NUM_THREADS`` is ``BLAS_THREADS``.  Bytecode caching stays
    on, as for a user: the untimed set-up run writes the caches.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    env["TMPDIR"] = work_dir
    return env


_BLAS_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, read through its getter.

    Opening an already-loaded library returns the same handle, so this
    reads the live setting, not a fresh copy's default.
    """
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    paths = [None]
    if os.path.isdir(libs):
        paths += [os.path.join(libs, e) for e in sorted(os.listdir(libs)) if "openblas" in e]
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_GETTERS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def environment() -> dict:
    """What two records need to be compared: CPUs, Python, BLAS."""
    import numpy
    import scipy

    record = {
        "nproc": os.cpu_count(),
        "sched_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {
            k: v
            for k, v in sorted(os.environ.items())
            if k.startswith(("OPENBLAS_", "OMP_", "MKL_", "BLIS_"))
        },
    }
    try:
        config = numpy.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
        record["blas"] = {
            key: blas.get(key) for key in ("name", "version", "openblas configuration")
        }
        record["blas_threads"] = _blas_threads()
    except (TypeError, ValueError, OSError) as exc:
        record["blas"] = {"error": str(exc)}
    return record


def emit(result: dict) -> None:
    """Print the result object as the last line of standard output."""
    sys.stdout.write(json.dumps(result, sort_keys=False) + "\n")
    sys.stdout.flush()
