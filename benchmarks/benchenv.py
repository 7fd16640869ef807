"""The ``env`` block every bench record carries: enough to compare two records.

A mining process loads two OpenBLAS copies: numpy's, which runs the
projection GEMMs, and SciPy's, which runs the k×k LAPACK calls of every
factorization (``dpotrf``, ``dtrcon``, ``dpotri``).  Their versions can
differ, so the block names both, next to the thread variables that size
their pools.  Live thread counts are not recorded.

Bench scripts import it from their own directory; :func:`environment`
imports ``repro``, so they call it once ``src`` is on ``sys.path``::

    from benchenv import environment

    payload = {..., "env": environment()}
"""

from __future__ import annotations

import os
import sys


def _blas(module) -> dict | None:
    """Name and version of the BLAS ``module`` was built against."""
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # builds without a machine-readable config
        return None
    return {"name": blas.get("name"), "version": blas.get("version")}


def environment() -> dict:
    """CPUs, interpreter and library versions, both BLAS builds, and every
    ``OPENBLAS_*``/``OMP_*`` variable."""
    import numpy
    import scipy

    from repro.parallel.executors import default_worker_count

    return {
        "cpu_count": os.cpu_count(),
        # Affinity-aware schedulable CPUs: what default_worker_count()
        # actually sizes pools with on cgroup/taskset-limited runners.
        "schedulable_cpus": default_worker_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": _blas(numpy), "scipy": _blas(scipy)},
        "blas_env": {
            key: value
            for key, value in sorted(os.environ.items())
            if key.startswith(("OPENBLAS_", "OMP_"))
        },
    }
