"""How a workload seed becomes a paper-dataset input.

The German and StackOverflow generators are sampled once at the
experiment-default seed and the workload seed permutes their rows.  Every
seed therefore mines the same rows in a different order: the same amount
of work (contexts, lattice nodes, rules), different row layouts and float
summation orders.  Sampling a fresh dataset per seed would change the
work itself by up to ±20% between seeds (German at 4,000 rows: 0.61 s to
0.89 s of ``FairCap.run`` over five seeds) and bury any change a
benchmark comparison is meant to see.  Each seed still gets its own
reference ruleset.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.experiments.settings import DEFAULT_SEED, ExperimentSettings


def seeded_bundle(dataset: str, n: int, seed: int):
    """``(settings, bundle)`` for ``dataset`` at ``n`` rows, rows permuted by ``seed``."""
    settings = ExperimentSettings(so_n=n, german_n=n, seed=DEFAULT_SEED)
    bundle = settings.load(dataset)
    order = np.random.default_rng(seed).permutation(bundle.table.n_rows)
    return settings, dataclasses.replace(bundle, table=bundle.table.take(order))
