"""Dataset registry: look up loaders by name.

Keeps the experiment harness free of dataset-specific imports — a benchmark
asks for ``load_dataset("stackoverflow", n=6000)`` and receives a
:class:`~repro.datasets.bundle.DatasetBundle`.

Besides the two paper datasets, every ground-truth world of the scenario
oracle grid (:mod:`repro.scenarios`) is addressable as
``scenario:<name>`` — e.g. ``load_dataset("scenario:linear-g2-d1-gap-lo")``
— so the CLI and the benchmarks can name known-CATE worlds the same way
they name the bundled datasets.  Scenario resolution is imported lazily to
keep ``repro.datasets`` import-light (and cycle-free: the scenario package
itself builds :class:`DatasetBundle` objects).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.datasets.bundle import DatasetBundle
from repro.datasets.german import load_german
from repro.datasets.stackoverflow import load_stackoverflow
from repro.utils.errors import ConfigError

DATASET_LOADERS: dict[str, Callable[..., DatasetBundle]] = {
    "stackoverflow": load_stackoverflow,
    "german": load_german,
}


def available_datasets() -> tuple[str, ...]:
    """Every loadable dataset name: bundled datasets plus scenario worlds."""
    from repro.scenarios.catalog import scenario_names

    return tuple(sorted(DATASET_LOADERS)) + scenario_names()


def load_dataset(
    name: str,
    n: int | None = None,
    rng: int | np.random.Generator | None = None,
    shard_rows: int | None = None,
    shard_dir: str | None = None,
) -> DatasetBundle:
    """Load a registered dataset by name.

    Parameters
    ----------
    name:
        ``"stackoverflow"``, ``"german"``, or a scenario world
        (``"scenario:<name>"``).
    n:
        Row count override (``None`` = the paper's size: 38K / 1K; scenario
        worlds default to :data:`repro.scenarios.catalog.DEFAULT_ROWS`).
        A count below 1 raises :class:`~repro.utils.errors.ConfigError`.
    rng:
        Seed or generator.
    shard_rows:
        When set, spill the loaded table into a columnar shard store of
        ``shard_rows``-row shards and return the bundle with the sharded
        handle in place of the in-RAM table.  The spill is a pure
        re-layout: masks, filters, and sufficient statistics computed
        through the handle are identical to the materialised table's, so
        mining results are bit-for-bit unchanged.
    shard_dir:
        Shard-store directory (required with ``shard_rows``).  An existing
        store with a matching fingerprint and shard size is reused.
    """
    if n is not None and n < 1:
        raise ConfigError(f"row count n must be at least 1, got {n}")
    loader = DATASET_LOADERS.get(name)
    if loader is None:
        from repro.scenarios.catalog import is_scenario_name, load_scenario

        if is_scenario_name(name):
            if n is None:
                bundle = load_scenario(name, rng=rng)
            else:
                bundle = load_scenario(name, n=n, rng=rng)
            return _maybe_shard(bundle, shard_rows, shard_dir)
        raise ConfigError(
            f"unknown dataset {name!r}; available: {sorted(DATASET_LOADERS)} "
            "plus the scenario worlds (scenario:<name> — see "
            "`python -m repro list-datasets`)"
        )
    if n is None:
        bundle = loader(rng=rng)
    else:
        bundle = loader(n=n, rng=rng)
    return _maybe_shard(bundle, shard_rows, shard_dir)


def _maybe_shard(
    bundle: DatasetBundle, shard_rows: int | None, shard_dir: str | None
) -> DatasetBundle:
    """Replace the bundle's table with a shard-store handle when requested."""
    if shard_rows is None:
        if shard_dir is not None:
            raise ConfigError("shard_dir requires shard_rows")
        return bundle
    if shard_dir is None:
        raise ConfigError("load_dataset(shard_rows=...) requires shard_dir")
    import dataclasses

    from repro.datasets.sharded import ShardedTable

    sharded = ShardedTable.write(bundle.table, shard_dir, shard_rows, reuse=True)
    return dataclasses.replace(bundle, table=sharded)
