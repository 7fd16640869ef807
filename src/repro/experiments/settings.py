"""Shared experiment settings and configuration factories.

The paper runs on 38K (SO) and 1K (German) rows on a CloudLab server; this
reproduction defaults to laptop-friendly sizes that preserve every
qualitative shape:

- Stack Overflow: 6,000 rows (``REPRO_SO_N`` overrides; ``REPRO_FULL=1``
  selects the paper's 38,000);
- German Credit: 4,000 rows — deliberately *larger* than the paper's 1,000
  because the synthetic binary outcome needs more rows for stable
  protected-group CATEs (~85 protected rows at n=1000 give +/-0.4 noise on a
  0.3-scale effect); the loader default remains 1,000 for Table 3 fidelity.

Experiment configs follow the paper's defaults (Sec. 6): Apriori threshold
0.1, SP epsilon $10k and coverage 0.5 for SO, BGL tau 0.1 and coverage 0.3
for German.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.core.config import FairCapConfig
from repro.core.variants import ProblemVariant, canonical_variants
from repro.datasets.bundle import DatasetBundle
from repro.datasets.registry import load_dataset
from repro.utils.errors import ConfigError

PAPER_SO_N = 38_000
PAPER_GERMAN_N = 1_000
DEFAULT_SO_N = 6_000
DEFAULT_GERMAN_N = 4_000
DEFAULT_SEED = 7


def _env_int(name: str, default: int | None) -> int | None:
    """``int`` value of environment variable ``name`` (``default`` if unset)."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{name} must be an integer, got {raw!r}") from None


@dataclass(frozen=True)
class ExperimentSettings:
    """Row counts, seed, worker count, and per-dataset constraint defaults.

    ``n_workers`` is the Step-2 worker count for every experiment driver:
    ``1`` runs in-process, ``N > 1`` a process pool, ``0`` all visible CPUs
    (see :mod:`repro.parallel`).  Results are identical for any worker
    count — only runtime changes.
    """

    so_n: int
    german_n: int
    seed: int
    n_workers: int = 1
    cache_size: int | None = None
    """Entry bound of the CATE memo the ``table4``–``table6`` experiments share
    across a block's variants; ``None`` = the FairCapConfig default, ``0``
    disables it (cache-free, paper-methodology-comparable runtimes).  The
    other experiments run without a cache, so it sets nothing there."""
    n_override: int | None = None
    """Explicit row-count override (the CLI's ``--n``); applies to every
    dataset including scenario worlds.  ``None`` = per-dataset defaults."""

    @classmethod
    def from_environment(cls) -> "ExperimentSettings":
        """Build settings from ``REPRO_*`` environment variables."""
        if os.environ.get("REPRO_FULL") == "1":
            so_n, german_n = PAPER_SO_N, 4 * PAPER_GERMAN_N
        else:
            so_n = _env_int("REPRO_SO_N", DEFAULT_SO_N)
            german_n = _env_int("REPRO_GERMAN_N", DEFAULT_GERMAN_N)
        return cls(
            so_n=so_n,
            german_n=german_n,
            seed=_env_int("REPRO_SEED", DEFAULT_SEED),
            n_workers=_env_int("REPRO_WORKERS", 1),
            cache_size=_env_int("REPRO_CACHE_SIZE", None),
        )

    def rows_for(self, dataset: str) -> int:
        """Experiment row count for ``dataset``."""
        if dataset == "stackoverflow":
            return self.so_n
        if dataset == "german":
            return self.german_n
        from repro.scenarios.catalog import DEFAULT_ROWS, is_scenario_name

        if is_scenario_name(dataset):
            return self.n_override if self.n_override is not None else DEFAULT_ROWS
        return self.german_n

    def load(self, dataset: str) -> DatasetBundle:
        """Load ``dataset`` at the experiment scale."""
        return load_dataset(dataset, n=self.rows_for(dataset), rng=self.seed)

    # -- constraint defaults (paper Sec. 6) -----------------------------------

    def variants_for(self, bundle: DatasetBundle) -> dict[str, ProblemVariant]:
        """The nine canonical variants with the dataset's default thresholds."""
        theta = bundle.default_coverage_theta
        return canonical_variants(
            bundle.fairness_kind,
            bundle.default_fairness_threshold,
            theta=theta,
            theta_protected=theta,
        )

    def config_for(
        self, bundle: DatasetBundle, variant: ProblemVariant
    ) -> FairCapConfig:
        """FairCap config with the paper's defaults for this dataset."""
        extra = {} if self.cache_size is None else {"cache_size": self.cache_size}
        return FairCapConfig(
            variant=variant,
            apriori_min_support=0.1,
            max_grouping_size=2,
            max_intervention_size=2,
            max_values_per_attribute=5,
            min_subgroup_size=10,
            n_workers=self.n_workers,
            **extra,
        )
