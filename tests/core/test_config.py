"""Tests for FairCapConfig validation and derived values."""

import pytest

from repro.causal.estimators import LinearAdjustmentEstimator, StratifiedEstimator
from repro.core.config import FairCapConfig
from repro.core.variants import canonical_variants
from repro.utils.errors import ConfigError


def test_defaults_valid():
    config = FairCapConfig()
    assert config.apriori_min_support == 0.1
    assert config.max_rules == 20


@pytest.mark.parametrize(
    "kwargs",
    [
        {"apriori_min_support": 0.0},
        {"apriori_min_support": 1.5},
        {"max_grouping_size": 0},
        {"max_intervention_size": 0},
        {"estimator": "magic"},
        {"significance_alpha": 1.0},
        {"significance_alpha": 0.0},
        {"lambda_size": -1.0},
        {"lambda_utility": -0.1},
        {"max_rules": 0},
        {"cache_size": -1},
        {"shard_rows": 0},
        {"n_workers": -1},
    ],
)
def test_invalid_configs_rejected(kwargs):
    with pytest.raises(ConfigError):
        FairCapConfig(**kwargs)


def test_worker_count_picks_the_executor(monkeypatch):
    """``n_workers`` is the only parallelism setting: 1 runs in-process,
    more run a process pool, 0 means every visible CPU."""
    from repro.parallel import executors
    from repro.parallel.executors import ProcessExecutor, SerialExecutor

    assert FairCapConfig().n_workers == 1
    assert type(FairCapConfig().make_executor()) is SerialExecutor
    assert type(FairCapConfig(n_workers=1).make_executor()) is SerialExecutor
    two = FairCapConfig(n_workers=2).make_executor()
    assert type(two) is ProcessExecutor and two.n_workers == 2
    every_cpu = FairCapConfig(n_workers=0).make_executor()
    assert every_cpu.n_workers == executors.default_worker_count()
    monkeypatch.setattr(executors, "default_worker_count", lambda: 1)
    assert type(FairCapConfig(n_workers=0).make_executor()) is SerialExecutor
    monkeypatch.setattr(executors, "default_worker_count", lambda: 3)
    three = FairCapConfig(n_workers=0).make_executor()
    assert type(three) is ProcessExecutor and three.n_workers == 3


def test_executor_is_not_a_config_field():
    with pytest.raises(TypeError):
        FairCapConfig(executor="process")


def test_alpha_none_allowed():
    FairCapConfig(significance_alpha=None)


def test_make_estimator():
    assert isinstance(FairCapConfig().make_estimator(), LinearAdjustmentEstimator)
    assert isinstance(
        FairCapConfig(estimator="stratified").make_estimator(), StratifiedEstimator
    )


def test_with_variant():
    variants = canonical_variants("SP", 1.0, 0.5, 0.5)
    base = FairCapConfig()
    updated = base.with_variant(variants["Group fairness"])
    assert updated.variant.has_group_fairness
    assert not base.variant.has_group_fairness


def test_effective_apriori_support_raised_by_rule_coverage():
    variants = canonical_variants("SP", 1.0, theta=0.4, theta_protected=0.4)
    config = FairCapConfig(
        variant=variants["Rule coverage"], apriori_min_support=0.1
    )
    assert config.effective_apriori_support() == 0.4
    # Not raised below the configured support.
    low = canonical_variants("SP", 1.0, theta=0.05, theta_protected=0.05)
    config = FairCapConfig(
        variant=low["Rule coverage"], apriori_min_support=0.1
    )
    assert config.effective_apriori_support() == 0.1


def test_effective_support_unchanged_for_group_coverage():
    variants = canonical_variants("SP", 1.0, theta=0.9, theta_protected=0.9)
    config = FairCapConfig(variant=variants["Group coverage"])
    assert config.effective_apriori_support() == config.apriori_min_support
