"""Tests for experiment settings."""

import pytest

from repro.experiments.settings import ExperimentSettings
from repro.utils.errors import ConfigError


def test_from_environment_defaults(monkeypatch):
    for var in ("REPRO_FULL", "REPRO_SO_N", "REPRO_GERMAN_N", "REPRO_SEED"):
        monkeypatch.delenv(var, raising=False)
    settings = ExperimentSettings.from_environment()
    assert settings.so_n == 6_000
    assert settings.german_n == 4_000


def test_env_overrides(monkeypatch):
    monkeypatch.delenv("REPRO_FULL", raising=False)
    monkeypatch.setenv("REPRO_SO_N", "1234")
    monkeypatch.setenv("REPRO_SEED", "99")
    settings = ExperimentSettings.from_environment()
    assert settings.so_n == 1234
    assert settings.seed == 99


def test_full_scale(monkeypatch):
    monkeypatch.setenv("REPRO_FULL", "1")
    settings = ExperimentSettings.from_environment()
    assert settings.so_n == 38_000


def test_rows_for():
    settings = ExperimentSettings(so_n=100, german_n=50, seed=1)
    assert settings.rows_for("stackoverflow") == 100
    assert settings.rows_for("german") == 50


def test_variants_and_config():
    settings = ExperimentSettings(so_n=300, german_n=300, seed=1)
    bundle = settings.load("german")
    variants = settings.variants_for(bundle)
    assert len(variants) == 9
    config = settings.config_for(bundle, variants["No constraints"])
    assert config.apriori_min_support == 0.1
    fair = variants["Group fairness"]
    assert fair.fairness.kind.value == "BGL"
    assert fair.fairness.threshold == 0.1


@pytest.mark.parametrize(
    "var",
    ["REPRO_SO_N", "REPRO_GERMAN_N", "REPRO_SEED", "REPRO_WORKERS", "REPRO_CACHE_SIZE"],
)
def test_malformed_integer_variable_is_a_config_error(monkeypatch, var):
    monkeypatch.delenv("REPRO_FULL", raising=False)
    monkeypatch.setenv(var, "abc")
    with pytest.raises(ConfigError) as excinfo:
        ExperimentSettings.from_environment()
    assert str(excinfo.value) == f"{var} must be an integer, got 'abc'"

