"""Prescription engine: Eq. 5/6 resolution semantics and the profile cache."""

from __future__ import annotations

import pytest

from repro.rules.ruleset import RuleSet
from repro.serve.artifact import ServingArtifact
from repro.serve.engine import PrescriptionEngine
from repro.tabular.schema import AttributeKind
from repro.utils.errors import ServeError

from tests.serve.conftest import random_rules, random_table


US_30S = {"Country": "US", "Age": 35.0}


def test_non_protected_gets_max_utility_rule(toy_ruleset, serve_protected):
    engine = PrescriptionEngine(toy_ruleset, protected=serve_protected)
    result = engine.prescribe({**US_30S, "Gender": "M"})
    # All three rules match; rule 0 has the highest overall utility (Eq. 5).
    assert result.matched_rules == (0, 1, 2)
    assert result.rule_index == 0
    assert result.expected_utility == 5.0
    assert result.protected is False
    assert result.intervention[0]["attribute"] == "Training"


def test_protected_gets_min_protected_utility_rule(toy_ruleset, serve_protected):
    engine = PrescriptionEngine(toy_ruleset, protected=serve_protected)
    result = engine.prescribe({**US_30S, "Gender": "F"})
    # Worst-case semantics (Eq. 6): rule 2 has the lowest protected utility.
    assert result.rule_index == 2
    assert result.expected_utility == 1.0
    assert result.protected is True


def test_unknown_protected_status_uses_overall_semantics(toy_ruleset, serve_protected):
    engine = PrescriptionEngine(toy_ruleset, protected=serve_protected)
    result = engine.prescribe(US_30S)  # no Gender attribute supplied
    assert result.protected is None
    assert result.rule_index == 0  # falls back to Eq. 5


def test_no_protected_group_configured(toy_ruleset):
    engine = PrescriptionEngine(toy_ruleset)
    result = engine.prescribe(US_30S)
    assert result.protected is None
    assert result.rule_index == 0


def test_no_matching_rule_yields_empty_prescription(toy_ruleset, serve_protected):
    # Only the US rule, and the individual is German.
    ruleset = RuleSet([toy_ruleset[0]])
    engine = PrescriptionEngine(ruleset, protected=serve_protected)
    result = engine.prescribe({"Country": "DE", "Gender": "M"})
    assert result.rule_index is None
    assert result.matched_rules == ()
    assert result.expected_utility == 0.0
    assert result.intervention == ()


def test_cache_hits_and_eviction(toy_ruleset, serve_protected):
    engine = PrescriptionEngine(toy_ruleset, protected=serve_protected, cache_size=2)
    a = {"Country": "US", "Age": 35.0, "Gender": "M"}
    b = {"Country": "DE", "Age": 20.0, "Gender": "F"}
    c = {"Country": "FR", "Age": 50.0, "Gender": "F"}
    assert engine.prescribe(a) == engine.prescribe(a)
    info = engine.cache_info()
    assert info["hits"] == 1 and info["misses"] == 1
    engine.prescribe(b)
    engine.prescribe(c)  # evicts a (LRU, max size 2)
    assert engine.cache_info()["size"] == 2
    engine.prescribe(a)
    assert engine.cache_info()["misses"] == 4


def test_cache_key_ignores_irrelevant_attributes(toy_ruleset, serve_protected):
    engine = PrescriptionEngine(toy_ruleset, protected=serve_protected)
    base = {"Country": "US", "Age": 35.0, "Gender": "M"}
    engine.prescribe({**base, "FavouriteColour": "teal"})
    engine.prescribe({**base, "FavouriteColour": "mauve"})
    assert engine.cache_info()["hits"] == 1


def test_cache_keys_an_absent_attribute_apart_from_null(
    toy_ruleset, serve_protected
):
    """A cached answer for ``None`` never stands in for a missing attribute."""
    cached = PrescriptionEngine(toy_ruleset, protected=serve_protected)
    uncached = PrescriptionEngine(
        toy_ruleset, protected=serve_protected, cache_size=0
    )
    null_country = {"Country": None, "Age": 35.0, "Gender": "M"}
    assert cached.prescribe(null_country) == uncached.prescribe(null_country)
    for engine in (uncached, cached):
        with pytest.raises(ServeError, match=r"missing attributes: \['Country'\]"):
            engine.prescribe({"Age": 35.0, "Gender": "M"})

    null_gender = {"Country": "US", "Age": 35.0, "Gender": None}
    assert cached.prescribe(null_gender).protected is False
    assert cached.prescribe({"Country": "US", "Age": 35.0}).protected is None


def test_cache_disabled(toy_ruleset):
    engine = PrescriptionEngine(toy_ruleset, cache_size=0)
    engine.prescribe(US_30S)
    engine.prescribe(US_30S)
    info = engine.cache_info()
    assert info == {"hits": 0, "misses": 0, "size": 0, "max_size": 0}


def test_clear_cache(toy_ruleset):
    engine = PrescriptionEngine(toy_ruleset)
    engine.prescribe(US_30S)
    engine.prescribe(US_30S)
    engine.clear_cache()
    assert engine.cache_info() == {
        "hits": 0, "misses": 0, "size": 0, "max_size": 1024,
    }


def test_batch_table_path_identical_to_scalar(serve_rng, serve_protected):
    rules = random_rules(serve_rng, 15)
    table = random_table(serve_rng, 300)
    engine = PrescriptionEngine(RuleSet(rules), protected=serve_protected)
    batch = engine.prescribe_table(table)
    engine.clear_cache()
    scalar = engine.prescribe_batch(table.to_rows())
    assert batch == scalar


def test_from_artifact_uses_schema_for_numeric_attributes(
    toy_ruleset, serve_protected, toy_table
):
    artifact = ServingArtifact(
        toy_ruleset, schema=toy_table.schema, protected=serve_protected
    )
    engine = PrescriptionEngine.from_artifact(artifact, cache_size=16)
    assert engine.schema is not None
    continuous = {
        s.name for s in engine.schema if s.kind is AttributeKind.CONTINUOUS
    }
    assert continuous  # the toy schema declares Income as continuous
    result = engine.prescribe({**US_30S, "Gender": "F"})
    assert result.protected is True


# -- thread safety: the profile LRU under concurrent hammering ----------------


def test_cache_survives_concurrent_hammering(toy_ruleset, serve_protected):
    """N threads x M profiles: no lost/corrupt entries, counters consistent.

    The LRU is mutated from every HTTP worker thread; without the lock,
    OrderedDict moves/evictions race (lost entries, corrupted linkage) and
    the hit/miss counters drift from the lookup count.  The invariant
    pinned here: hits + misses == total lookups, every returned
    prescription is bit-identical to an uncontended reference engine, and
    the cache never exceeds its bound.
    """
    import threading

    n_threads, n_rounds = 8, 40
    profiles = [
        {"Country": country, "Age": float(age), "Gender": gender}
        for country in ("US", "DE")
        for age in (20, 35)
        for gender in ("F", "M")
    ]  # 8 distinct profiles against cache_size 4: constant eviction pressure
    engine = PrescriptionEngine(
        toy_ruleset, protected=serve_protected, cache_size=4
    )
    reference = PrescriptionEngine(
        toy_ruleset, protected=serve_protected, cache_size=0
    )
    expected = {i: reference.prescribe(p) for i, p in enumerate(profiles)}

    mismatches: list = []
    errors: list = []
    barrier = threading.Barrier(n_threads)

    def hammer(seed: int) -> None:
        try:
            barrier.wait(timeout=10)
            for round_ in range(n_rounds):
                i = (seed + round_) % len(profiles)
                got = engine.prescribe(profiles[i])
                if got != expected[i]:
                    mismatches.append((i, got))
        except BaseException as exc:  # noqa: BLE001 - collected for assert
            errors.append(exc)

    threads = [
        threading.Thread(target=hammer, args=(seed,)) for seed in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not errors, errors
    assert not mismatches, mismatches[:3]
    info = engine.cache_info()
    assert info["hits"] + info["misses"] == n_threads * n_rounds
    assert info["size"] <= 4
    # Cached entries must still resolve correctly after the storm.
    for i, profile in enumerate(profiles):
        assert engine.prescribe(profile) == expected[i]
