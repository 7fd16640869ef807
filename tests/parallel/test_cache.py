"""Unit tests for the content-addressed CATE estimation cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro.causal.estimators import (
    LinearAdjustmentEstimator,
    StratifiedEstimator,
    estimate_cate,
)
from repro.parallel.cache import EstimationCache, treated_mask_digest
from repro.tabular.table import Table


class CountingEstimator(LinearAdjustmentEstimator):
    """Linear estimator that counts real estimation calls."""

    def __init__(self) -> None:
        self.calls = 0

    def estimate(self, table, treated, outcome, adjustment=()):
        self.calls += 1
        return super().estimate(table, treated, outcome, adjustment)


def make_table(rng: np.random.Generator, n: int = 120) -> Table:
    group = rng.choice(["x", "y"], size=n).astype(object)
    noise = rng.normal(size=n)
    return Table({"Group": group, "Outcome": 1.0 + noise})


def test_hit_returns_identical_result(rng):
    table = make_table(rng)
    treated = np.asarray(table.values("Group") == "x")
    estimator = CountingEstimator()
    cache = EstimationCache()

    first = cache.get_or_estimate(estimator, table, treated, "Outcome", ())
    second = cache.get_or_estimate(estimator, table, treated, "Outcome", ())
    assert estimator.calls == 1
    assert second is first
    assert cache.stats().hits == 1 and cache.stats().misses == 1


def test_content_addressing_shares_across_equal_tables(rng):
    """Two separately-filtered but identical sub-tables share one entry."""
    table = make_table(rng, n=200)
    mask = np.asarray(table.values("Group") == "x")
    sub_a = table.filter(mask)
    sub_b = table.filter(mask)  # distinct object, same content
    assert sub_a is not sub_b
    assert sub_a.fingerprint() == sub_b.fingerprint()

    treated = np.zeros(sub_a.n_rows, dtype=bool)
    treated[::2] = True
    estimator = CountingEstimator()
    cache = EstimationCache()
    cache.get_or_estimate(estimator, sub_a, treated, "Outcome", ())
    cache.get_or_estimate(estimator, sub_b, treated, "Outcome", ())
    assert estimator.calls == 1


def test_key_distinguishes_every_input(rng):
    table = make_table(rng)
    other = make_table(rng)  # different draws -> different fingerprint
    treated = np.zeros(table.n_rows, dtype=bool)
    treated[:10] = True
    flipped = ~treated

    base = EstimationCache.key_for(
        LinearAdjustmentEstimator(), table, treated, "Outcome", ()
    )
    assert base != EstimationCache.key_for(
        LinearAdjustmentEstimator(), other, treated, "Outcome", ()
    )
    assert base != EstimationCache.key_for(
        LinearAdjustmentEstimator(), table, flipped, "Outcome", ()
    )
    assert base != EstimationCache.key_for(
        LinearAdjustmentEstimator(), table, treated, "Outcome", ("Group",)
    )
    assert base != EstimationCache.key_for(
        StratifiedEstimator(), table, treated, "Outcome", ()
    )
    assert StratifiedEstimator(n_bins=4).cache_key() != StratifiedEstimator(
        n_bins=8
    ).cache_key()


def test_treated_mask_digest_not_length_blind():
    a = np.array([True, False, True])
    assert treated_mask_digest(a) == treated_mask_digest(a.copy())
    assert treated_mask_digest(a) != treated_mask_digest(a[:2])
    # packbits pads with zeros; the length guard must keep these apart.
    assert treated_mask_digest(np.array([True, False])) != treated_mask_digest(
        np.array([True, False, False])
    )


def test_lru_eviction_bounds_entries(rng):
    table = make_table(rng)
    estimator = LinearAdjustmentEstimator()
    cache = EstimationCache(max_entries=4)
    for start in range(8):
        treated = np.zeros(table.n_rows, dtype=bool)
        treated[start::7] = True
        cache.get_or_estimate(estimator, table, treated, "Outcome", ())
    assert len(cache) == 4


def test_estimate_cate_facade_uses_cache(rng):
    table = make_table(rng)
    treated = np.asarray(table.values("Group") == "x")
    estimator = CountingEstimator()
    cache = EstimationCache()
    uncached = estimate_cate(table, treated, "Outcome", estimator=estimator)
    cached = estimate_cate(
        table, treated, "Outcome", estimator=estimator, cache=cache
    )
    again = estimate_cate(
        table, treated, "Outcome", estimator=estimator, cache=cache
    )
    assert estimator.calls == 2  # uncached + one miss
    assert again is cached
    assert cached.estimate == pytest.approx(uncached.estimate)


def test_fingerprint_distinguishes_category_dictionaries():
    """Same codes, different category meanings -> different fingerprints."""
    a = Table({"G": np.array(["u", "v", "u"], dtype=object), "O": [1.0, 2.0, 3.0]})
    b = Table({"G": np.array(["u", "w", "u"], dtype=object), "O": [1.0, 2.0, 3.0]})
    assert a.fingerprint() != b.fingerprint()


def test_snapshot_seed_roundtrip(rng):
    """Seeding from a snapshot reproduces hits without stats noise."""
    table = make_table(rng)
    treated = np.asarray(table.values("Group") == "x")
    estimator = CountingEstimator()
    source = EstimationCache()
    source.get_or_estimate(estimator, table, treated, "Outcome", ())

    clone = EstimationCache()
    clone.seed(source.snapshot())
    stats = clone.stats()
    assert (stats.hits, stats.misses, stats.entries) == (0, 0, 1)
    clone.get_or_estimate(estimator, table, treated, "Outcome", ())
    assert estimator.calls == 1  # answered from the seeded entry
    assert clone.stats().hits == 1


def test_record_and_drain_new_entries(rng):
    table = make_table(rng)
    estimator = LinearAdjustmentEstimator()
    cache = EstimationCache()

    def estimate(start: int):
        treated = np.zeros(table.n_rows, dtype=bool)
        treated[start::5] = True
        cache.get_or_estimate(estimator, table, treated, "Outcome", ())

    estimate(0)  # before recording: must not be drained later
    cache.record_new_entries()
    estimate(1)
    estimate(2)
    drained = cache.drain_new_entries()
    assert len(drained) == 2
    assert cache.drain_new_entries() == {}  # drained exactly once


def test_drain_without_record_is_inert(rng):
    """Draining a non-recording cache must not switch recording on
    (the serial path shares the caller's cache and drains per chunk)."""
    table = make_table(rng)
    estimator = LinearAdjustmentEstimator()
    cache = EstimationCache()
    assert cache.drain_new_entries() == {}
    treated = np.zeros(table.n_rows, dtype=bool)
    treated[:7] = True
    cache.get_or_estimate(estimator, table, treated, "Outcome", ())
    assert cache.drain_new_entries() == {}  # still not recording


def test_clear_resets_counters(rng):
    table = make_table(rng)
    treated = np.zeros(table.n_rows, dtype=bool)
    treated[:5] = True
    cache = EstimationCache()
    cache.get_or_estimate(LinearAdjustmentEstimator(), table, treated, "Outcome", ())
    cache.clear()
    stats = cache.stats()
    assert (stats.hits, stats.misses, stats.entries) == (0, 0, 0)
    assert stats.hit_rate == 0.0


# -- LRU eviction ordering ---------------------------------------------------------


def test_lru_evicts_least_recently_used_first():
    """Eviction follows recency of *use* (get refreshes), not insertion."""
    cache = EstimationCache(max_entries=3)
    cache.put(("k", 1), "r1")
    cache.put(("k", 2), "r2")
    cache.put(("k", 3), "r3")
    assert cache.get(("k", 1)) == "r1"  # refresh k1: k2 is now the LRU entry
    cache.put(("k", 4), "r4")  # evicts k2, not k1
    assert cache.get(("k", 2)) is None
    assert cache.get(("k", 1)) == "r1"
    assert cache.get(("k", 3)) == "r3"
    assert cache.get(("k", 4)) == "r4"


def test_lru_put_refreshes_recency_too():
    cache = EstimationCache(max_entries=2)
    cache.put(("k", 1), "r1")
    cache.put(("k", 2), "r2")
    cache.put(("k", 1), "r1-updated")  # rewrite refreshes k1
    cache.put(("k", 3), "r3")  # evicts k2
    assert cache.get(("k", 2)) is None
    assert cache.get(("k", 1)) == "r1-updated"


def test_lru_seed_respects_the_bound_and_recency():
    """Bulk seeding keeps at most max_entries, preferring the newest."""
    cache = EstimationCache(max_entries=2)
    cache.put(("k", 1), "r1")
    cache.seed({("k", 2): "r2", ("k", 3): "r3"})
    assert len(cache) == 2
    assert cache.get(("k", 1)) is None  # oldest fell out
    assert cache.get(("k", 2)) == "r2"
    assert cache.get(("k", 3)) == "r3"
    # Seeding never touches the hit/miss counters.
    stats = cache.stats()
    assert stats.entries == 2
