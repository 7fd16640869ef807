"""Content-addressed memoisation of CATE estimates.

FairCap's Step 2 estimates thousands of CATEs, and large fractions of that
work recur: the same sub-population / treated-mask / adjustment-set triple is
re-estimated across lattice levels (a kept node's splits reappear under its
children's contexts), across the nine problem variants of a Table-4 style
experiment (variants change *selection*, not estimation), and across repeat
runs on the same data.  :class:`EstimationCache` memoises
:meth:`~repro.causal.estimators.LinearAdjustmentEstimator.estimate` results
under a key derived entirely from content:

``(estimator identity+params, table fingerprint, treated-mask digest,
outcome name, adjustment attributes)``

The table fingerprint (:meth:`repro.tabular.table.Table.fingerprint`) hashes
the actual column data, so two structurally identical sub-tables produced by
different filter paths share entries — this is what makes the cache work
across variants and runs, where the sub-table *objects* are always fresh.

Because the key captures every input of the estimation, a cache hit returns
a value bit-identical to recomputation; caching can change latency, never
results (see the determinism contract in :mod:`repro.parallel`).  The store
is an LRU bounded by ``max_entries`` and guarded by a lock so
:class:`~repro.parallel.executors.ThreadExecutor` workers can share one
instance.

The batched FWL engine (:mod:`repro.causal.batch`) stores *level entries*
(:meth:`EstimationCache.rows_level_key`): one whole (sub-population, lattice
level) batch under a digest of its packed treated stack — per-candidate GEMM
output is only bit-reproducible for an identical batch, so the level itself
is the content unit.  Design factorizations are not kept here: each is
memoised on the sub-table it factorizes and dies with it.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

CacheKey = tuple


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss/eviction counters of an :class:`EstimationCache`."""

    hits: int
    misses: int
    entries: int
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def treated_mask_digest(treated: np.ndarray) -> bytes:
    """Stable digest of a boolean treated/control mask."""
    treated = np.asarray(treated, dtype=bool)
    h = hashlib.blake2b(digest_size=16)
    h.update(str(treated.size).encode())
    h.update(np.packbits(treated).tobytes())
    return h.digest()


def packed_rows_digest(word_matrix: np.ndarray, n_rows: int) -> bytes:
    """Stable digest of an ``(m, words)`` packed-bitset stack.

    The bitset kernel (:mod:`repro.mining.bitsets`) already holds each
    candidate mask as ``uint64`` words, so hashing the words directly skips
    the per-level ``np.packbits`` pass the boolean digests pay.  ``n_rows``
    disambiguates stacks whose padding would otherwise alias (all padding
    bits are zero by construction).
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(b"packed-rows")
    h.update(repr((n_rows,) + word_matrix.shape).encode())
    h.update(np.ascontiguousarray(word_matrix).tobytes())
    return h.digest()


class EstimationCache:
    """Bounded, thread-safe, content-addressed store of CATE results.

    Parameters
    ----------
    max_entries:
        LRU bound; least-recently-used entries are evicted past it.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        self.max_entries = max(1, int(max_entries))
        self._store: OrderedDict[CacheKey, object] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._new: dict[CacheKey, object] | None = None

    # -- keys ------------------------------------------------------------------

    @staticmethod
    def key_for(
        estimator,
        table,
        treated: np.ndarray,
        outcome: str,
        adjustment: tuple[str, ...],
    ) -> CacheKey:
        """Content key of one estimation problem.

        ``estimator`` must expose ``cache_key()`` (see
        :mod:`repro.causal.estimators`); ``table`` must expose
        ``fingerprint()`` (see :class:`repro.tabular.table.Table`).
        """
        return (
            estimator.cache_key(),
            table.fingerprint(),
            treated_mask_digest(treated),
            outcome,
            tuple(adjustment),
        )

    @staticmethod
    def rows_level_key(
        estimator,
        table,
        digest_parts: tuple,
        outcome: str,
        adjustments,
    ) -> CacheKey:
        """Content key of one (sub-population, lattice level) estimation.

        ``digest_parts`` is an opaque tuple the caller guarantees to
        *determine the request's treated stack*: Step 2 passes the
        packed-words digest of the level's candidate stack plus, for
        protected / non-protected sub-populations, the digest of the
        context's row-selection mask — together they pin the sliced stack's
        content exactly, without re-digesting each sub-population's rows.
        Level entries are keyed by the whole stack rather than per
        candidate: a stored value is the result of one specific GEMM batch,
        and only an identical batch is guaranteed to reproduce it
        bit-for-bit.  Lattice levels are fully determined by the traversal,
        so identical runs — warm reruns, sibling problem variants, any
        executor or worker count — hit the same keys.  The per-candidate
        adjustment tuples determine the FWL grouping, so they are part of
        the content.
        """
        return (
            "level-rows",
            estimator.cache_key(),
            table.fingerprint(),
            digest_parts,
            outcome,
            tuple(tuple(adj) for adj in adjustments),
        )

    # -- store -----------------------------------------------------------------

    def get(self, key: CacheKey):
        """Return the cached result for ``key`` or ``None`` (counts stats)."""
        with self._lock:
            result = self._store.get(key)
            if result is None:
                self._misses += 1
            else:
                self._store.move_to_end(key)
                self._hits += 1
        return result

    def put(self, key: CacheKey, result) -> None:
        """Store ``result`` under ``key``, evicting LRU entries past the bound."""
        with self._lock:
            self._store[key] = result
            self._store.move_to_end(key)
            if self._new is not None:
                self._new[key] = result
            while len(self._store) > self.max_entries:
                self._store.popitem(last=False)
                self._evictions += 1

    def get_or_estimate(
        self,
        estimator,
        table,
        treated: np.ndarray,
        outcome: str,
        adjustment: tuple[str, ...] = (),
    ):
        """Memoised ``estimator.estimate(table, treated, outcome, adjustment)``."""
        key = self.key_for(estimator, table, treated, outcome, adjustment)
        result = self.get(key)
        if result is None:
            result = estimator.estimate(table, treated, outcome, adjustment)
            self.put(key, result)
        return result

    # -- cross-process sharing -------------------------------------------------
    #
    # Process-pool workers cannot share one in-memory cache, so the mining
    # fan-out (repro.parallel.mining) moves content instead: each worker is
    # *seeded* with a snapshot of the caller's cache, *records* the entries
    # it computes, and ships them back with its chunk results, where they
    # are merged into the caller's cache.  Content-addressed keys make all
    # of this transparent — a merged entry is exactly what the caller would
    # have computed itself.

    def snapshot(self) -> dict:
        """A picklable copy of the current entries (for seeding workers)."""
        with self._lock:
            return dict(self._store)

    def seed(self, entries: dict) -> None:
        """Bulk-insert entries without touching hit/miss counters or the
        new-entry record; LRU bound still applies (evictions are counted)."""
        with self._lock:
            for key, result in entries.items():
                self._store[key] = result
                self._store.move_to_end(key)
            while len(self._store) > self.max_entries:
                self._store.popitem(last=False)
                self._evictions += 1

    def record_new_entries(self) -> None:
        """Start recording keys added by :meth:`put` (worker-side)."""
        with self._lock:
            self._new = {}

    def drain_new_entries(self) -> dict:
        """Return and forget the entries added since the last drain.

        A no-op (empty dict) when recording was never enabled — draining
        must not switch a shared caller-side cache into recording mode.
        """
        with self._lock:
            if self._new is None:
                return {}
            drained = self._new
            self._new = {}
            return drained

    # -- introspection ---------------------------------------------------------

    def stats(self) -> CacheStats:
        """Current hit/miss/entry/eviction counters of the store."""
        with self._lock:
            return CacheStats(
                self._hits, self._misses, len(self._store), self._evictions
            )

    def emit_counters(
        self, registry, baseline: CacheStats | None = None
    ) -> CacheStats:
        """Fold lookup/eviction totals since ``baseline`` into ``registry``.

        Telemetry deliberately does *not* hook the per-lookup path — at
        mining rates that costs more than the 1% overhead budget allows —
        it reads the integer counters this cache keeps anyway and emits the
        delta, as the ``tier=estimation`` series, once per run (caller
        side) or once per chunk (process-worker side, see
        :mod:`repro.parallel.mining`).  Returns the stats used as the new
        baseline.
        """
        current = self.stats()
        hits = current.hits - (baseline.hits if baseline else 0)
        misses = current.misses - (baseline.misses if baseline else 0)
        evictions = current.evictions - (baseline.evictions if baseline else 0)
        if hits:
            registry.inc("cache.lookups", hits, tier="estimation", outcome="hit")
        if misses:
            registry.inc("cache.lookups", misses, tier="estimation", outcome="miss")
        if evictions:
            registry.inc("cache.evictions", evictions, tier="estimation")
        return current

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._store.clear()
            self._hits = 0
            self._misses = 0
            self._evictions = 0
            if self._new is not None:
                self._new = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"EstimationCache(entries={stats.entries}/{self.max_entries}, "
            f"hits={stats.hits}, misses={stats.misses})"
        )
