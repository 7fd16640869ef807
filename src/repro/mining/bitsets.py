"""Packed bitset masks: the Step-2 item-mask kernel.

Step 2 of FairCap composes thousands of candidate treated masks per run, and
every one of them is a conjunction of a handful of *atomic predicates* —
exactly the structure frequent-pattern miners exploit with per-item bitsets
(cf. the candidate-lattice reuse in reliable-causal-rule discovery).  This
module packs boolean row masks into ``uint64`` words so that

- each atomic predicate is evaluated against a table **once** and cached on
  the (immutable) table instance, like its fingerprint and moment matrix;
- a level-k candidate's mask is the bitwise AND of its items' words — 64
  rows per instruction instead of re-evaluating every predicate per
  candidate;
- support counts come from a popcount over the words, which is what lets
  the mining layer prune candidates below minimum support *before* any
  estimation work (see
  :meth:`repro.rules.utility.GroupEvaluationContext.begin_level`).

Exactness contract
------------------
Packing is a pure re-encoding: ``unpack_mask(pack_mask(m), len(m))`` is
bit-identical to ``m``, AND in the packed domain equals AND in the boolean
domain, and ``popcount`` equals ``mask.sum()`` exactly (differentially
tested in ``tests/mining/test_bitsets.py``).  The padding bits of the last
word are always zero — ``np.packbits`` pads with zeros and AND can never
set a bit — so popcounts need no trailing-word masking.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "pack_mask",
    "unpack_mask",
    "unpack_rows",
    "popcount",
    "popcount_rows",
    "predicate_bitset",
    "pattern_bitset",
    "PackedMaskBuilder",
    "concat_packed",
]

if hasattr(np, "bitwise_count"):  # numpy >= 2.0
    _popcount_words = np.bitwise_count
else:  # pragma: no cover - exercised only on numpy 1.x
    _POPCOUNT_U8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

    def _popcount_words(words: np.ndarray) -> np.ndarray:
        return _POPCOUNT_U8[words.view(np.uint8)].reshape(*words.shape, 8).sum(
            axis=-1, dtype=np.uint64
        )


def pack_mask(mask: np.ndarray) -> np.ndarray:
    """Pack a boolean row mask into a ``(ceil(n/64),)`` ``uint64`` array.

    The bit order is ``np.packbits``'s big-endian-per-byte convention; all
    padding bits beyond row ``n`` are zero.  Callers never need to know the
    bit order — every consumer goes through :func:`unpack_mask`,
    :func:`popcount`, or bitwise operators, all of which are
    order-consistent by construction.
    """
    packed = np.packbits(np.asarray(mask, dtype=bool))
    pad = (-packed.size) % 8
    if pad:
        packed = np.concatenate([packed, np.zeros(pad, dtype=np.uint8)])
    return packed.view(np.uint64)


def unpack_mask(words: np.ndarray, n_rows: int) -> np.ndarray:
    """Invert :func:`pack_mask`: words back to an ``(n_rows,)`` boolean mask."""
    return np.unpackbits(words.view(np.uint8), count=n_rows).view(np.bool_)


def unpack_rows(word_matrix: np.ndarray, n_rows: int) -> np.ndarray:
    """Unpack an ``(m, words)`` stack into an ``(m, n_rows)`` boolean matrix.

    Row ``j`` of the result is ``unpack_mask(word_matrix[j], n_rows)`` —
    the row-major ("transposed") treated-mask layout the fused level kernel
    (:func:`repro.causal.batch.estimate_level_rows`) consumes directly.
    """
    m = word_matrix.shape[0]
    if m == 0:
        return np.empty((0, n_rows), dtype=bool)
    flat = np.unpackbits(
        np.ascontiguousarray(word_matrix).view(np.uint8), axis=1, count=n_rows
    )
    return flat.view(np.bool_)


def popcount(words: np.ndarray) -> int:
    """Number of set bits — ``unpack_mask(words, n).sum()`` without unpacking."""
    return int(_popcount_words(words).sum())


def popcount_rows(word_matrix: np.ndarray) -> np.ndarray:
    """Per-row popcounts of an ``(m, words)`` stack as an ``int64`` array."""
    if word_matrix.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    return _popcount_words(word_matrix).sum(axis=1, dtype=np.int64)


class PackedMaskBuilder:
    """Incremental :func:`pack_mask` over row segments of arbitrary length.

    The sharded data layer evaluates predicates one shard at a time and
    needs the *whole-table* packed words back — bit-identical to
    ``pack_mask`` of the concatenated boolean mask.  Appending a segment
    ORs its packed bytes into the output at the current bit offset; when a
    shard boundary is not byte-aligned the segment's byte stream is split
    across two byte lanes (``seg >> r`` into the current byte, the spilled
    low bits ``(seg << (8-r)) & 0xFF`` into the next), which is exact: bits
    are moved, never recomputed.  64-aligned shard boundaries reduce to a
    plain byte copy.

    Exactness contract: for any partition of ``mask`` into segments,
    ``builder.words() == pack_mask(mask)`` bit-for-bit (property-tested in
    ``tests/datasets/test_sharding.py`` with rng-fuzzed boundaries,
    including 1-row segments).
    """

    def __init__(self, n_rows: int) -> None:
        self.n_rows = int(n_rows)
        n_words = (self.n_rows + 63) // 64
        self._bytes = np.zeros(max(n_words, 0) * 8, dtype=np.uint8)
        self._bit = 0

    def append(self, mask: np.ndarray) -> None:
        """Append one boolean row segment at the current bit offset."""
        mask = np.asarray(mask, dtype=bool)
        if self._bit + mask.size > self.n_rows:
            raise ValueError(
                f"segments exceed declared n_rows={self.n_rows} "
                f"(at bit {self._bit}, appending {mask.size})"
            )
        if mask.size == 0:
            return
        seg = np.packbits(mask)
        byte, rem = divmod(self._bit, 8)
        if rem == 0:
            self._bytes[byte : byte + seg.size] |= seg
        else:
            self._bytes[byte : byte + seg.size] |= seg >> rem
            # Low bits of each segment byte spill into the next output
            # byte.  Spill beyond the buffer can only carry packbits
            # padding zeros (every real row bit lands inside the buffer),
            # so clamping to the remaining lane is lossless.
            lane = self._bytes[byte + 1 : byte + 1 + seg.size]
            lane |= np.left_shift(seg, 8 - rem)[: lane.size]
        self._bit += mask.size

    def words(self) -> np.ndarray:
        """The packed ``uint64`` words; every declared row must be appended."""
        if self._bit != self.n_rows:
            raise ValueError(
                f"only {self._bit} of {self.n_rows} rows appended"
            )
        return self._bytes.view(np.uint64)


def concat_packed(segments, n_rows: int) -> np.ndarray:
    """Concatenate per-segment packed words into whole-range packed words.

    ``segments`` is a sequence of ``(words, segment_rows)`` pairs in row
    order.  When every boundary except the last is 64-aligned this is a
    plain word concatenation; otherwise each segment is unpacked and
    re-packed through :class:`PackedMaskBuilder` (bit moves only — exact
    either way, and exactly ``pack_mask`` of the concatenated mask).
    """
    segments = list(segments)
    total = sum(rows for _, rows in segments)
    if total != n_rows:
        raise ValueError(f"segments cover {total} rows, expected {n_rows}")
    if all(rows % 64 == 0 for _, rows in segments[:-1]):
        if not segments:
            return np.zeros(0, dtype=np.uint64)
        return np.concatenate(
            [np.asarray(words, dtype=np.uint64) for words, _ in segments]
        )
    builder = PackedMaskBuilder(n_rows)
    for words, rows in segments:
        builder.append(unpack_mask(np.asarray(words, dtype=np.uint64), rows))
    return builder.words()


def predicate_bitset(table, predicate) -> np.ndarray:
    """Packed mask of one atomic predicate over ``table``, memoised per table.

    The predicate is evaluated (vectorised) exactly once per table instance;
    every candidate pattern containing it afterwards pays one AND over
    ``n/64`` words.  The cache rides on the immutable table's ``__dict__``
    exactly like :meth:`repro.tabular.table.Table.fingerprint` and the
    per-table moment matrix of :mod:`repro.causal.batch` do.
    """
    cache = table.__dict__.setdefault("_predicate_bitset_cache", {})
    words = cache.get(predicate)
    if words is None:
        words = pack_mask(predicate.mask(table))
        cache[predicate] = words
    return words


def pattern_bitset(table, pattern) -> np.ndarray:
    """Packed coverage mask of a conjunctive pattern: AND of its items' words.

    Bit-identical to ``pack_mask(pattern.mask(table))`` (the per-candidate
    re-evaluation it replaces); the empty pattern covers every row, matching
    :meth:`repro.mining.patterns.Pattern.mask`.
    """
    predicates = pattern.predicates
    if not predicates:
        return pack_mask(np.ones(table.n_rows, dtype=bool))
    words = predicate_bitset(table, predicates[0])
    for predicate in predicates[1:]:
        words = words & predicate_bitset(table, predicate)
    return words
