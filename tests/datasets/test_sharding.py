"""Property suite for the columnar shard store (:mod:`repro.datasets.sharded`).

The out-of-core contract under test: a :class:`ShardedTable` is a pure
re-layout of its source :class:`~repro.tabular.table.Table`.  For *any*
shard boundary placement — rng-fuzzed sizes, 1-row shards, shards missing
a category entirely — every quantity the engine reads through the handle
must equal the whole-table value:

- packed bitset words merge exactly (``predicate_words`` ≡ ``pack_mask``
  of the in-RAM mask, bit for bit);
- the intercept and one-hot entries of the estimation engine's moment
  matrix ``M`` (Grams and column sums) merge exactly (integer cross
  products, so float64 accumulation is lossless);
- continuous sufficient statistics are shard-order-deterministic and agree
  with the whole-table value to float rounding;
- ``filter`` gathers the identical sub-table (content *and* fingerprint),
  which is what makes downstream estimation bit-identical;
- the store round-trips values, categories, counts, and the table
  fingerprint, independent of how appends were chunked.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from tests.conftest import build_toy_table
from repro.causal import batch
from repro.datasets.sharded import (
    ShardedTable,
    ShardedTableWriter,
    sharded_from_chunks,
)
from repro.mining.bitsets import (
    PackedMaskBuilder,
    concat_packed,
    pack_mask,
    popcount,
)
from repro.mining.patterns import Operator, Pattern, Predicate
from repro.tabular.schema import (
    AttributeKind,
    AttributeRole,
    AttributeSpec,
    Schema,
)
from repro.tabular.table import Table


def build_rare_table(n: int = 37) -> Table:
    """A table whose ``Level`` column has a category confined to early rows.

    ``rare`` only occurs in the first three rows, so any shard cut past row
    3 yields shards where the category is entirely absent — the boundary
    case the global-dictionary encoding and the zero-column Gram handling
    must survive.
    """
    level = np.array(
        ["rare"] * 3 + ["mid", "high"] * ((n - 3) // 2 + 1), dtype=object
    )[:n]
    group = np.array(["a", "b", "c"] * (n // 3 + 1), dtype=object)[:n]
    treat = np.array(["Yes", "No"] * (n // 2 + 1), dtype=object)[:n]
    outcome = np.linspace(-3.0, 11.0, n) + (level == "rare") * 5.0
    schema = Schema(
        [
            AttributeSpec("Level", AttributeKind.CATEGORICAL, AttributeRole.IMMUTABLE),
            AttributeSpec("Group", AttributeKind.CATEGORICAL, AttributeRole.IMMUTABLE),
            AttributeSpec("Treat", AttributeKind.CATEGORICAL, AttributeRole.MUTABLE),
            AttributeSpec("Outcome", AttributeKind.CONTINUOUS, AttributeRole.OUTCOME),
        ]
    )
    return Table(
        {"Level": level, "Group": group, "Treat": treat, "Outcome": outcome},
        schema=schema,
    )


def fuzzed_shard_sizes(rng: np.random.Generator, n: int, draws: int = 6) -> list[int]:
    """Shard sizes covering 1-row shards, ragged tails, and a single shard."""
    sizes = {1, n, n + 7}
    sizes.update(int(s) for s in rng.integers(2, n, size=draws))
    return sorted(sizes)


def open_store(table: Table, directory, shard_rows: int) -> ShardedTable:
    return ShardedTable.write(table, str(directory), shard_rows)


# -- round-trip --------------------------------------------------------------------


@pytest.mark.parametrize("shard_rows", [1, 7, 37, 50])
def test_roundtrip_values_counts_fingerprint(tmp_path, shard_rows):
    table = build_rare_table()
    store = open_store(table, tmp_path / f"s{shard_rows}", shard_rows)
    assert store.is_sharded
    assert store.n_rows == table.n_rows
    assert sum(store.shard_lengths) == table.n_rows
    assert all(length >= 1 for length in store.shard_lengths)
    assert store.column_names == tuple(table.column_names)
    for name in table.column_names:
        np.testing.assert_array_equal(store.values(name), table.values(name))
        assert store.value_counts(name) == table.value_counts(name)
        assert store.unique(name) == table.unique(name)
    assert store.fingerprint() == table.fingerprint()


def test_global_categories_cover_shards_missing_one(tmp_path):
    table = build_rare_table()
    store = open_store(table, tmp_path / "rare", 10)
    assert store.categories("Level") == table.column("Level").categories
    # Shards past the cut have no "rare" row, yet decode with the global
    # dictionary — reassembling them must reproduce the column exactly.
    tail = store.shard(store.n_shards - 1)
    assert "rare" not in tail.column("Level").decode()
    assert tail.column("Level").categories == store.categories("Level")


def test_pickle_reopens_same_store(tmp_path):
    table = build_rare_table()
    store = open_store(table, tmp_path / "pkl", 8)
    clone = pickle.loads(pickle.dumps(store))
    assert clone.directory == store.directory
    assert clone.fingerprint() == store.fingerprint()
    assert clone.shard_lengths == store.shard_lengths


def test_write_reuse_skips_rewrite_on_matching_store(tmp_path):
    table = build_rare_table()
    directory = tmp_path / "reuse"
    first = ShardedTable.write(table, str(directory), 8)
    manifest = directory / "manifest.json"
    stamp = manifest.stat().st_mtime_ns
    again = ShardedTable.write(table, str(directory), 8, reuse=True)
    assert manifest.stat().st_mtime_ns == stamp  # untouched
    assert again.fingerprint() == first.fingerprint()
    recut = ShardedTable.write(table, str(directory), 5, reuse=True)
    assert recut.shard_lengths != first.shard_lengths  # shard size changed


def test_writer_chunking_does_not_change_the_store(rng, tmp_path):
    """Appending in arbitrary chunk sizes re-cuts to identical shards."""
    table = build_rare_table()
    reference = open_store(table, tmp_path / "whole", 8)
    writer = ShardedTableWriter(str(tmp_path / "pieces"), table.schema, 8)
    start = 0
    while start < table.n_rows:
        stop = min(table.n_rows, start + int(rng.integers(1, 9)))
        writer.append_table(table.filter(np.arange(table.n_rows) >= start)
                            .filter(np.arange(table.n_rows - start) < stop - start))
        start = stop
    pieces = writer.close(fingerprint=table.fingerprint())
    assert pieces.shard_lengths == reference.shard_lengths
    assert pieces.fingerprint() == reference.fingerprint()
    for got, want in zip(pieces.iter_shards(), reference.iter_shards()):
        for name in table.column_names:
            np.testing.assert_array_equal(got.values(name), want.values(name))


def test_sharded_from_chunks_streams_without_the_whole_table(tmp_path):
    table = build_rare_table()
    chunks = (table.filter(np.arange(table.n_rows) < 20),
              table.filter(np.arange(table.n_rows) >= 20))
    store = sharded_from_chunks(str(tmp_path / "chunks"), table.schema, chunks, 6)
    np.testing.assert_array_equal(store.values("Level"), table.values("Level"))
    assert store.fingerprint() == table.fingerprint()


# -- bitset words ------------------------------------------------------------------


def test_fuzzed_boundaries_merge_bitset_words_exactly(rng, tmp_path):
    table = build_rare_table()
    predicates = [
        Predicate(name, Operator.EQ, value)
        for name in ("Level", "Group", "Treat")
        for value in table.unique(name)
    ]
    patterns = [
        Pattern.of(Level="rare", Group="a"),
        Pattern.of(Group="b", Treat="No"),
        Pattern.of(),
    ]
    for shard_rows in fuzzed_shard_sizes(rng, table.n_rows):
        store = open_store(table, tmp_path / f"w{shard_rows}", shard_rows)
        store.ensure_predicate_words(predicates)
        for predicate in predicates:
            want_mask = predicate.mask(table)
            words = store.predicate_words(predicate)
            np.testing.assert_array_equal(words, pack_mask(want_mask))
            assert popcount(words) == int(want_mask.sum())
            np.testing.assert_array_equal(store.predicate_mask(predicate), want_mask)
        for pattern in patterns:
            want_mask = pattern.mask(table)
            np.testing.assert_array_equal(
                store.pattern_words(pattern), pack_mask(want_mask)
            )
            np.testing.assert_array_equal(store.pattern_mask(pattern), want_mask)


def test_packed_mask_builder_matches_pack_mask(rng):
    """Incremental packing at arbitrary bit offsets ≡ one-shot packbits."""
    for _ in range(25):
        n = int(rng.integers(1, 500))
        mask = rng.random(n) < 0.4
        builder = PackedMaskBuilder(n)
        start = 0
        while start < n:
            stop = min(n, start + int(rng.integers(1, 80)))
            builder.append(mask[start:stop])
            start = stop
        np.testing.assert_array_equal(builder.words(), pack_mask(mask))


@pytest.mark.parametrize("lengths", [(64, 128, 192), (64, 100), (5, 7, 30)])
def test_concat_packed_matches_pack_mask(rng, lengths):
    segments = [rng.random(length) < 0.5 for length in lengths]
    whole = np.concatenate(segments)
    packed = concat_packed(
        [(pack_mask(segment), segment.size) for segment in segments],
        whole.size,
    )
    np.testing.assert_array_equal(packed, pack_mask(whole))


# -- merged sufficient statistics --------------------------------------------------


def moment_matrix(table) -> np.ndarray:
    """The moment matrix ``M = AᵀA`` of ``table`` for the ``Outcome`` column."""
    return batch._table_moments(table, "Outcome").moments


def test_fuzzed_boundaries_merge_grams_and_sums_exactly(rng, tmp_path):
    """Intercept and one-hot entries of ``M`` (the Grams and column sums)
    are integer counts: the shard merge is exact."""
    table = build_rare_table()
    want = moment_matrix(table)
    # Every non-outcome column is categorical: all but the outcome's row
    # and column of M are counts.
    counts = slice(0, want.shape[0] - 1)
    for shard_rows in fuzzed_shard_sizes(rng, table.n_rows, draws=4):
        store = open_store(table, tmp_path / f"g{shard_rows}", shard_rows)
        got = moment_matrix(store)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got[counts, counts], want[counts, counts])


def test_continuous_stats_are_shard_order_deterministic(tmp_path):
    """Continuous and outcome entries of ``M`` merge in fixed shard order:
    reopening reproduces the bits, and the values agree with the
    whole-table reduction to rounding."""
    base = build_rare_table()
    table = base.with_column("Score", np.linspace(0.5, 2.0, base.n_rows) ** 2)
    first = open_store(table, tmp_path / "y", 5)
    again = ShardedTable.open(str(tmp_path / "y"))
    score = batch._table_moments(table, "Outcome").spans["Score"][0]
    floats = [score, -1]  # the Score row and the outcome row
    merged = moment_matrix(first)[floats]
    np.testing.assert_array_equal(merged, moment_matrix(again)[floats])
    np.testing.assert_allclose(merged, moment_matrix(table)[floats], rtol=1e-12)


def test_factorization_on_sharded_root_matches_in_ram(tmp_path):
    """``build_rows_factorization`` off merged stats matches the in-RAM build.

    The one-hot Gram (and so its inverse) is exact; the outcome-side
    products are shard-order float sums, so the residual agrees at the
    engine's 1e-9 relative-tolerance contract rather than bit-for-bit.
    """
    table = build_toy_table(n=90, seed=11)
    store = open_store(table, tmp_path / "fact", 13)
    for adjustment in ((), ("City",), ("City", "Training")):
        want = batch.build_rows_factorization(table, "Income", adjustment)
        got = batch.build_rows_factorization(store, "Income", adjustment)
        assert got.n == want.n and got.rank == want.rank
        np.testing.assert_array_equal(got.gram_inv, want.gram_inv)
        np.testing.assert_allclose(got.y_res, want.y_res, rtol=1e-9, atol=1e-9)


# -- filter gather -----------------------------------------------------------------


def test_filter_gathers_the_identical_subtable(rng, tmp_path):
    table = build_rare_table()
    store = open_store(table, tmp_path / "filter", 6)
    masks = [
        rng.random(table.n_rows) < p for p in (0.0, 0.15, 0.5, 1.0)
    ]
    masks.append(table.values("Level") == "rare")  # empties most shards
    for mask in masks:
        want = table.filter(mask)
        got = store.filter(mask)
        assert isinstance(got, Table) and got.n_rows == want.n_rows
        for name in table.column_names:
            np.testing.assert_array_equal(got.values(name), want.values(name))
        if want.n_rows:
            assert got.fingerprint() == want.fingerprint()


def test_filter_rejects_bad_masks(tmp_path):
    store = open_store(build_rare_table(), tmp_path / "bad", 9)
    with pytest.raises(Exception):
        store.filter(np.ones(store.n_rows + 1, dtype=bool))
