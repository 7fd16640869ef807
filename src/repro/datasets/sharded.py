"""Out-of-core tables: fixed shard boundaries over columnar chunk files.

:class:`ShardedTable` is the engine-facing handle of the sharded data layer
(:mod:`repro.datasets.shardstore` owns the on-disk format).  It duck-types
the slice of the :class:`~repro.tabular.table.Table` API the *root-table*
code paths touch — ``n_rows`` / ``schema`` / ``column_names`` /
``fingerprint`` / ``mask_cache`` / ``filter`` / ``column`` — while keeping
peak memory bounded by **O(shard + sufficient statistics)**: at most a
couple of shard-sized chunks are resident at a time, plus packed bitset
words (``n/8`` bytes per cached predicate).  A direct
:func:`~repro.causal.batch.build_rows_factorization` call on the handle
also holds the merged moment matrix and a whole-table ``(K+2) × n``
design buffer; no mining path makes that call, because context sub-tables
are in-RAM gathers (:meth:`ShardedTable.filter`).

Bit-identity contract
---------------------
Sharded mining must be bit-for-bit the in-RAM engine (differential suite:
``tests/mining/test_shard_differential.py``).  Two mechanisms carry that:

- **Exact integer merges.**  Packed predicate words are built per shard
  and concatenated (:class:`~repro.mining.bitsets.PackedMaskBuilder` — bit
  moves, never arithmetic), so pattern masks, popcount supports, and
  one-hot cross products merge exactly; Apriori over packed words counts
  the same supports the boolean reference sums.
- **Arithmetic-free row gather.**  :meth:`filter` materialises a grouping
  context's sub-table by gathering rows shard by shard and concatenating
  the pieces — ``concat(codes_s[mask_s]) == codes[mask]`` element for
  element, and the category dictionaries are the global ones — so the
  sub-table is *content-identical* to what ``Table.filter`` yields, and
  every downstream estimation path (Gram factorization, scalar fallback,
  caches, checkpoints) runs the same code on the same bytes.

The one float statistic merged across shards is the estimation engine's
moment matrix ``M = AᵀA`` (:mod:`repro.causal.batch`), summed over the
shards' own ``M`` in fixed shard order: its intercept and one-hot entries
are integer counts and merge exactly; its continuous and outcome entries
are deterministic for a given shard layout, whichever executor computes
them.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.datasets import shardstore
from repro.mining.bitsets import PackedMaskBuilder, pack_mask, unpack_mask
from repro.tabular.column import CategoricalColumn, NumericColumn
from repro.tabular.schema import AttributeKind, AttributeSpec, Schema
from repro.tabular.table import Table, _canonical_category, _MaskCache
from repro.utils.errors import SchemaError

#: Shard Tables kept hot per ShardedTable.  The mining loops sweep the
#: shards in order once per context gather, so the window must cover a few
#: full sweeps of a small store to capture cross-gather reuse (a 2-entry
#: cache thrashes 100% on any store wider than 2 shards); 8 keeps resident
#: data O(8 × shard_rows) — a few MB at the 4096-row default — which the
#: memory-cap regression test still separates cleanly at 1M rows.
SHARD_CACHE_TABLES = 8

#: Bound on cached packed predicate words (n/8 bytes each).
PREDICATE_WORDS_MAX = 4096


class ShardedTable:
    """A row-partitioned table backed by on-disk columnar shards.

    Instances are handles: opening reads only the manifest, and shard
    files are loaded lazily (and evicted LRU) as the engine touches them.
    Pickling ships the directory path — process-pool workers reopen the
    manifest instead of receiving row data
    (:mod:`repro.parallel.mining`).
    """

    #: Dispatch marker for :meth:`Predicate.mask` / :meth:`Pattern.mask`
    #: and the sharded branches of apriori / batch.
    is_sharded = True

    def __init__(self, directory: str, manifest: dict) -> None:
        self.directory = str(directory)
        self.format = manifest["format"]
        self._shard_files: list[str] = list(manifest["shards"])
        self._lengths: tuple[int, ...] = tuple(
            int(length) for length in manifest["shard_lengths"]
        )
        self._offsets = np.concatenate(
            [[0], np.cumsum(self._lengths, dtype=np.int64)]
        )
        self._n_rows = int(manifest["n_rows"])
        self.shard_rows = int(manifest["shard_rows"])
        self._categories: dict[str, tuple] = {
            name: tuple(values)
            for name, values in manifest.get("categories", {}).items()
        }
        self.schema = Schema(
            AttributeSpec(name, kind, role)
            for name, kind, role in manifest["schema"]
        )
        self._stored_fingerprint: str | None = manifest.get("fingerprint")
        self._shard_cache: OrderedDict[int, Table] = OrderedDict()
        self._predicate_words: OrderedDict[object, np.ndarray] = OrderedDict()

    # -- construction ----------------------------------------------------------

    @classmethod
    def open(cls, directory: str) -> "ShardedTable":
        """Open an existing shard directory (reads only the manifest)."""
        return cls(directory, shardstore.read_manifest(directory))

    @classmethod
    def write(
        cls,
        table: Table,
        directory: str,
        shard_rows: int,
        fmt: str | None = None,
        reuse: bool = False,
    ) -> "ShardedTable":
        """Spill an in-RAM table into ``directory`` and open the result.

        With ``reuse`` set, an existing directory whose manifest matches
        this table's fingerprint and ``shard_rows`` is opened as-is — the
        cross-run warm path for ``FairCapConfig.shard_dir``.
        """
        if reuse and os.path.isfile(os.path.join(directory, shardstore.MANIFEST_NAME)):
            try:
                existing = cls.open(directory)
            except SchemaError:
                existing = None
            if (
                existing is not None
                and existing.shard_rows == int(shard_rows)
                and existing._stored_fingerprint == table.fingerprint()
            ):
                return existing
        writer = ShardedTableWriter(directory, table.schema, shard_rows, fmt=fmt)
        writer.append_table(table)
        return writer.close(fingerprint=table.fingerprint())

    def __reduce__(self):
        return (ShardedTable.open, (self.directory,))

    # -- basic properties ------------------------------------------------------

    @property
    def n_rows(self) -> int:
        """Number of rows across all shards."""
        return self._n_rows

    def __len__(self) -> int:
        return self._n_rows

    @property
    def column_names(self) -> tuple[str, ...]:
        """Column names in schema order."""
        return self.schema.names

    @property
    def n_shards(self) -> int:
        """Number of shards."""
        return len(self._shard_files)

    @property
    def shard_lengths(self) -> tuple[int, ...]:
        """Row count of each shard, in row order."""
        return self._lengths

    @property
    def shard_offsets(self) -> np.ndarray:
        """Row offsets: shard ``i`` covers ``[offsets[i], offsets[i+1])``."""
        return self._offsets

    def categories(self, name: str) -> tuple:
        """Global category dictionary of a categorical column."""
        spec = self.schema.spec(name)
        if spec.kind is not AttributeKind.CATEGORICAL:
            raise SchemaError(f"column {name!r} is not categorical")
        return self._categories[name]

    # -- shard access ----------------------------------------------------------

    def shard(self, index: int) -> Table:
        """Shard ``index`` as an in-RAM :class:`Table` (LRU-cached).

        Shard tables carry the *global* category dictionaries and the full
        schema, so per-shard predicate evaluation and design-block
        encoding agree column-for-column with the whole table's.
        """
        cached = self._shard_cache.get(index)
        if cached is not None:
            self._shard_cache.move_to_end(index)
            return cached
        raw = shardstore.read_shard(
            self.directory, self._shard_files[index], self.format
        )
        columns: dict[str, object] = {}
        for spec in self.schema:
            key = shardstore.member_key(
                spec.name, spec.kind is AttributeKind.CATEGORICAL
            )
            array = raw[key]
            if spec.kind is AttributeKind.CATEGORICAL:
                columns[spec.name] = CategoricalColumn(
                    array, self._categories[spec.name]
                )
            else:
                columns[spec.name] = NumericColumn(array)
        table = Table(columns, schema=self.schema)
        self._shard_cache[index] = table
        while len(self._shard_cache) > SHARD_CACHE_TABLES:
            self._shard_cache.popitem(last=False)
        return table

    def iter_shards(self) -> Iterator[Table]:
        """Iterate the shards in row order."""
        for index in range(self.n_shards):
            yield self.shard(index)

    # -- whole-column access ---------------------------------------------------

    def column(self, name: str):
        """Materialise one full column (concatenated across shards).

        Used by item construction (value ranking, numeric quantiles) — one
        column at a time, O(n) for that column only, never the full table.
        """
        spec = self.schema.spec(name)
        categorical = spec.kind is AttributeKind.CATEGORICAL
        key = shardstore.member_key(name, categorical)
        parts = []
        for index, filename in enumerate(self._shard_files):
            # Serve from an LRU-resident shard when one is hot (common:
            # item construction runs after the predicate-packing sweep has
            # warmed small stores) — a lazy member read costs a zip open +
            # header parse per shard otherwise.  A miss deliberately does
            # NOT populate the cache: one column stream must stay O(that
            # column), not pull the whole table through the LRU.
            cached = self._shard_cache.get(index)
            if cached is not None:
                hot = cached.column(name)
                parts.append(
                    hot.codes if categorical else hot.array
                )
                continue
            parts.append(
                shardstore.read_shard_member(
                    self.directory, filename, self.format, key
                )
            )
        data = (
            np.concatenate(parts)
            if parts
            else np.zeros(0, dtype=np.int32 if categorical else np.float64)
        )
        if categorical:
            return CategoricalColumn(data, self._categories[name])
        return NumericColumn(data)

    def values(self, name: str) -> np.ndarray:
        """Decoded values of column ``name`` (materialises that column)."""
        return self.column(name).decode()

    def value_counts(self, name: str) -> dict:
        """Merged per-shard value counts (exact integer sums)."""
        spec = self.schema.spec(name)
        if spec.kind is AttributeKind.CATEGORICAL:
            cats = self._categories[name]
            counts = np.zeros(len(cats), dtype=np.int64)
            key = shardstore.member_key(name, True)
            for filename in self._shard_files:
                codes = shardstore.read_shard_member(
                    self.directory, filename, self.format, key
                )
                counts += np.bincount(codes, minlength=len(cats))
            return {
                value: int(counts[i])
                for i, value in enumerate(cats)
                if counts[i] > 0
            }
        merged: dict[float, int] = {}
        key = shardstore.member_key(name, False)
        for filename in self._shard_files:
            array = shardstore.read_shard_member(
                self.directory, filename, self.format, key
            )
            values, counts = np.unique(array, return_counts=True)
            for value, count in zip(values, counts):
                value = float(value)
                merged[value] = merged.get(value, 0) + int(count)
        return dict(sorted(merged.items()))

    def unique(self, name: str) -> tuple:
        """Distinct values occurring in column ``name``."""
        return tuple(self.value_counts(name))

    # -- identity --------------------------------------------------------------

    def fingerprint(self) -> str:
        """Content hash, streamed column-major across shards.

        Byte-for-byte the same blake2b stream
        :meth:`repro.tabular.table.Table.fingerprint` hashes — concatenated
        per-shard code/value bytes equal the whole column's bytes — so a
        sharded table and its materialisation share cache keys and
        checkpoint run keys.  Computed once (write-time spills
        store it in the manifest; chunked writers hash on first demand).
        """
        fp = self._stored_fingerprint
        if fp is None:
            import hashlib

            h = hashlib.blake2b(digest_size=20)
            h.update(str(self._n_rows).encode())
            for spec in self.schema:
                h.update(spec.name.encode())
                categorical = spec.kind is AttributeKind.CATEGORICAL
                key = shardstore.member_key(spec.name, categorical)
                if categorical:
                    h.update(b"cat")
                    for category in self._categories[spec.name]:
                        h.update(_canonical_category(category).encode())
                        h.update(b"\x1f")
                else:
                    h.update(b"num")
                for filename in self._shard_files:
                    chunk = shardstore.read_shard_member(
                        self.directory, filename, self.format, key
                    )
                    if categorical:
                        chunk = np.ascontiguousarray(chunk, dtype=np.int32)
                    else:
                        chunk = np.ascontiguousarray(chunk, dtype=np.float64)
                    h.update(chunk.tobytes())
            fp = h.hexdigest()
            self._stored_fingerprint = fp
        return fp

    def mask_cache(self, max_entries: int = 1024) -> _MaskCache:
        """Per-table memo of hashable key -> coverage mask (Table parity)."""
        cache = self.__dict__.get("_mask_cache")
        if cache is None:
            cache = _MaskCache(max_entries)
            self.__dict__["_mask_cache"] = cache
        return cache

    # -- row selection ---------------------------------------------------------

    def filter(self, mask: np.ndarray) -> Table:
        """Materialise the rows where ``mask`` is True as an in-RAM Table.

        Pure per-shard gather + concatenation: the result is
        content-identical (same codes, same category dictionaries, same
        fingerprint) to ``materialised_table.filter(mask)`` — the property
        the shard-differential suite pins.
        """
        mask = np.asarray(mask)
        if mask.dtype != bool or mask.shape != (self._n_rows,):
            raise SchemaError(
                f"mask must be a boolean array of length {self._n_rows}"
            )
        parts: dict[str, list[np.ndarray]] = {
            name: [] for name in self.column_names
        }
        for index in range(self.n_shards):
            segment = mask[self._offsets[index] : self._offsets[index + 1]]
            if not segment.any():
                continue
            shard = self.shard(index)
            for spec in self.schema:
                column = shard.column(spec.name)
                data = (
                    column.codes
                    if isinstance(column, CategoricalColumn)
                    else column.array
                )
                parts[spec.name].append(data[segment])
        columns: dict[str, object] = {}
        for spec in self.schema:
            categorical = spec.kind is AttributeKind.CATEGORICAL
            if parts[spec.name]:
                data = np.concatenate(parts[spec.name])
            else:
                data = np.zeros(0, dtype=np.int32 if categorical else np.float64)
            if categorical:
                columns[spec.name] = CategoricalColumn(
                    data, self._categories[spec.name]
                )
            else:
                columns[spec.name] = NumericColumn(data)
        return Table(columns, schema=self.schema)

    # -- packed predicate/pattern masks ----------------------------------------

    def ensure_predicate_words(self, predicates: Iterable) -> None:
        """Build packed words for every missing predicate in one shard pass.

        All missing predicates are evaluated per shard and packed through
        :class:`PackedMaskBuilder` before moving to the next shard, so the
        pass reads each shard exactly once regardless of predicate count.
        """
        missing = []
        seen = set()
        for predicate in predicates:
            if predicate in seen or predicate in self._predicate_words:
                continue
            seen.add(predicate)
            missing.append(predicate)
        if not missing:
            return
        builders = {p: PackedMaskBuilder(self._n_rows) for p in missing}
        for shard in self.iter_shards():
            for predicate in missing:
                builders[predicate].append(predicate.mask(shard))
        for predicate in missing:
            self._seed_predicate_words(predicate, builders[predicate].words())

    def _seed_predicate_words(self, predicate, words: np.ndarray) -> None:
        """Insert packed words for ``predicate`` (LRU-bounded)."""
        self._predicate_words[predicate] = words
        self._predicate_words.move_to_end(predicate)
        while len(self._predicate_words) > PREDICATE_WORDS_MAX:
            self._predicate_words.popitem(last=False)

    def predicate_words(self, predicate) -> np.ndarray:
        """Packed whole-table words of one predicate (cached)."""
        words = self._predicate_words.get(predicate)
        if words is None:
            self.ensure_predicate_words([predicate])
            words = self._predicate_words[predicate]
        else:
            self._predicate_words.move_to_end(predicate)
        return words

    def pattern_words(self, pattern) -> np.ndarray:
        """Packed coverage words of a conjunctive pattern (AND of items)."""
        predicates = pattern.predicates
        if not predicates:
            words = self._predicate_words.get(None)
            if words is None:
                words = pack_mask(np.ones(self._n_rows, dtype=bool))
                self._seed_predicate_words(None, words)
            return words
        self.ensure_predicate_words(predicates)
        words = self.predicate_words(predicates[0])
        for predicate in predicates[1:]:
            words = words & self.predicate_words(predicate)
        return words

    def predicate_mask(self, predicate) -> np.ndarray:
        """Boolean whole-table mask of one predicate (unpacked words)."""
        return unpack_mask(self.predicate_words(predicate), self._n_rows)

    def pattern_mask(self, pattern) -> np.ndarray:
        """Boolean coverage mask of a pattern — the ``Pattern.mask`` target."""
        return unpack_mask(self.pattern_words(pattern), self._n_rows)

    def __repr__(self) -> str:
        return (
            f"ShardedTable({self._n_rows} rows x {len(self.schema)} columns, "
            f"{self.n_shards} shards @ {self.shard_rows})"
        )


class ShardedTableWriter:
    """Append-only writer producing fixed-boundary shards.

    Chunks of any size are appended (``append_table``); rows are re-cut
    into exactly ``shard_rows``-sized shards (last shard ragged) so the
    on-disk layout — and therefore every merged statistic's accumulation
    order — depends only on ``shard_rows``, never on how the producer
    chunked its writes.

    Category dictionaries grow append-only: a chunk introducing a new
    category value extends the global dictionary at the end, so codes
    written by earlier shards stay valid verbatim.  Spilling an existing
    table therefore preserves its category order exactly (single append).
    """

    def __init__(
        self,
        directory: str,
        schema: Schema,
        shard_rows: int,
        fmt: str | None = None,
    ) -> None:
        if int(shard_rows) < 1:
            raise SchemaError(f"shard_rows must be >= 1, got {shard_rows}")
        self.directory = str(directory)
        self.schema = schema
        self.shard_rows = int(shard_rows)
        self.format = shardstore.validate_format(fmt)
        os.makedirs(self.directory, exist_ok=True)
        self._remove_stale_shards()
        self._categories: dict[str, list] = {}
        self._cat_index: dict[str, dict] = {}
        for spec in schema:
            if spec.kind is AttributeKind.CATEGORICAL:
                self._categories[spec.name] = []
                self._cat_index[spec.name] = {}
        self._pending: dict[str, list[np.ndarray]] = {
            spec.name: [] for spec in schema
        }
        self._pending_rows = 0
        self._shard_files: list[str] = []
        self._shard_lengths: list[int] = []
        self._closed = False

    def _remove_stale_shards(self) -> None:
        """Drop leftovers of a previous (possibly partial) write."""
        for entry in os.listdir(self.directory):
            if entry.startswith("shard-") or entry == shardstore.MANIFEST_NAME:
                os.unlink(os.path.join(self.directory, entry))

    def _global_codes(self, name: str, column: CategoricalColumn) -> np.ndarray:
        """Re-code a chunk column into the growing global dictionary."""
        index = self._cat_index[name]
        categories = self._categories[name]
        translation = np.empty(len(column.categories), dtype=np.int32)
        for local_code, value in enumerate(column.categories):
            global_code = index.get(value)
            if global_code is None:
                global_code = len(categories)
                categories.append(value)
                index[value] = global_code
            translation[local_code] = global_code
        return translation[column.codes]

    def append_table(self, table: Table) -> None:
        """Append a chunk (schema names/kinds must match the writer's)."""
        if self._closed:
            raise SchemaError("writer is closed")
        for spec in self.schema:
            if spec.name not in table.schema:
                raise SchemaError(f"chunk lacks column {spec.name!r}")
            if table.schema.spec(spec.name).kind is not spec.kind:
                raise SchemaError(
                    f"chunk column {spec.name!r} kind differs from the writer's"
                )
            column = table.column(spec.name)
            if spec.kind is AttributeKind.CATEGORICAL:
                data = self._global_codes(spec.name, column)
            else:
                data = np.asarray(column.decode(), dtype=np.float64)
            self._pending[spec.name].append(data)
        self._pending_rows += table.n_rows
        self._flush(final=False)

    def _flush(self, final: bool) -> None:
        if self._pending_rows >= self.shard_rows or (
            final and (self._pending_rows > 0 or not self._shard_files)
        ):
            merged = {
                name: (
                    np.concatenate(chunks)
                    if chunks
                    else np.zeros(
                        0,
                        dtype=np.int32 if name in self._categories else np.float64,
                    )
                )
                for name, chunks in self._pending.items()
            }
            position = 0
            total = self._pending_rows
            while total - position >= self.shard_rows:
                self._write_shard(merged, position, position + self.shard_rows)
                position += self.shard_rows
            if final and (position < total or not self._shard_files):
                # The ragged tail — or, for an empty table, one zero-length
                # shard so the directory is self-describing.
                self._write_shard(merged, position, total)
                position = total
            for name in self._pending:
                self._pending[name] = (
                    [merged[name][position:]] if position < total else []
                )
            self._pending_rows = total - position

    def _write_shard(self, merged: dict, start: int, stop: int) -> None:
        filename = shardstore.shard_filename(len(self._shard_files), self.format)
        arrays = {}
        for spec in self.schema:
            key = shardstore.member_key(
                spec.name, spec.kind is AttributeKind.CATEGORICAL
            )
            arrays[key] = merged[spec.name][start:stop]
        shardstore.write_shard(self.directory, filename, arrays, self.format)
        self._shard_files.append(filename)
        self._shard_lengths.append(stop - start)

    def close(self, fingerprint: str | None = None) -> ShardedTable:
        """Flush the tail shard, write the manifest, and open the result."""
        if self._closed:
            raise SchemaError("writer is closed")
        self._flush(final=True)
        self._closed = True
        n_rows = int(sum(self._shard_lengths))
        shardstore.write_manifest(
            self.directory,
            fmt=self.format,
            n_rows=n_rows,
            shard_rows=self.shard_rows,
            shard_lengths=self._shard_lengths,
            shard_files=self._shard_files,
            schema_specs=[
                (spec.name, spec.kind.value, spec.role.value)
                for spec in self.schema
            ],
            categories={
                name: tuple(values) for name, values in self._categories.items()
            },
            fingerprint=fingerprint,
        )
        return ShardedTable.open(self.directory)


def sharded_from_chunks(
    directory: str,
    schema: Schema,
    chunks: Iterable[Table],
    shard_rows: int,
    fmt: str | None = None,
) -> ShardedTable:
    """Write a chunk stream into ``directory`` and open the result."""
    writer = ShardedTableWriter(directory, schema, shard_rows, fmt=fmt)
    for chunk in chunks:
        writer.append_table(chunk)
    return writer.close()


__all__ = [
    "ShardedTable",
    "ShardedTableWriter",
    "sharded_from_chunks",
    "SHARD_CACHE_TABLES",
]
