"""The storage engine: one database directory, opened end to end.

:class:`StorageEngine` composes the file manager, buffer pool, and metadata
manager for one directory and hands out :class:`PagedTableStorage` backends
for tables.  It is the single integration point a
:class:`~repro.server.engine.Database` opened with ``storage_dir=...`` talks
to: create/open/drop tables and secondary indexes, fetch catalog
statistics, observe scans, and flush everything at query boundaries.

Secondary indexes are maintained incrementally: the storage backend's
insert/delete callbacks fan out to every index on the table, and reopened
databases revalidate each index's persisted entry count against its meta
page, rebuilding from the heap when they disagree (e.g. after a crash that
lost index writes but kept heap pages).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Union

from repro.errors import CatalogError, StorageError
from repro.relational.schema import Schema
from repro.relational.statistics import TableStatistics
from repro.storage.buffer import BufferManager, BufferStats
from repro.storage.file import FileManager
from repro.storage.index import BTREE, HASH, BTreeIndex, HashIndex, IndexDefinition, open_index
from repro.storage.metadata import MetadataManager, StatInfo
from repro.storage.page import DEFAULT_BLOCK_SIZE
from repro.storage.record import PagedTableStorage, RecordId

IndexHandle = Union[BTreeIndex, HashIndex]


class StorageEngine:
    """All storage state for one database directory."""

    def __init__(
        self,
        directory: str,
        block_size: int = DEFAULT_BLOCK_SIZE,
        pool_size: int = 64,
        refresh_interval: int = 100,
    ) -> None:
        self.directory = directory
        self.files = FileManager(directory, block_size)
        self.buffers = BufferManager(self.files, pool_size=pool_size)
        self.metadata = MetadataManager(directory, refresh_interval=refresh_interval)
        self._storages: Dict[str, PagedTableStorage] = {}
        self._indexes: Dict[str, IndexHandle] = {}  # lower-case index name

    # -- table lifecycle ---------------------------------------------------------

    def create_table(
        self, name: str, schema: Schema, replace: bool = False
    ) -> PagedTableStorage:
        """Create (or replace) a table's heap file and catalog entry.

        Replacing a table preserves its index *definitions*: the index files
        are reset to empty and repopulate as rows arrive.
        """
        key = name.lower()
        preserved: List[IndexDefinition] = []
        if self.metadata.has_table(name):
            if not replace:
                raise CatalogError(f"table {name!r} already exists in storage")
            preserved = self.metadata.indexes_for(name)
            self.drop_table(name)
        self.metadata.create_table(name, schema, replace=True)
        storage = self._attach(name, schema, row_count=0)
        for definition in preserved:
            if any(column.name == definition.column for column in schema.columns):
                self.create_index(
                    definition.name, definition.table, definition.column, definition.kind
                )
        return storage

    def open_table(self, name: str, schema: Optional[Schema] = None) -> PagedTableStorage:
        """Open an existing table, recovering its schema from the catalog."""
        key = name.lower()
        if key in self._storages:
            return self._storages[key]
        catalog_schema = self.metadata.schema_for(name)
        recovered = self.metadata.stat_info(name).records
        return self._attach(name, schema or catalog_schema, row_count=recovered)

    def drop_table(self, name: str) -> None:
        """Delete the heap file, its indexes, evict cached pages, drop catalog."""
        key = name.lower()
        for definition in self.metadata.indexes_for(name):
            self.drop_index(definition.name)
        storage = self._storages.pop(key, None)
        if storage is None and self.metadata.has_table(name):
            storage = self._attach(name, self.metadata.schema_for(name), row_count=0)
            self._storages.pop(key, None)
        if storage is not None:
            storage.clear()
        if self.metadata.has_table(name):
            self.metadata.drop_table(name)

    def table_names(self) -> List[str]:
        return self.metadata.table_names()

    def _attach(self, name: str, schema: Schema, row_count: int) -> PagedTableStorage:
        storage = PagedTableStorage(
            self.buffers,
            name,
            schema,
            row_count=row_count,
            on_insert=lambda values, rid, _name=name: self._on_insert(_name, values, rid),
            on_delete=lambda values, rid, _name=name: self._on_delete(_name, values, rid),
        )
        storage.heap.holes = self.metadata.free_space_for(name)
        self._storages[name.lower()] = storage
        for definition in self.metadata.indexes_for(name):
            self._open_index(definition, storage)
        return storage

    # -- row maintenance fan-out -------------------------------------------------

    def _on_insert(self, name: str, values: Sequence[Any], rid: RecordId) -> None:
        self.metadata.record_insert(name, values)
        for definition, handle in self._index_handles(name):
            position = self._column_position(name, definition.column)
            if position is not None:
                handle.insert(values[position], rid)
                self.metadata.set_index_state(
                    definition.name, handle.entry_count, handle.incomplete
                )

    def _on_delete(self, name: str, values: Sequence[Any], rid: RecordId) -> None:
        self.metadata.record_delete(name)
        for definition, handle in self._index_handles(name):
            position = self._column_position(name, definition.column)
            if position is not None:
                handle.delete(values[position], rid)
                self.metadata.set_index_state(
                    definition.name, handle.entry_count, handle.incomplete
                )

    def _column_position(self, table: str, column: str) -> Optional[int]:
        schema = self.metadata.schema_for(table)
        for position, schema_column in enumerate(schema.columns):
            if schema_column.name == column:
                return position
        return None

    def delete_rows(self, name: str, predicate) -> int:
        """Delete matching rows; refresh stats when the batch was large."""
        storage = self.open_table(name)
        deleted = storage.delete_where(predicate)
        if deleted:
            self.maybe_refresh_after_deletes(name)
        return deleted

    def maybe_refresh_after_deletes(self, name: str) -> None:
        """Run the full stats refresh when a delete batch made stats stale."""
        if self.metadata.deletes_refresh_due(name):
            storage = self.open_table(name)
            self.metadata.refresh(name, storage.heap.records(), storage.block_count())

    # -- secondary indexes -------------------------------------------------------

    def create_index(
        self, name: str, table: str, column: str, kind: str = BTREE
    ) -> IndexHandle:
        """Create an index, build it from the heap, and record it in the catalog."""
        if kind not in (BTREE, HASH):
            raise CatalogError(f"unknown index kind {kind!r} (expected btree or hash)")
        storage = self.open_table(table)
        definition = IndexDefinition(name=name, table=table, column=column, kind=kind)
        self.metadata.create_index(definition)
        handle = open_index(self.buffers, definition)
        self._build_index(handle, storage)
        self._indexes[name.lower()] = handle
        self.metadata.flush()
        return handle

    def _build_index(self, handle: IndexHandle, storage: PagedTableStorage) -> None:
        """Bulk-build ``handle`` from the heap and record its state."""
        definition = handle.definition
        position = self._column_position(definition.table, definition.column)
        handle.bulk_load((values[position], rid) for rid, values in storage.rows_with_rids())
        self.metadata.set_index_state(definition.name, handle.entry_count, handle.incomplete)

    def drop_index(self, name: str) -> None:
        definition = self.metadata.drop_index(name)
        handle = self._indexes.pop(name.lower(), None)
        if handle is None:
            handle = open_index(self.buffers, definition)
        handle.delete_file()

    def index_handles(self, table: str) -> Dict[str, IndexHandle]:
        """Open handles for every index on ``table``, keyed by index name."""
        self.open_table(table)
        return {
            definition.name: self._indexes[definition.name.lower()]
            for definition in self.metadata.indexes_for(table)
            if definition.name.lower() in self._indexes
        }

    def index_handle(self, name: str) -> IndexHandle:
        definition = self.metadata.index_definition(name)
        self.open_table(definition.table)
        return self._indexes[name.lower()]

    def _index_handles(self, table: str):
        for definition in self.metadata.indexes_for(table):
            handle = self._indexes.get(definition.name.lower())
            if handle is not None:
                yield definition, handle

    def _open_index(self, definition: IndexDefinition, storage: PagedTableStorage) -> None:
        """Open one index on attach, rebuilding when it fails revalidation.

        The catalog's persisted entry count is the source of truth: an index
        file whose meta page disagrees (crash between heap and index writes,
        or a missing/zero-length file) is rebuilt from the heap.
        """
        key = definition.name.lower()
        if key in self._indexes:
            return
        expected_entries, _ = self.metadata.index_state(definition.name)
        try:
            handle = open_index(self.buffers, definition)
        except StorageError:
            # Corrupt index file (bad magic / torn meta page): start empty
            # and fall through to the rebuild below.
            self.buffers.discard(definition.file_name)
            self.files.delete(definition.file_name)
            handle = open_index(self.buffers, definition)
        if handle.entry_count != expected_entries:
            self._build_index(handle, storage)
        self._indexes[key] = handle

    # -- statistics --------------------------------------------------------------

    def stat_info(self, name: str) -> StatInfo:
        """Catalog statistics with the current block count stamped in."""
        storage = self.open_table(name)
        return self.metadata.stat_info(name, block_count=storage.block_count())

    def table_statistics(self, name: str) -> TableStatistics:
        """The catalog's view of a table in the optimizer's statistics shape."""
        return self.stat_info(name).to_table_statistics()

    def on_table_scan(self, name: str) -> None:
        """Count one scan; run the due full-stats refresh when triggered."""
        if self.metadata.note_scan(name):
            self.refresh_statistics(name)

    def refresh_statistics(self, name: str) -> StatInfo:
        """Force the full stats refresh (histograms, distinct counts) now.

        The scan/delete triggers run this lazily; callers that just bulk
        loaded and want histogram-accurate selectivity estimates immediately
        (e.g. before an index-vs-scan plan choice) invoke it directly, like
        a database's ``ANALYZE``.
        """
        storage = self.open_table(name)
        return self.metadata.refresh(
            name, storage.heap.records(), storage.block_count()
        )

    # -- observability and lifecycle ---------------------------------------------

    def buffer_stats(self) -> BufferStats:
        return self.buffers.stats()

    def flush(self) -> None:
        """Persist dirty pages, free-space maps, and the catalog."""
        self.buffers.flush_all()
        for name, storage in self._storages.items():
            self.metadata.set_free_space(name, storage.heap.holes)
        self.metadata.flush()

    def close(self) -> None:
        self.flush()
        self.files.close()

    def __enter__(self) -> "StorageEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
