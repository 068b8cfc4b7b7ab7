"""The storage engine: one database directory, opened end to end.

:class:`StorageEngine` composes the file manager, buffer pool, and metadata
manager for one directory and hands out :class:`PagedTableStorage` backends
for tables.  It is the single integration point a
:class:`~repro.server.engine.Database` opened with ``storage_dir=...`` talks
to: create/open/drop tables and secondary indexes, and flush everything at
query boundaries.

Each table's backend is built with its catalog entry and its open indexes
(resolved again whenever an index is created or dropped), so it maintains
statistics and indexes itself on every insert and delete.  Reopened
databases revalidate each index's persisted entry count against its meta
page, rebuilding from the heap when they disagree (e.g. after a crash that
lost index writes but kept heap pages).
"""

from __future__ import annotations

from typing import Dict, List, Union

from repro.errors import CatalogError, StorageError
from repro.relational.schema import Schema
from repro.storage.buffer import BufferManager, BufferStats
from repro.storage.file import FileManager
from repro.storage.index import BTREE, HASH, BTreeIndex, HashIndex, IndexDefinition, open_index
from repro.storage.metadata import MetadataManager, StatInfo
from repro.storage.page import DEFAULT_BLOCK_SIZE
from repro.storage.record import PagedTableStorage

IndexHandle = Union[BTreeIndex, HashIndex]


class StorageEngine:
    """All storage state for one database directory."""

    def __init__(
        self,
        directory: str,
        block_size: int = DEFAULT_BLOCK_SIZE,
        pool_size: int = 64,
    ) -> None:
        self.directory = directory
        self.files = FileManager(directory, block_size)
        self.buffers = BufferManager(self.files, pool_size=pool_size)
        self.metadata = MetadataManager(directory)
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
        self.files.check_open()
        preserved: List[IndexDefinition] = []
        if self.metadata.has_table(name):
            if not replace:
                raise CatalogError(f"table {name!r} already exists in storage")
            preserved = self.metadata.indexes_for(name)
            self.drop_table(name)
        self.metadata.create_table(name, schema, replace=True)
        storage = self._attach(name)
        for definition in preserved:
            if any(column.name == definition.column for column in schema.columns):
                self.create_index(
                    definition.name, definition.table, definition.column, definition.kind
                )
        return storage

    def open_table(self, name: str) -> PagedTableStorage:
        """Open an existing table, recovering its schema from the catalog."""
        storage = self._storages.get(name.lower())
        return storage if storage is not None else self._attach(name)

    def drop_table(self, name: str) -> None:
        """Delete the heap file, its indexes, evict cached pages, drop catalog."""
        self.files.check_open()
        for definition in self.metadata.indexes_for(name):
            self.drop_index(definition.name)
        if self.metadata.has_table(name):
            self.open_table(name).clear()
            del self._storages[name.lower()]
            self.metadata.drop_table(name)

    def table_names(self) -> List[str]:
        return self.metadata.table_names()

    def _attach(self, name: str) -> PagedTableStorage:
        storage = PagedTableStorage(self.buffers, self.metadata, self.metadata.table_entry(name))
        self._storages[name.lower()] = storage
        for definition in self.metadata.indexes_for(name):
            self._open_index(definition, storage)
        self._resolve_indexes(storage)
        return storage

    def _resolve_indexes(self, storage: PagedTableStorage) -> None:
        """Hand ``storage`` its open indexes in the catalog's index-name order."""
        schema = storage.entry.schema
        storage.indexes_by_position = [
            (self._indexes[definition.name.lower()], schema.index_of(definition.column))
            for definition in self.metadata.indexes_for(storage.table_name)
        ]

    # -- secondary indexes -------------------------------------------------------

    def create_index(
        self, name: str, table: str, column: str, kind: str = BTREE
    ) -> IndexHandle:
        """Create an index, build it from the heap, and record it in the catalog."""
        self.files.check_open()
        if kind not in (BTREE, HASH):
            raise CatalogError(f"unknown index kind {kind!r} (expected btree or hash)")
        storage = self.open_table(table)
        definition = IndexDefinition(name=name, table=table, column=column, kind=kind)
        self.metadata.create_index(definition)
        handle = open_index(self.buffers, definition)
        self._build_index(handle, storage)
        self._indexes[name.lower()] = handle
        self._resolve_indexes(storage)
        self.metadata.flush()
        return handle

    def _build_index(self, handle: IndexHandle, storage: PagedTableStorage) -> None:
        """Bulk-build ``handle`` from its key column of the heap and record its state."""
        definition = handle.definition
        position = storage.entry.schema.index_of(definition.column)
        handle.bulk_load((key, rid) for rid, key in storage.rows_with_rids(position))
        self.metadata.set_index_state(definition.name, handle.entry_count, handle.incomplete)

    def drop_index(self, name: str) -> None:
        self.files.check_open()
        definition = self.metadata.drop_index(name)
        handle = self._indexes.pop(name.lower(), None)
        if handle is None:
            handle = open_index(self.buffers, definition)
        handle.delete_file()
        storage = self._storages.get(definition.table.lower())
        if storage is not None:
            self._resolve_indexes(storage)

    def index_handle(self, name: str) -> IndexHandle:
        definition = self.metadata.index_definition(name)
        self.open_table(definition.table)
        return self._indexes[name.lower()]

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

    def refresh_statistics(self, name: str) -> StatInfo:
        """Force the full stats refresh (histograms, distinct counts) now.

        The scan/delete triggers run this lazily; callers that just bulk
        loaded and want histogram-accurate selectivity estimates immediately
        (e.g. before an index-vs-scan plan choice) invoke it directly, like
        a database's ``ANALYZE``.
        """
        return self.open_table(name).refresh_statistics()

    # -- observability and lifecycle ---------------------------------------------

    def buffer_stats(self) -> BufferStats:
        return self.buffers.stats()

    def flush(self) -> None:
        """Persist dirty pages, free-space maps, and the catalog."""
        self.files.check_open()
        self.buffers.flush_all()
        for storage in self._storages.values():
            self.metadata.set_free_space(storage.entry, storage.heap.holes)
        self.metadata.flush()

    @property
    def closed(self) -> bool:
        return self.files.closed

    def close(self) -> None:
        """Flush everything and close; a second call does nothing, and any
        other storage call afterwards raises :class:`StorageError`."""
        if self.closed:
            return
        self.flush()
        self.buffers.close()
        self.files.close()

    def __enter__(self) -> "StorageEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
