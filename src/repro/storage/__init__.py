"""Durable paged storage: pages, buffers, slotted records, and the catalog.

The paper's host system is an ORDBMS whose relations live in fixed-size
disk blocks and whose optimizer prices scans from catalog metadata — not
from the exact in-memory statistics the earlier PRs computed eagerly.  This
package supplies that missing storage half:

* :mod:`repro.storage.page` — fixed-size :class:`Page` buffers addressed by
  :class:`BlockId`, and the byte codec serializing every
  :class:`~repro.relational.types.DataType` value;
* :mod:`repro.storage.file` — a :class:`FileManager` reading/writing blocks
  of the files under one database directory;
* :mod:`repro.storage.buffer` — a :class:`BufferManager` pool with
  pin/unpin, LRU or clock replacement, and hit/miss/eviction counters;
* :mod:`repro.storage.record` — slotted pages, the per-table
  :class:`Layout`, and :class:`HeapFile`s over the buffer pool with stable
  RIDs, tombstone deletes, and a persisted free-space map;
* :mod:`repro.storage.index` — secondary indexes over the heap: a paged
  :class:`BTreeIndex` (point + range lookups) and an equality-only
  :class:`HashIndex`, both pinned through the shared buffer pool and built
  in bulk, plus :class:`KeyInterval`, the unit an index scan looks up;
* :mod:`repro.storage.metadata` — the :class:`MetadataManager` persisting
  table schemas and per-table :class:`StatInfo` (block/record counts,
  per-column distinct values, equi-width histograms) that feed the
  optimizer's ``blocks_accessed``/``records_output`` estimates;
* :mod:`repro.storage.engine` — the :class:`StorageEngine` facade a
  :class:`~repro.server.engine.Database` opens with ``storage_dir=...``.
"""

from repro.storage.buffer import Buffer, BufferManager, BufferStats
from repro.storage.engine import StorageEngine
from repro.storage.file import FileManager
from repro.storage.index import (
    BTREE,
    HASH,
    BTreeIndex,
    HashIndex,
    IndexDefinition,
    KeyInterval,
    open_index,
)
from repro.storage.metadata import ColumnStatInfo, MetadataManager, StatInfo
from repro.storage.page import (
    DEFAULT_BLOCK_SIZE,
    BlockId,
    Page,
    decode_record,
    decode_value,
    encode_record,
    encode_value,
)
from repro.storage.record import HeapFile, Layout, PagedTableStorage, SlottedPage

__all__ = [
    "BTREE",
    "DEFAULT_BLOCK_SIZE",
    "HASH",
    "BTreeIndex",
    "BlockId",
    "Buffer",
    "BufferManager",
    "BufferStats",
    "ColumnStatInfo",
    "FileManager",
    "HashIndex",
    "HeapFile",
    "IndexDefinition",
    "KeyInterval",
    "Layout",
    "MetadataManager",
    "Page",
    "PagedTableStorage",
    "SlottedPage",
    "StatInfo",
    "StorageEngine",
    "decode_record",
    "decode_value",
    "encode_record",
    "encode_value",
    "open_index",
]
