"""What one index write or probe, and one heap scan or fetch, costs in calls.

B-tree nodes and hash chain pages are written and read by the record codec
(``storage/page.py``): the generic codec (``encode_value`` /
``decode_value``) runs once per key written and once per run of entries
read (one struct call unpacks the rest of a run), and never on the tuple,
block and slot around a key, and a hash insert appends its one entry to a
chain page instead of re-encoding the page.  Counted with wrappers around both functions in every
module that calls them, on indexes the size of the end-to-end benchmark's.

A stored heap page is read once: one positioned read per block the pool
misses, with no seek and no size probe — the file manager keeps each open
file's block count — then one unpacking of its slot directory, then each
record decoded once where it lies, by the layout's record codec unless a tag
is not its column's usual one.  Counted with wrappers around ``os`` and around the
slot directory and the generic record and value decoders.

A batch load with no open index pins each heap block once: the block being
filled stays pinned from one record to the next, and filled by one
``SlottedPage.fill`` that unpacks its slot directory once.  Counted with
wrappers around the pool's ``pin`` and ``pin_new`` and the directory.

An index build reads only its key column and sorts or hashes it as a whole;
``ANALYZE`` folds a column holding one type with no call per value.  Counted
with wrappers around the time-series codec, ``sort_key``, ``_encode_key``,
``value_size`` and ``Histogram.add``.
"""

from __future__ import annotations

import os
from collections import Counter

import pytest

import repro.relational.types as types_module
import repro.storage.index as index_module
import repro.storage.page as page_module
import repro.storage.record as record_module
from repro.relational.schema import Schema
from repro.relational.statistics import Histogram
from repro.relational.table import Table
from repro.relational.types import FLOAT, INTEGER, STRING, TIME_SERIES, TimeSeries
from repro.storage.buffer import BufferManager
from repro.storage.engine import StorageEngine
from repro.storage.file import FileManager
from repro.storage.index import IndexDefinition, open_index
from repro.storage.record import HeapFile, Layout, SlottedPage


@pytest.fixture
def codec_calls(monkeypatch):
    """``{"encode_value": n, "decode_value": n}``, counted from a reset."""
    calls = {"encode_value": 0, "decode_value": 0}
    for name in calls:
        original = getattr(page_module, name)

        def counted(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(page_module, name, counted)
        if hasattr(index_module, name):
            monkeypatch.setattr(index_module, name, counted)
    return calls


def _open(tmp_path, kind, pairs):
    pool = BufferManager(FileManager(str(tmp_path)), pool_size=64)
    handle = open_index(pool, IndexDefinition("idx", "T", "K", kind))
    handle.bulk_load(pairs)
    return handle


@pytest.mark.parametrize("rows", [0, 3000, 12000])  # chains of 0, ~47 and ~190 entries
def test_a_hash_write_or_probe_encodes_its_key_once(tmp_path, codec_calls, rows):
    handle = _open(tmp_path, "hash", [(key, (key // 14, key % 14)) for key in range(rows)])
    number, chain = handle._bucket_block(handle._encode_key(rows)), 0
    while number:
        number, entries = handle._read_chain_page(number)
        chain += len(entries)
    assert rows // 128 <= chain <= rows // 32
    for operation in (
        lambda: handle.insert(rows, (900, 1)),
        lambda: handle.search_eq(rows),
        lambda: handle.delete(rows, (900, 1)),
    ):
        codec_calls.update(encode_value=0, decode_value=0)
        operation()
        assert codec_calls == {"encode_value": 1, "decode_value": 0}
    assert handle.search_eq(rows) == []


def test_a_btree_leaf_write_codes_each_touched_node_once(tmp_path, codec_calls):
    """An insert that splits nothing and a delete each decode the root and
    the leaf once — one ``decode_value`` per node, for its first key: the
    keys after it are one run, unpacked in one call — and encode the leaf
    once: one ``encode_value`` per key it holds afterwards."""
    handle = _open(tmp_path, "btree", [(float(key), (key // 14, key % 14)) for key in range(2000)])
    assert handle.height == 2
    _, _, separators = handle._read_node(handle.root)
    key = (separators[3][0] + separators[4][0]) / 2
    _, _, leaf = handle._read_node(separators[3][1])
    leaves = handle.leaf_count

    codec_calls.update(encode_value=0, decode_value=0)
    assert handle.insert(key, (900, 1))
    assert handle.leaf_count == leaves
    assert codec_calls == {"encode_value": len(leaf) + 1, "decode_value": 2}

    codec_calls.update(encode_value=0, decode_value=0)
    assert handle.delete(key, (900, 1))
    assert codec_calls == {"encode_value": len(leaf), "decode_value": 2}


# -- the heap ------------------------------------------------------------------------

HEAP_SCHEMA = Schema.of(("Id", INTEGER), ("Price", FLOAT), ("Name", STRING), ("Series", TIME_SERIES))
HEAP_ROWS = 300


def _stored_heap(tmp_path):
    """A heap of end-to-end-benchmark-like records (about 20 pages) behind a
    fresh 4-page pool, so a scan misses every block."""
    files = FileManager(str(tmp_path))
    writer = BufferManager(files, pool_size=8)
    heap = HeapFile(writer, Layout("Quotes", HEAP_SCHEMA))
    for key in range(HEAP_ROWS):
        series = TimeSeries([float(key + point) for point in range(28 + key % 5)])
        heap.append((key, key * 0.5, f"name{key % 50:02d}", series))
    writer.flush_all()
    return HeapFile(BufferManager(files, pool_size=4), Layout("Quotes", HEAP_SCHEMA))


class _CountedHandle:
    """A file handle whose ``seek`` / ``tell`` / ``read`` / ``write`` are counted."""

    def __init__(self, handle, calls):
        self._handle, self._calls = handle, calls

    def __getattr__(self, name):
        attribute = getattr(self._handle, name)
        if name not in ("seek", "tell", "read", "write"):
            return attribute

        def counted(*args):
            self._calls[f"handle.{name}"] += 1
            return attribute(*args)

        return counted


@pytest.fixture
def io_calls(monkeypatch):
    """``count(heap)`` starts counting, by name, the calls the heap's file
    manager makes into ``os`` and on its open file handles."""
    calls = Counter()
    for name in ("pread", "preadv", "pwrite", "lseek", "fstat", "stat"):
        original = getattr(os, name, None)
        if original is not None:

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(os, name, counted)

    def count(heap):
        files = heap.buffers.file_manager
        for file_name, handle in list(files._handles.items()):
            files._handles[file_name] = _CountedHandle(handle, calls)
        calls.clear()
        return calls

    return count


def test_a_heap_scan_makes_one_positioned_read_per_missed_block(tmp_path, io_calls):
    heap = _stored_heap(tmp_path)
    blocks = heap.block_count()
    calls = io_calls(heap)
    assert len(list(heap.records())) == HEAP_ROWS
    assert heap.buffers.misses == blocks >= 15
    # One pread per block and nothing else: no seek, tell or fstat.
    assert calls["pread"] + calls["preadv"] == blocks
    assert sum(calls.values()) == blocks, dict(calls)


def test_a_heap_scan_unpacks_each_directory_once_and_decodes_records_from_fixed_parts(
    tmp_path, monkeypatch
):
    """Records whose tags are their columns' usual ones never reach the
    generic codec; one holding a NULL takes ``decode_record`` once."""
    heap = _stored_heap(tmp_path)
    calls = Counter()
    for owner, name in (
        (SlottedPage, "directory"),
        (record_module, "decode_record"),
        (page_module, "decode_value"),
    ):
        original = getattr(owner, name)

        def counted(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(owner, name, counted)
    assert len(list(heap.records())) == HEAP_ROWS
    assert dict(calls) == {"directory": heap.block_count()}

    heap.append((HEAP_ROWS, None, "null price", TimeSeries([1.0])))
    calls.clear()
    assert len(list(heap.records())) == HEAP_ROWS + 1
    assert dict(calls) == {"directory": heap.block_count(), "decode_record": 1, "decode_value": 4}


def test_a_table_scan_without_nulls_decodes_no_record_generically(tmp_path, monkeypatch):
    """1,000 records of the four usual column types, none NULL, read through
    a durable table: no record reaches ``decode_record``."""
    from repro.server.engine import Database

    calls = Counter()
    decode_record = record_module.decode_record

    def counted(*args):
        calls["decode_record"] += 1
        return decode_record(*args)

    monkeypatch.setattr(record_module, "decode_record", counted)
    db = Database(storage_dir=str(tmp_path))
    columns = [("K", INTEGER), ("V", FLOAT), ("S", STRING), ("P", TIME_SERIES)]
    rows = [(k, k * 0.5, f"s{k % 9}", TimeSeries([float(k)] * 30)) for k in range(1000)]
    db.create_table("T", columns, rows=rows)
    calls.clear()
    assert len(db.catalog.table("T").storage.read_all()) == 1000
    assert calls["decode_record"] == 0
    db.close()


def test_a_fetch_reads_its_block_and_probes_no_file_size(tmp_path, io_calls):
    heap = _stored_heap(tmp_path)
    records = dict(heap.records_with_rids())
    calls = io_calls(heap)
    misses = heap.buffers.misses
    for rid in list(records)[::7]:
        assert heap.fetch(rid) == records[rid]
    assert heap.buffers.misses > misses
    assert sum(calls.values()) == calls["pread"] + calls["preadv"] == heap.buffers.misses - misses


def test_a_batch_load_without_indexes_pins_each_heap_block_once(tmp_path, monkeypatch):
    """The block being filled stays pinned from one record to the next: a
    batch into an empty table pins each heap block once, by ``pin_new``,
    over a file five times the pool."""
    engine = StorageEngine(str(tmp_path), pool_size=4)
    storage = engine.create_table("Quotes", HEAP_SCHEMA)
    pins = Counter()
    for name in ("pin", "pin_new"):
        original = getattr(BufferManager, name)

        def counted(self, target, _original=original):
            buffer = _original(self, target)
            if buffer.block.file_name == storage.heap.file_name:
                pins[buffer.block.number] += 1
            return buffer

        monkeypatch.setattr(BufferManager, name, counted)
    rows = [
        (key, key * 0.5, f"name{key % 50:02d}", TimeSeries([float(key)] * 30))
        for key in range(HEAP_ROWS)
    ]
    Table("Quotes", HEAP_SCHEMA, storage=storage).insert_many(rows)
    blocks = storage.block_count()
    assert blocks >= 5 * engine.buffers.pool_size
    assert pins == Counter(range(blocks))
    assert len(storage.read_all()) == HEAP_ROWS
    engine.close()


# -- set-up: a load, two index builds and ANALYZE, a column at a time ------------------

SETUP_ROWS = 6000


def _setup_rows(count):
    """Rows shaped like the end-to-end benchmark's durable table."""
    return [
        (key, key * 0.5, f"name{key % 50:02d}", TimeSeries([float(key)] * (28 + key % 5)))
        for key in range(count)
    ]


def _counting(monkeypatch, calls, owner, name, wrap=lambda function: function):
    original = getattr(owner, name)

    def counted(*args, _original=original):
        calls[name] += 1
        return _original(*args)

    monkeypatch.setattr(owner, name, wrap(counted))


def test_a_load_without_holes_unpacks_each_slot_directory_once(tmp_path, monkeypatch):
    """A batch fills each heap block with one ``SlottedPage.fill``: the
    block's slot directory is unpacked once, not once per record twice."""
    engine = StorageEngine(str(tmp_path), pool_size=64)
    storage = engine.create_table("Quotes", HEAP_SCHEMA)
    calls = Counter()
    _counting(monkeypatch, calls, SlottedPage, "directory")
    Table("Quotes", HEAP_SCHEMA, storage=storage).insert_many(_setup_rows(SETUP_ROWS))
    assert storage.heap.holes == {}
    assert calls["directory"] == storage.block_count() > 400
    engine.close()


def test_a_load_pins_each_heap_block_once(tmp_path, monkeypatch):
    """The block a batch fills stays pinned from its first record to its
    last: one ``pin`` or ``pin_new`` per heap block."""
    engine = StorageEngine(str(tmp_path), pool_size=64)
    storage = engine.create_table("Quotes", HEAP_SCHEMA)
    pins = Counter()
    for name in ("pin", "pin_new"):

        def counted(self, target, _original=getattr(BufferManager, name)):
            buffer = _original(self, target)
            pins[buffer.block.file_name] += 1
            return buffer

        monkeypatch.setattr(BufferManager, name, counted)
    Table("Quotes", HEAP_SCHEMA, storage=storage).insert_many(_setup_rows(SETUP_ROWS))
    assert pins[storage.heap.file_name] == storage.block_count() > 400
    engine.close()


@pytest.mark.parametrize("kind, column", [("btree", "Price"), ("hash", "Id")])
def test_an_index_build_on_a_numeric_column_decodes_no_series_and_no_key_alone(
    tmp_path, monkeypatch, kind, column
):
    """The build reads its key column only: no time series is unpacked (so
    none is built), and the column is sorted or hashed as a whole, with no
    ``sort_key`` or ``_encode_key`` call per key."""
    engine = StorageEngine(str(tmp_path), pool_size=64)
    storage = engine.create_table("Quotes", HEAP_SCHEMA)
    storage.append_many(_setup_rows(SETUP_ROWS))
    calls = Counter()
    _counting(monkeypatch, calls, page_module, "doubles")
    _counting(monkeypatch, calls, index_module, "sort_key")
    _counting(monkeypatch, calls, index_module.HashIndex, "_encode_key", staticmethod)
    handle = engine.create_index(f"by_{column}", "Quotes", column, kind)
    assert handle.entry_count == SETUP_ROWS
    assert dict(calls) == {}
    assert len(storage.read_all()) == SETUP_ROWS
    assert calls["doubles"] == SETUP_ROWS  # a full scan unpacks every series
    engine.close()


def test_analyze_folds_a_homogeneous_column_with_no_call_per_value(tmp_path, monkeypatch):
    engine = StorageEngine(str(tmp_path), pool_size=64)
    storage = engine.create_table("Quotes", HEAP_SCHEMA)
    rows = _setup_rows(SETUP_ROWS)
    rows[7] = rows[7][:1] + (None,) + rows[7][2:]  # NULLs aside, each column holds one type
    storage.append_many(rows)
    calls = Counter()
    _counting(monkeypatch, calls, types_module, "value_size")
    _counting(monkeypatch, calls, Histogram, "add")
    stats = engine.refresh_statistics("Quotes")
    assert stats.records == SETUP_ROWS and stats.columns["Price"].null_count == 1
    assert stats.columns["Price"].histogram.total == SETUP_ROWS - 1
    assert dict(calls) == {}
    engine.close()
