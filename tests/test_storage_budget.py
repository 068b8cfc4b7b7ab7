"""What one index write or probe, and one heap scan or fetch, costs in calls.

B-tree nodes and hash chain pages are written and read by the record codec
(``storage/page.py``): the generic codec (``encode_value`` /
``decode_value``) runs once per key and never on the tuple, block and slot
around it, and a hash insert appends its one entry to a chain page instead of
re-encoding the page.  Counted with wrappers around both functions in every
module that calls them, on indexes the size of the end-to-end benchmark's.

A stored heap page is read once: one positioned read per block the pool
misses, with no seek and no size probe — the file manager keeps each open
file's block count — then one unpacking of its slot directory, then each
record decoded once where it lies, by the layout's record codec unless a tag
is not its column's usual one.  Counted with wrappers around ``os`` and around the
slot directory and the generic record and value decoders.
"""

from __future__ import annotations

import os
from collections import Counter

import pytest

import repro.storage.index as index_module
import repro.storage.page as page_module
import repro.storage.record as record_module
from repro.relational.schema import Schema
from repro.relational.types import FLOAT, INTEGER, STRING, TIME_SERIES, TimeSeries
from repro.storage.buffer import BufferManager
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
    the leaf once — one ``decode_value`` per key they hold — and encode the
    leaf once: one ``encode_value`` per key it holds afterwards."""
    handle = _open(tmp_path, "btree", [(float(key), (key // 14, key % 14)) for key in range(2000)])
    assert handle.height == 2
    _, _, separators = handle._read_node(handle.root)
    key = (separators[3][0] + separators[4][0]) / 2
    _, _, leaf = handle._read_node(separators[3][1])
    leaves = handle.leaf_count

    codec_calls.update(encode_value=0, decode_value=0)
    assert handle.insert(key, (900, 1))
    assert handle.leaf_count == leaves
    assert codec_calls == {
        "encode_value": len(leaf) + 1,
        "decode_value": len(separators) + len(leaf),
    }

    codec_calls.update(encode_value=0, decode_value=0)
    assert handle.delete(key, (900, 1))
    assert codec_calls == {
        "encode_value": len(leaf),
        "decode_value": len(separators) + len(leaf) + 1,
    }


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


def test_a_fetch_reads_its_block_and_probes_no_file_size(tmp_path, io_calls):
    heap = _stored_heap(tmp_path)
    records = dict(heap.records_with_rids())
    calls = io_calls(heap)
    misses = heap.buffers.misses
    for rid in list(records)[::7]:
        assert heap.fetch(rid) == records[rid]
    assert heap.buffers.misses > misses
    assert sum(calls.values()) == calls["pread"] + calls["preadv"] == heap.buffers.misses - misses
