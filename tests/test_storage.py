"""Unit tests for the paged storage subsystem: pages, buffers, heaps, catalog."""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import CatalogError, StorageError
from repro.relational.schema import Schema
from repro.relational.types import (
    BOOLEAN,
    DATA_OBJECT,
    FLOAT,
    INTEGER,
    STRING,
    TIME_SERIES,
    DataObject,
    TimeSeries,
)
from repro.storage import (
    BlockId,
    BufferManager,
    FileManager,
    HeapFile,
    Layout,
    MetadataManager,
    Page,
    SlottedPage,
    StorageEngine,
    decode_record,
    decode_value,
    encode_record,
    encode_value,
)
from repro.storage.index import _LEAF_ENTRY
from repro.storage.page import record_codec

SCHEMA = Schema.of(("Id", INTEGER), ("Price", FLOAT), ("Name", STRING))


# ---------------------------------------------------------------------------
# Value codec
# ---------------------------------------------------------------------------


class TestCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -1,
            2**62,
            -(2**63),
            2**100,  # beyond int64: the bigint tag
            -(2**200),
            3.5,
            -0.0,
            float("inf"),
            "",
            "héllo wörld",
            b"",
            b"\x00\xff" * 7,
            DataObject(240, seed=7),
            TimeSeries((1.0, -2.5, 3.25)),
            (1, "two", None),
            [1.5, [2, (3, "x")], b"y"],
        ],
    )
    def test_round_trip_exact(self, value):
        encoded = encode_value(value)
        decoded, offset = decode_value(encoded, 0)
        assert decoded == value
        assert type(decoded) is type(value)
        assert offset == len(encoded)
        # Decoded where it lies, inside a page or a view of one.
        page = bytearray(b"\xee" * 5) + encoded + bytearray(b"\xee" * 3)
        for buffer in (page, memoryview(page)):
            decoded, offset = decode_value(buffer, 5)
            assert decoded == value and type(decoded) is type(value)
            assert offset == 5 + len(encoded)

    def test_int_in_float_column_stays_int(self):
        """The wire sizes ints and floats differently; disk must preserve that."""
        decoded, _ = decode_value(encode_value(3), 0)
        assert decoded == 3 and isinstance(decoded, int) and not isinstance(decoded, bool)
        decoded, _ = decode_value(encode_value(3.0), 0)
        assert decoded == 3.0 and isinstance(decoded, float)

    def test_bool_not_confused_with_int(self):
        decoded, _ = decode_value(encode_value(True), 0)
        assert decoded is True

    def test_record_round_trip(self):
        values = (1, 2.5, "x", None, DataObject(16, seed=1))
        decoded, _ = decode_record(encode_record(values))
        assert decoded == values

    def test_corrupt_tag_raises(self):
        with pytest.raises(StorageError):
            decode_value(b"\x7f", 0)

    @pytest.mark.parametrize("values", [(), (1.0,), (3, 2.5, -0.0, float("inf"))])
    def test_decoded_time_series_is_indistinguishable(self, values):
        """The codec builds the series without re-converting its floats; it
        must still equal, hash, order and size like one built the usual way."""
        original = TimeSeries(values)
        decoded, _ = decode_value(encode_value(original), 0)
        assert decoded == original and hash(decoded) == hash(original)
        assert len({decoded, original}) == 1
        assert all(type(value) is float for value in decoded.values)
        assert decoded.serialized_size() == original.serialized_size()
        bigger = TimeSeries(tuple(values) + (1.0,))
        assert decoded < bigger and not bigger < decoded
        assert sorted([bigger, decoded]) == [original, bigger]
        assert encode_value(decoded) == encode_value(original)


# ---------------------------------------------------------------------------
# Pages and files
# ---------------------------------------------------------------------------


class TestPageAndFile:
    def test_page_int_and_bytes(self):
        page = Page(128)
        page.write_int(0, -12345)
        page.write_bytes(64, b"abc")
        assert page.read_int(0) == -12345
        assert page.read_bytes(64, 3) == b"abc"

    def test_page_overflow_guarded(self):
        page = Page(64)
        with pytest.raises(StorageError):
            page.write_bytes(60, b"too long")
        with pytest.raises(StorageError):
            Page(16)

    def test_file_manager_append_read_write(self, tmp_path):
        files = FileManager(str(tmp_path), block_size=128)
        page = Page(128)
        page.write_int(0, 42)
        block = files.append("t.tbl", page)
        assert block == BlockId("t.tbl", 0)
        assert files.block_count("t.tbl") == 1
        page.write_int(0, 99)
        files.write(block, page)
        fresh = Page(128)
        files.read(block, fresh)
        assert fresh.read_int(0) == 99
        files.close()

    def test_read_past_eof_raises(self, tmp_path):
        files = FileManager(str(tmp_path), block_size=128)
        with pytest.raises(StorageError):
            files.read(BlockId("missing.tbl", 3), Page(128))
        files.close()

    def test_path_separators_rejected(self, tmp_path):
        files = FileManager(str(tmp_path), block_size=128)
        with pytest.raises(StorageError):
            files.block_count("../escape.tbl")
        files.close()


# ---------------------------------------------------------------------------
# Buffer manager
# ---------------------------------------------------------------------------


def _make_blocks(files: FileManager, name: str, count: int) -> list:
    blocks = []
    page = Page(files.block_size)
    for number in range(count):
        page.write_int(0, number)
        blocks.append(files.append(name, page))
    return blocks


class TestBufferManager:
    def test_hits_misses_and_evictions(self, tmp_path):
        files = FileManager(str(tmp_path), block_size=128)
        blocks = _make_blocks(files, "t.tbl", 4)
        pool = BufferManager(files, pool_size=2)
        pool.unpin(pool.pin(blocks[0]))
        pool.unpin(pool.pin(blocks[0]))  # resident: a hit
        pool.unpin(pool.pin(blocks[1]))
        pool.unpin(pool.pin(blocks[2]))  # pool of 2: must evict
        stats = pool.stats()
        assert stats.hits == 1
        assert stats.misses == 3
        assert stats.evictions == 1
        assert stats.accesses == 4
        assert stats.hit_ratio == pytest.approx(0.25)
        files.close()

    def test_lru_evicts_least_recently_unpinned(self, tmp_path):
        files = FileManager(str(tmp_path), block_size=128)
        blocks = _make_blocks(files, "t.tbl", 3)
        pool = BufferManager(files, pool_size=2)
        pool.unpin(pool.pin(blocks[0]))
        pool.unpin(pool.pin(blocks[1]))
        pool.unpin(pool.pin(blocks[0]))  # 0 is now most recent
        pool.unpin(pool.pin(blocks[2]))  # evicts 1, not 0
        assert pool.pin(blocks[0]) is not None
        assert pool.stats().hits == 2  # the re-pin of 0 plus this pin

    def test_pinned_buffers_never_evicted_and_pool_exhaustion(self, tmp_path):
        files = FileManager(str(tmp_path), block_size=128)
        blocks = _make_blocks(files, "t.tbl", 3)
        pool = BufferManager(files, pool_size=2)
        pool.pin(blocks[0])
        pool.pin(blocks[1])
        with pytest.raises(StorageError):
            pool.pin(blocks[2])
        assert pool.pinned_count == 2
        assert pool.stats().pinned_peak == 2
        files.close()

    def test_pinned_count_tracks_a_scan_of_the_pool(self, tmp_path):
        """The counter kept on pin transitions reads what counting the pinned
        frames reads, re-pins and evictions included, and so does the peak."""
        import random

        files = FileManager(str(tmp_path), block_size=128)
        blocks = _make_blocks(files, "t.tbl", 12)
        pool = BufferManager(files, pool_size=4)
        rng = random.Random(7)
        held, peak = [], 0
        for _ in range(400):
            scanned = sum(1 for buffer in pool._buffers if buffer.is_pinned)
            if held and (scanned == pool.pool_size or rng.random() < 0.45):
                pool.unpin(held.pop(rng.randrange(len(held))))
            elif rng.random() < 0.1:
                held.append(pool.pin_new("t.tbl"))
            else:
                # Re-pinning a held block exercises the 1→2 non-transition.
                held.append(pool.pin(rng.choice(blocks)))
            scanned = sum(1 for buffer in pool._buffers if buffer.is_pinned)
            peak = max(peak, scanned)
            assert pool.pinned_count == scanned
        assert pool.stats().pinned_peak == peak == pool.pool_size
        files.close()

    def test_dirty_pages_survive_eviction(self, tmp_path):
        files = FileManager(str(tmp_path), block_size=128)
        blocks = _make_blocks(files, "t.tbl", 3)
        pool = BufferManager(files, pool_size=1)
        buffer = pool.pin(blocks[0])
        buffer.page.write_int(0, 7777)
        buffer.mark_dirty()
        pool.unpin(buffer)
        pool.unpin(pool.pin(blocks[1]))  # evicts and writes back block 0
        assert pool.pin(blocks[0]).page.read_int(0) == 7777
        files.close()

    def test_unpin_of_unpinned_raises(self, tmp_path):
        files = FileManager(str(tmp_path), block_size=128)
        blocks = _make_blocks(files, "t.tbl", 1)
        pool = BufferManager(files, pool_size=2)
        buffer = pool.pin(blocks[0])
        pool.unpin(buffer)
        with pytest.raises(StorageError):
            pool.unpin(buffer)
        files.close()

    def test_discard_refuses_pinned_pages(self, tmp_path):
        files = FileManager(str(tmp_path), block_size=128)
        blocks = _make_blocks(files, "t.tbl", 1)
        pool = BufferManager(files, pool_size=2)
        pool.pin(blocks[0])
        with pytest.raises(StorageError):
            pool.discard("t.tbl")
        files.close()

    def test_empty_pool_rejected(self, tmp_path):
        files = FileManager(str(tmp_path), block_size=128)
        with pytest.raises(StorageError):
            BufferManager(files, pool_size=0)
        files.close()


# ---------------------------------------------------------------------------
# Slotted pages and heap files
# ---------------------------------------------------------------------------


class TestSlottedPage:
    def test_insert_and_read_back(self):
        slotted = SlottedPage(Page(128))
        slotted.format()
        first = slotted.insert(b"alpha")
        second = slotted.insert(b"bravo!")
        assert (first, second) == (0, 1)
        assert slotted.entry(0) == (123, 5)
        assert slotted.entry(1) == (117, 6)
        data = slotted.page.data
        assert [data[offset : offset + length] for _, offset, length in slotted.live_slots()] == [
            b"alpha",
            b"bravo!",
        ]

    def test_full_page_rejects_insert(self):
        slotted = SlottedPage(Page(64))
        slotted.format()
        with pytest.raises(StorageError):
            slotted.insert(b"x" * 64)

    def test_bad_slot_raises(self):
        slotted = SlottedPage(Page(64))
        slotted.format()
        with pytest.raises(StorageError):
            slotted.entry(0)


class TestHeapFile:
    def test_many_records_span_blocks(self, tmp_path):
        files = FileManager(str(tmp_path), block_size=256)
        pool = BufferManager(files, pool_size=4)
        heap = HeapFile(pool, Layout("T", SCHEMA, block_size=256))
        rows = [(index, index * 0.5, f"name{index}") for index in range(200)]
        for row in rows:
            heap.append(row)
        assert heap.block_count() > 1
        assert list(heap.records()) == rows
        files.close()

    def test_oversized_record_overflows_and_returns(self, tmp_path):
        files = FileManager(str(tmp_path), block_size=256)
        pool = BufferManager(files, pool_size=4)
        heap = HeapFile(pool, Layout("T", SCHEMA, block_size=256))
        big = (1, 1.0, "x" * 5000)  # far beyond one 256-byte block
        heap.append((0, 0.0, "small"))
        heap.append(big)
        heap.append((2, 2.0, "after"))
        assert list(heap.records()) == [(0, 0.0, "small"), big, (2, 2.0, "after")]
        files.close()

    @pytest.mark.parametrize("slot", [-2, -5])
    def test_a_negative_slot_other_than_the_overflow_marker_is_no_record(self, tmp_path, slot):
        """Only slot ``-1`` names an overflow record: a RID torn to another
        negative slot neither reads nor deletes the record at its block."""
        files = FileManager(str(tmp_path), block_size=256)
        pool = BufferManager(files, pool_size=4)
        heap = HeapFile(pool, Layout("T", SCHEMA, block_size=256))
        big = (1, 1.0, "x" * 5000)
        number, overflow = heap.append(big)
        assert overflow == -1
        with pytest.raises(StorageError, match="RID"):
            heap.fetch((number, slot))
        with pytest.raises(StorageError, match="RID"):
            heap.delete((number, slot))
        assert heap.fetch((number, -1)) == big
        assert list(heap.records()) == [big]
        assert pool.pinned_count == 0
        files.close()

    def test_scan_holds_one_pin_at_a_time(self, tmp_path):
        files = FileManager(str(tmp_path), block_size=256)
        pool = BufferManager(files, pool_size=2)  # smaller than the file
        heap = HeapFile(pool, Layout("T", SCHEMA, block_size=256))
        for index in range(100):
            heap.append((index, float(index), f"name{index}"))
        assert len(list(heap.records())) == 100
        assert pool.pinned_count == 0
        files.close()


#: Values of each column type with a usual encoding: that encoding and the
#: others a column of the type may hold (NULL, an integer past 64 bits, an int
#: in a FLOAT column, a string where an index expects key bytes).
_USUAL_OR_NOT = {
    INTEGER: st.one_of(
        st.integers(-(2**63), 2**63 - 1), st.none(), st.integers(2**63, 2**70), st.just(-(2**63) - 1)
    ),
    FLOAT: st.one_of(st.floats(allow_nan=False), st.none(), st.integers(-5, 5)),
    STRING: st.one_of(st.text(max_size=12), st.just(""), st.just("héllo wörld ✓"), st.none()),
    TIME_SERIES: st.one_of(
        st.lists(st.floats(allow_nan=False), max_size=6).map(TimeSeries), st.none()
    ),
    "BYTES": st.one_of(st.binary(max_size=12), st.none(), st.just("text")),
}
#: Column types with no usual encoding, which the codec hands to the generic
#: one; ``None`` is an index key's, which may be any value an index stores.
_GENERIC_VALUES = {
    BOOLEAN: st.booleans(),
    DATA_OBJECT: st.builds(DataObject, st.integers(0, 500), seed=st.integers(0, 9)),
    None: st.one_of(
        st.integers(-(2**70), 2**70), st.floats(allow_nan=False), st.booleans(), st.text(max_size=8),
        st.binary(max_size=8), st.none(),
    ),
}
#: The entries of index pages: a leaf's, an internal node's and a hash chain's.
_INDEX_ENTRIES = [(None, INTEGER, INTEGER), (None, INTEGER), ("BYTES", INTEGER, INTEGER)]


def _typed(values):
    """Values with their exact types, a series' floats included."""
    return [
        (type(value), value.values, [type(item) for item in value.values])
        if isinstance(value, TimeSeries)
        else (type(value), value)
        for value in values
    ]


@st.composite
def _layout_and_row(draw):
    """Column types as a heap layout or an index page gives them, and a row."""
    types = draw(st.sampled_from(_INDEX_ENTRIES + [None]))
    if types is None:
        heap_types = [INTEGER, FLOAT, STRING, TIME_SERIES]
        types = draw(st.lists(st.sampled_from(heap_types), min_size=1, max_size=6))
        generic = draw(st.none() | st.sampled_from([BOOLEAN, DATA_OBJECT]))
        if generic is not None:
            types.insert(draw(st.integers(0, len(types))), generic)
    values = {**_USUAL_OR_NOT, **_GENERIC_VALUES}
    row = tuple(draw(values[dtype]) for dtype in types)
    return types, row


def _usual(dtype, value):
    """Whether ``value`` is its column type's usual encoding, or its column
    has none and so takes any value."""
    if dtype is INTEGER:
        return type(value) is int and -(2**63) <= value < 2**63
    kinds = {FLOAT: float, STRING: str, TIME_SERIES: TimeSeries, "BYTES": bytes}
    return dtype not in kinds or type(value) is kinds[dtype]


class TestOneRecordCodec:
    """The codec of a column-type tuple writes ``encode_record``'s bytes and
    reads them back as ``decode_record`` does, for heap records and index
    entries alike, and returns None exactly when a tag is not its column's
    usual one."""

    @given(_layout_and_row(), st.integers(0, 5))
    @settings(max_examples=300, deadline=None)
    @example(([INTEGER, FLOAT, STRING, TIME_SERIES], (None, 1.5, "x", TimeSeries([]))), 0)
    @example(([INTEGER, FLOAT], (2**64, 3)), 1)
    @example(([STRING, TIME_SERIES, INTEGER], ("", TimeSeries([]), 7)), 2)
    def test_the_codec_equals_encode_record_and_decode_record(self, layout_and_row, padding):
        types, row = layout_and_row
        names = tuple(getattr(dtype, "name", dtype) for dtype in types)
        codec = record_codec(names)
        if isinstance(types, list):  # a heap layout's columns
            assert Layout("T", Schema.of(*((f"c{i}", t) for i, t in enumerate(types)))).codec is codec
        usual = all(_usual(dtype, value) for dtype, value in zip(types, row))
        record = codec.encode(row)
        assert (record is None) == (not usual)
        assert record is None or record == encode_record(row)
        raw = b"\xee" * padding + encode_record(row) + b"\xee" * 3
        for buffer in (raw, bytearray(raw), memoryview(raw)):
            expected = decode_record(buffer, padding)
            decoded = codec.decode(buffer, padding)
            assert (decoded is None) == (not usual)
            if decoded is not None:
                assert decoded[1] == expected[1]
                assert _typed(decoded[0]) == _typed(expected[0])
            assert _typed(expected[0]) == _typed(row)

    def test_a_type_tuple_has_one_codec(self):
        first = Layout("A", SCHEMA).codec
        assert Layout("B", Schema.of(("X", INTEGER), ("Y", FLOAT), ("Z", STRING))).codec is first
        assert Layout("C", Schema.of(("X", INTEGER))).codec is not first
        assert record_codec((None, "INTEGER", "INTEGER")) is _LEAF_ENTRY


class TestCorruptionIsAnError:
    """A damaged page or file raises StorageError; it never reads as other rows."""

    @pytest.mark.parametrize("delta", [4, 1, -1])
    @pytest.mark.parametrize("price", [0.5, None], ids=["fixed-parts", "generic"])
    def test_a_slot_length_that_disagrees_with_its_record_is_a_torn_record(
        self, tmp_path, delta, price
    ):
        files = FileManager(str(tmp_path), block_size=256)
        pool = BufferManager(files, pool_size=4)
        heap = HeapFile(pool, Layout("T", SCHEMA, block_size=256))
        rows = [(index, price and index * price, f"name{index}") for index in range(3)]
        for row in rows:
            heap.append(row)
        buffer = pool.pin(BlockId(heap.file_name, 0))
        length_field = 8 + 8 * 1 + 4  # slot 1's (offset, length) pair starts at 8 + 8 * 1
        buffer.page.write_int(length_field, buffer.page.read_int(length_field) + delta)
        buffer.mark_dirty()
        pool.unpin(buffer)
        with pytest.raises(StorageError, match="torn record"):
            list(heap.records())
        with pytest.raises(StorageError, match="torn record"):
            heap.fetch((0, 1))
        assert heap.fetch((0, 2)) == rows[2]
        assert pool.pinned_count == 0
        files.close()

    def test_a_file_truncated_behind_an_open_manager_raises(self, tmp_path):
        files = FileManager(str(tmp_path), block_size=128)
        blocks = _make_blocks(files, "t.tbl", 3)
        os.truncate(tmp_path / "t.tbl", 128 + 64)  # one whole block and half the next
        page = Page(128)
        files.read(blocks[0], page)
        for block in blocks[1:]:
            with pytest.raises(StorageError):
                files.read(block, page)
            assert len(page.data) == 128
        files.close()


# ---------------------------------------------------------------------------
# Metadata manager
# ---------------------------------------------------------------------------


class TestMetadataManager:
    def test_schema_and_stats_survive_reopen(self, tmp_path):
        manager = MetadataManager(str(tmp_path))
        manager.create_table("Items", SCHEMA)
        entry = manager.table_entry("Items")
        for index in range(10):
            manager.record_insert(entry, (index % 3, float(index), f"n{index}"))
        manager.flush()

        reopened = MetadataManager(str(tmp_path))
        assert reopened.table_names() == ["Items"]
        assert [c.name for c in reopened.table_entry("items").schema.columns] == [
            "Id",
            "Price",
            "Name",
        ]
        stats = reopened.table_entry("Items").stats
        assert stats.records == 10
        assert stats.distinct_values("Id") == 3
        assert stats.distinct_values("T.Name") == 10

    def test_a_catalog_the_parent_commit_wrote_reloads_and_resaves_byte_for_byte(self, tmp_path):
        """``catalog.json`` is a format (``CATALOG_VERSION`` 1): the fixture was
        written by the PR 23 tree over a churned heap — two tables, a B-tree
        and a hash index with entry counts, histograms after a full refresh,
        a NULL-bearing column, a non-empty free-space map."""
        fixture = os.path.join(os.path.dirname(__file__), "data", "catalog_full.json")
        with open(fixture, "rb") as handle:
            written = handle.read()
        payload = json.loads(written)
        assert payload["version"] == 1 and sorted(payload["tables"]) == ["Empty", "Items"]
        assert {entry["kind"] for entry in payload["indexes"].values()} == {"btree", "hash"}
        assert payload["tables"]["Items"]["free_space"]
        (tmp_path / "catalog.json").write_bytes(written)

        manager = MetadataManager(str(tmp_path))
        assert manager.table_names() == ["Empty", "Items"]
        assert manager.index_names() == ["items_id", "items_name"]
        assert manager.index_state("ITEMS_ID") == (110, False)
        entry = manager.table_entry("items")
        assert entry.free_space == {
            int(block): free for block, free in payload["tables"]["Items"]["free_space"].items()
        }
        assert entry.stats.records == 110
        manager.save()
        assert (tmp_path / "catalog.json").read_bytes() == written

        # The same through every mutator that leaves the content alone.
        manager.set_index_state("items_id", 110, False)
        manager.set_free_space(entry, dict(entry.free_space))
        manager.stat_info(entry, block_count=entry.stats.blocks)
        manager.flush()  # nothing became dirty
        assert (tmp_path / "catalog.json").read_bytes() == written

    def test_dropping_a_table_drops_its_indexes_and_free_space(self, tmp_path):
        fixture = os.path.join(os.path.dirname(__file__), "data", "catalog_full.json")
        with open(fixture, "rb") as handle:
            (tmp_path / "catalog.json").write_bytes(handle.read())
        manager = MetadataManager(str(tmp_path))
        manager.drop_table("items")
        reopened = MetadataManager(str(tmp_path))
        assert reopened.table_names() == ["Empty"] and reopened.index_names() == []
        assert not reopened.has_table("Items")
        with pytest.raises(CatalogError):
            reopened.table_entry("Items")
        with pytest.raises(CatalogError):
            reopened.drop_table("Items")

    def test_unknown_column_defaults_to_record_count(self, tmp_path):
        manager = MetadataManager(str(tmp_path))
        manager.create_table("Items", SCHEMA)
        entry = manager.table_entry("Items")
        for index in range(5):
            manager.record_insert(entry, (index, float(index), "x"))
        assert entry.stats.distinct_values("nosuch") == 5

    def test_replace_resets_statistics(self, tmp_path):
        """Regression: a replaced table must not inherit the old StatInfo."""
        manager = MetadataManager(str(tmp_path))
        manager.create_table("Items", SCHEMA)
        entry = manager.table_entry("Items")
        for index in range(50):
            manager.record_insert(entry, (index, float(index), f"n{index}"))
        assert entry.stats.records == 50
        manager.create_table("Items", SCHEMA, replace=True)
        assert manager.table_entry("Items").stats.records == 0
        assert manager.table_entry("Items").stats.distinct_values("Id") == 0

    def test_scan_trigger_and_refresh(self, tmp_path):
        """The ``refresh_interval``-th (100th) scan since a refresh asks for one."""
        manager = MetadataManager(str(tmp_path))
        manager.create_table("Items", SCHEMA)
        entry = manager.table_entry("Items")
        assert [manager.note_scan(entry) for _ in range(99)] == [False] * 99
        assert manager.note_scan(entry) is True
        rows = [(index, float(index), f"n{index}") for index in range(8)]
        stats = manager.refresh(entry, rows, block_count=2)
        assert stats.records == 8 and stats.blocks == 2
        assert stats.columns["Price"].histogram is not None
        assert manager.note_scan(entry) is False  # counter reset

    def test_duplicate_create_raises(self, tmp_path):
        manager = MetadataManager(str(tmp_path))
        manager.create_table("Items", SCHEMA)
        with pytest.raises(CatalogError):
            manager.create_table("items", SCHEMA)

    def test_corrupt_catalog_raises_storage_error(self, tmp_path):
        manager = MetadataManager(str(tmp_path))
        manager.create_table("Items", SCHEMA)
        with open(manager.catalog_path, "w", encoding="utf-8") as handle:
            handle.write("{broken json")
        with pytest.raises(StorageError):
            MetadataManager(str(tmp_path))

    def test_version_mismatch_raises(self, tmp_path):
        manager = MetadataManager(str(tmp_path))
        manager.create_table("Items", SCHEMA)
        with open(manager.catalog_path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["version"] = 999
        with open(manager.catalog_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        with pytest.raises(StorageError):
            MetadataManager(str(tmp_path))


# ---------------------------------------------------------------------------
# Storage engine
# ---------------------------------------------------------------------------


class TestStorageEngine:
    def test_create_insert_reopen(self, tmp_path):
        directory = str(tmp_path)
        with StorageEngine(directory) as engine:
            storage = engine.create_table("Items", SCHEMA)
            for index in range(20):
                storage.append((index, float(index), f"n{index}"))
        with StorageEngine(directory) as engine:
            storage = engine.open_table("Items")
            assert storage.row_count == 20
            assert storage.read_all()[0] == (0, 0.0, "n0")
            info = storage.stat_info()
            assert info.records_output() == 20
            assert info.blocks_accessed() == storage.block_count() > 0

    def test_drop_table_removes_file_and_catalog(self, tmp_path):
        engine = StorageEngine(str(tmp_path))
        storage = engine.create_table("Items", SCHEMA)
        storage.append((1, 1.0, "x"))
        engine.drop_table("Items")
        assert engine.table_names() == []
        assert not os.path.exists(os.path.join(str(tmp_path), "items.tbl"))
        engine.close()

    def test_scan_trigger_runs_full_refresh(self, tmp_path):
        engine = StorageEngine(str(tmp_path))
        storage = engine.create_table("Items", SCHEMA)
        for index in range(12):
            storage.append((index % 4, float(index), f"n{index}"))
        for _ in range(99):
            storage.scan()
        assert storage.statistics().column("Price").histogram is None
        storage.scan()  # the 100th scan triggers the refresh
        stats = storage.statistics()
        assert stats.row_count == 12
        assert stats.column("Price").histogram is not None
        assert stats.column("Id").distinct_count == 4
        engine.close()

    def test_table_statistics_shape(self, tmp_path):
        engine = StorageEngine(str(tmp_path))
        storage = engine.create_table("Items", SCHEMA)
        for index in range(10):
            storage.append((index, float(index), f"n{index}"))
        stats = storage.statistics()
        assert stats.row_count == 10
        assert stats.average_row_size > 0
        assert stats.column("Id").distinct_count == 10
        engine.close()

    def test_buffer_stats_exposed(self, tmp_path):
        engine = StorageEngine(str(tmp_path))
        storage = engine.create_table("Items", SCHEMA)
        storage.append((1, 1.0, "x"))
        before = engine.buffer_stats()
        storage.read_all()
        delta = engine.buffer_stats().delta(before)
        assert delta.accesses >= 1
        engine.close()
