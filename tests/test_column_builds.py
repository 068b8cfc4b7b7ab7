"""Index builds and ANALYZE work a column at a time, as value at a time did.

An index build reads its key column through the projection of the layout's
record codec and sorts, hashes and encodes that column by its set of key
types; ``ANALYZE`` folds each column's statistics and histogram in a pass per
statistic.  The references here are the value-at-a-time code they replace:
a key-by-key ``bulk_load`` over a full scan, and statistics and histograms
folded one value at a time (the histogram skipping exactly what
``Histogram.add`` skips, an int past float range included).  Hypothesis
drives both over columns that mix NULLs, NaN, infinities, signed zeros,
``bool`` in numeric columns, ints past float range, unorderable and
unhashable values, time series and data objects: they must give equal
statistics, byte-identical index files and, on torn records, the same
``StorageError``.
"""

from __future__ import annotations

import json
import math
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.relational.schema import Schema
from repro.relational.statistics import Histogram, compute_column_statistics
from repro.relational.types import (
    FLOAT,
    INTEGER,
    STRING,
    TIME_SERIES,
    DataObject,
    TimeSeries,
    value_size,
)
from repro.server.engine import Database
from repro.storage.buffer import BufferManager
from repro.storage.engine import StorageEngine
from repro.storage.file import FileManager
from repro.storage.index import (
    IndexDefinition,
    _chain_entry,
    _posting_order,
    open_index,
    sort_key,
)
from repro.storage.metadata import ColumnStatInfo
from repro.storage.page import BlockId
from repro.storage.record import HeapFile, Layout, SlottedPage

# -- the references: value at a time ---------------------------------------------------


def reference_histogram(values, buckets=8):
    numeric = []
    for value in values:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        try:
            value = float(value)
        except OverflowError:  # skipped, as Histogram.add skips it
            continue
        if not math.isfinite(value):
            continue
        # Histogram.add refuses to widen past float range: a value that
        # would stretch the span of those kept before it that far is skipped.
        if numeric and not math.isfinite(max(high, value) - min(low, value)):
            continue
        numeric.append(value)
        low, high = min(numeric), max(numeric)
    if not numeric:
        return None
    low, high = min(numeric), max(numeric)
    if high <= low:
        return Histogram(low=low, high=high, counts=[len(numeric)])
    histogram = Histogram(low=low, high=high, counts=[0] * max(1, buckets))
    for value in numeric:
        histogram.add(value)
    return histogram


def reference_column_statistics(name, values):
    distinct, nulls, total_size, count = set(), 0, 0, 0
    minimum = maximum = None
    for value in values:
        count += 1
        total_size += value_size(value)
        if value is None:
            nulls += 1
            continue
        distinct.add(value)
        try:
            if minimum is None or value < minimum:
                minimum = value
            if maximum is None or value > maximum:
                maximum = value
        except TypeError:
            minimum = maximum = None
    return (name, len(distinct), nulls, (total_size / count) if count else 0.0, minimum, maximum)


def reference_btree_bulk_load(handle, pairs):
    entries, incomplete = [], False
    for key, rid in pairs:
        if key is None:
            continue
        try:
            sort_key(key)
        except TypeError:
            incomplete = True
            continue
        entries.append((key, rid[0], rid[1]))
    entries.sort(key=_posting_order)
    handle.delete_file()
    handle._build(entries, incomplete)


def reference_hash_bulk_load(handle, pairs):
    chains, incomplete = [[] for _ in range(handle.buckets)], False
    for key, rid in pairs:
        if key is None:
            continue
        key_bytes = handle._encode_key(key)
        if key_bytes is None:
            incomplete = True
            continue
        chains[handle._bucket_block(key_bytes) - 1].append(
            _chain_entry(key_bytes, rid[0], rid[1])
        )
    handle.delete_file()
    handle._build(chains, incomplete)


# -- generated columns -----------------------------------------------------------------

_FLOATS = st.one_of(
    st.floats(-1e6, 1e6),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e308, -1e308, 5e-324]),
)
_INTS = st.one_of(
    st.integers(-50, 50), st.integers(-(2**70), 2**70), st.sampled_from([10**400, -(10**400)])
)
_SERIES = st.lists(st.sampled_from([0.0, 1.5, -2.0, math.nan]), max_size=3).map(TimeSeries)
_OBJECTS = st.builds(DataObject, st.integers(0, 9), st.integers(-3, 3))
#: One column's values: mostly one kind, as a typed column holds, else a mix.
_KINDS = [
    _INTS,
    _FLOATS,
    st.one_of(_INTS, _FLOATS, st.booleans()),
    st.text(max_size=3),
    _SERIES,
    _OBJECTS,
    st.one_of(_INTS, _FLOATS, st.booleans(), st.text(max_size=2), _SERIES, _OBJECTS),
]


@st.composite
def _column(draw, unhashable=False):
    kind = draw(st.sampled_from(_KINDS))
    value = st.one_of(st.none(), kind, kind, kind)
    if unhashable:
        value = st.one_of(value, st.lists(st.integers(0, 2), max_size=2))
    return draw(st.lists(value, max_size=40))


def _same(left, right):
    """Equal, a NaN equal to a NaN and -0.0 told from 0.0 (by repr)."""
    return repr(left) == repr(right)


def _outcome(function, *args):
    """What ``function(*args)`` returns, or the type and text of what it raises."""
    try:
        return function(*args)
    except TypeError as exc:  # unhashable
        return (type(exc).__name__, str(exc))


def _statistics_fields(statistics):
    if isinstance(statistics, tuple) and len(statistics) == 2:  # an error
        return statistics
    return (
        statistics.name,
        statistics.distinct_count,
        statistics.null_count,
        statistics.average_size,
        statistics.minimum,
        statistics.maximum,
    )


@given(_column(unhashable=True))
@example([1, 2.5, 10**400, None, True, math.nan, -0.0, 0.0])
@example([0.0, -0.0, 1e308, -1e308 / 2])  # -0.0 after 0.0: the first of equals is kept
@example([1.0, 1e308, -1e308, 5.0])  # -1e308 would widen the span past float range
@example([TimeSeries([1.0]), None, TimeSeries([math.nan]), TimeSeries([])])
@example([DataObject(1, 2), DataObject(1, 1), "a", 3])  # unorderable: both ends reset
@example([3, [1], 4])  # unhashable
@settings(max_examples=300, deadline=None)
def test_column_statistics_match_the_value_at_a_time_fold(values):
    batch = _outcome(compute_column_statistics, "c", values)
    reference = _outcome(reference_column_statistics, "c", values)
    assert _same(_statistics_fields(batch), reference)
    assert _same(
        _outcome(lambda: (Histogram.build(values) or Histogram(0, 0, [])).to_dict()),
        _outcome(lambda: (reference_histogram(values) or Histogram(0, 0, [])).to_dict()),
    )


@given(_column())
@settings(max_examples=100, deadline=None)
def test_a_refreshed_catalog_column_matches_the_value_at_a_time_refresh(values):
    """What ``ANALYZE`` stores for a column: ``catalog.json``'s entry, and the
    statistics the optimizer reads."""

    def batch():
        info = ColumnStatInfo("c")
        info.reset_from_values(values)
        return info

    def reference():
        info = ColumnStatInfo("c")
        _, distinct, nulls, average, minimum, maximum = reference_column_statistics("c", values)
        info.distinct_base, info.null_count = distinct, nulls
        info.total_size = average * len(values)
        info.minimum, info.maximum = minimum, maximum
        info.histogram = reference_histogram(values)
        return info

    records = len(values)
    refreshed = [refresh() for refresh in (batch, reference)]
    assert json.dumps(refreshed[0].to_dict(records)) == json.dumps(refreshed[1].to_dict(records))
    assert _same(*(vars(info.to_column_statistics(records)) for info in refreshed))


def test_a_histogram_skips_an_int_past_float_range():
    """``float(10**400)`` overflows: ``add`` skips such a value, and so does
    ``build`` instead of raising ``OverflowError``."""
    expected = Histogram.build([1, 2]).to_dict()
    assert Histogram.build([10**400, 1, 2, -(10**400)]).to_dict() == expected
    assert Histogram.build([10**400]) is None


def test_a_histogram_never_spans_past_float_range():
    """``add`` refuses to widen to a non-finite span; ``build`` skips, in
    column order, each value that would stretch the span that far."""
    assert Histogram.build([1e308, -1e308]).to_dict() == Histogram.build([1e308]).to_dict()
    histogram = Histogram.build([1.0, 1e308, -1e308, 5.0])
    assert (histogram.low, histogram.high, histogram.total) == (1.0, 1e308, 3)
    assert not histogram.add(-1e308)
    for values in ([-1e308, 1e308], [0.0, -1e308, 1e308, 2.0]):
        histogram = Histogram.build(values)
        assert math.isfinite(histogram.high - histogram.low)


def test_analyze_over_a_paged_table_spanning_past_float_range(tmp_path):
    db = Database(storage_dir=str(tmp_path))
    db.create_table("T", [("V", FLOAT)], rows=[[1e308], [-1e308], [None], [2.0]])
    db.analyze("T")
    column = db.catalog.table("T").statistics.columns["V"]
    assert (column.minimum, column.maximum) == (-1e308, 1e308)
    assert column.histogram.to_dict() == Histogram.build([1e308, 2.0]).to_dict()
    db.close()


def test_analyze_over_a_paged_table_with_an_int_past_float_range(tmp_path):
    db = Database(storage_dir=str(tmp_path))
    db.create_table("T", [("K", INTEGER)], rows=[[10**400], [1], [2], [None]])
    db.analyze("T")
    column = db.catalog.table("T").statistics.columns["K"]
    assert (column.minimum, column.maximum) == (1, 10**400)
    assert (column.distinct_count, column.null_count) == (3, 1)
    assert column.histogram.to_dict() == Histogram.build([1, 2]).to_dict()
    db.close()


# -- index builds ----------------------------------------------------------------------

_KEY_SCHEMA = Schema.of(("K", FLOAT), ("S", STRING), ("P", TIME_SERIES))
_REFERENCE_BUILDS = (("btree", reference_btree_bulk_load), ("hash", reference_hash_bulk_load))


def _files(directory):
    contents = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            contents[name] = handle.read()
    return contents


@given(_column(), st.integers(0, 3))
@example([1.5, None, math.nan, 2.5, math.nan, 1.5], 0)
@example([3, True, 2.0, 10**400, "a", DataObject(1, 1)], 1)
@example([5, 3, 5, 10**400, -(2**63)], 2)
@settings(max_examples=60, deadline=None)
def test_an_index_build_from_its_key_column_stores_the_same_bytes(tmp_path_factory, keys, fill):
    """Each key column in a table with a string and a time series, built into
    a B-tree and a hash index from the projected scan and from the full scan
    key by key: the index files, heap and catalog are byte-identical."""
    directories = []
    for build in ("column", "reference"):
        directory = str(tmp_path_factory.mktemp(build))
        engine = StorageEngine(directory, block_size=512, pool_size=4)
        storage = engine.create_table("T", _KEY_SCHEMA)
        storage.append_many(
            [
                (key, "é" * fill + str(index), TimeSeries([float(index)] * fill))
                for index, key in enumerate(keys)
            ]
        )
        for kind, reference in _REFERENCE_BUILDS:
            definition = IndexDefinition(f"t_{kind}", "T", "K", kind)
            engine.metadata.create_index(definition)
            handle = open_index(engine.buffers, definition)
            if build == "column":
                engine._build_index(handle, storage)
            else:
                reference(handle, [(values[0], rid) for rid, values in storage.rows_with_rids()])
                state = (handle.entry_count, handle.incomplete)
                engine.metadata.set_index_state(definition.name, *state)
        engine.close()
        directories.append(directory)
    assert _files(directories[0]) == _files(directories[1])


@given(_column(), st.randoms(use_true_random=False))
@example([2.0, 1.0, 2.0, 2.0, math.nan, 1.0], None)
@settings(max_examples=80, deadline=None)
def test_a_bulk_load_in_any_posting_order_stores_the_same_bytes(tmp_path_factory, keys, random):
    """Postings in a drawn order, equal keys included: the native sort's
    tie-break by ``(block, slot)`` is the one ``_posting_order`` makes."""
    pairs = [(key, (index // 3, index % 3)) for index, key in enumerate(keys)]
    if random is not None:
        random.shuffle(pairs)
    else:
        pairs.reverse()
    files = []
    for build in ("column", "reference"):
        directory = str(tmp_path_factory.mktemp(build))
        pool = BufferManager(FileManager(directory, block_size=512), pool_size=4)
        for kind, reference in _REFERENCE_BUILDS:
            handle = open_index(pool, IndexDefinition(f"t_{kind}", "T", "K", kind))
            if build == "column":
                handle.bulk_load(iter(pairs))
            else:
                reference(handle, pairs)
        pool.close()
        pool.file_manager.close()
        files.append(_files(directory))
    assert files[0] == files[1]


# -- the projected scan on torn records -------------------------------------------------

_HEAP_SCHEMA = Schema.of(
    ("Id", INTEGER), ("Price", FLOAT), ("Name", STRING), ("Series", TIME_SERIES)
)


def _scan(heap, column=None):
    """The scan's ``(rid, values)`` list, or the text of the ``StorageError``
    it raised.  A flipped tag can make a DATA_OBJECT of a seed that is not an
    int (a NULL, a float): a torn record too."""
    try:
        return list(heap.records_with_rids() if column is None else heap.records_with_rids(column))
    except StorageError as exc:
        return f"{type(exc).__name__}: {exc}"


def _heap(directory, rows):
    """A heap of ``rows`` on 512-byte blocks behind a four-page pool."""
    files = FileManager(str(directory), block_size=512)
    heap = HeapFile(BufferManager(files, pool_size=4), Layout("T", _HEAP_SCHEMA, block_size=512))
    heap.append_many(rows, [])
    return heap


def _check_projections(heap):
    full = _scan(heap)
    for column in range(len(_HEAP_SCHEMA)):
        projected = _scan(heap, column)
        if isinstance(full, str):
            assert projected == full, column
        else:
            assert _same(projected, [(rid, values[column]) for rid, values in full])


@given(
    st.integers(0, 11),
    st.integers(0, 200),
    st.sampled_from([0x01, 0x40, 0x80, 0xFF]),
    st.booleans(),
)
@example(row=4, at=29, mask=0x01, length=False)  # a DATA_OBJECT tag over a NULL seed
@settings(max_examples=150, deadline=None)
def test_a_projected_scan_raises_the_full_scans_error_on_a_torn_record(
    tmp_path_factory, row, at, mask, length
):
    """A flipped byte in one record, or in its slot's length: every
    projection yields the full scan's column or raises its error."""
    rows = [
        (index, index * 0.5, "n" * (index % 4) + "é", TimeSeries([float(index)] * (index % 5)))
        for index in range(12)
    ] + [(12, None, "x" * 600, TimeSeries([1.0] * 3))]  # a NULL, and an overflow record
    heap = _heap(tmp_path_factory.mktemp("torn"), rows)
    number, slot = [rid for rid, _ in heap.records_with_rids()][row]
    buffer = heap.buffers.pin(BlockId(heap.file_name, number))
    offset, stored = SlottedPage(buffer.page).entry(slot)
    if length:
        buffer.page.write_int(12 + 8 * slot, stored + (at % 9) - 4)
    else:
        buffer.page.data[offset + at % stored] ^= mask
    heap.buffers.unpin(buffer)
    _check_projections(heap)
    heap.buffers.file_manager.close()


def test_bad_utf8_in_a_skipped_string_and_a_short_series_are_torn(tmp_path):
    rows = [(index, 1.5, "name", TimeSeries([2.0] * 4)) for index in range(3)]
    heap = _heap(tmp_path, rows)
    number, slot = [rid for rid, _ in heap.records_with_rids()][2]  # the lowest on its page
    buffer = heap.buffers.pin(BlockId(heap.file_name, number))
    offset, stored = SlottedPage(buffer.page).entry(slot)
    data = buffer.page.data
    name = data.index(b"name", offset)
    data[name] = 0xFF  # not UTF-8
    heap.buffers.unpin(buffer)
    message = _scan(heap)
    assert message.startswith("StorageError: torn record (0, 2)") and "no record" in message
    assert [_scan(heap, column) for column in range(4)] == [message] * 4
    data[name] = ord("n")
    count = data.index(bytes((9,)), name) + 1  # the series' tag, then its length
    data[count : count + 4] = (5).to_bytes(4, "big")  # one point more than stored
    message = _scan(heap)
    assert "torn record (0, 2)" in message and "a record of" in message
    assert [_scan(heap, column) for column in range(4)] == [message] * 4
    data[count : count + 4] = (10**6).to_bytes(4, "big")  # past the page
    message = _scan(heap)
    assert "no record" in message
    assert [_scan(heap, column) for column in range(4)] == [message] * 4
    heap.buffers.file_manager.close()
