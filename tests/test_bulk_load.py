"""A batch load is today's row-at-a-time load, done a column at a time.

``Table.insert_many`` checks arity once, validates each column in one pass,
places the heap records in one loop and folds the catalog statistics a
column at a time.  The reference here is the row-at-a-time loop every load
ran before: arity, then each value's validator, then one heap append (every
block tried pinned and unpinned on its own), one statistics fold per value
and each index's insert.  Hypothesis drives both over generated schemas and
rows that mix valid values, NULLs, NaN, ``bool`` in INTEGER, ``int`` in
FLOAT, ``str`` subclasses, wrong arities and bad values; they must store the
same rows, raise the same error after the same prefix and, on a paged table,
leave the same heap, index and catalog bytes, the same statistics and the
same pool misses, evictions, reads and writes.  A sharded table's fragments
must equal per-row sharding, in order.
"""

from __future__ import annotations

import math
import os
import tempfile
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.distribution.sharding import ShardingSpec, hash_shard_of, shard_table
from repro.errors import SchemaError, TypeMismatchError
from repro.relational.schema import Column, Schema
from repro.relational.table import Table
from repro.relational.types import (
    BUILTIN_TYPES,
    BOOLEAN,
    DATA_OBJECT,
    FLOAT,
    INTEGER,
    STRING,
    TIME_SERIES,
    DataObject,
    TimeSeries,
)
from repro.storage.engine import StorageEngine
from repro.storage.metadata import _DISTINCT_SAMPLE_CAP, ColumnStatInfo
from repro.storage.page import BlockId, encode_record
from repro.storage.record import _HEADER, _HEADER_BYTES, _SLOT, _SLOT_BYTES, SlottedPage
from repro.workloads.stock import StockWorkload


class Label(str):
    """A ``str`` subclass: valid in STRING, but not of its exact type."""


# -- the reference: the row-at-a-time load -------------------------------------------


def reference_insert_many(table, rows):
    for values in rows:
        columns = table.schema.columns
        if len(values) != len(columns):
            raise SchemaError(
                f"table {table.name!r} expects {len(columns)} values, got {len(values)}"
            )
        for column, value in zip(columns, values):
            if value is not None and not column.dtype.validator(value):
                inner = TypeMismatchError(
                    f"value {value!r} ({type(value).__name__}) is not a valid {column.dtype.name}"
                )
                raise TypeMismatchError(f"column {column.qualified_name!r}: {inner}") from inner
        values = tuple(values)
        if table.storage is not None:
            _reference_storage_append(table.storage, values)
        else:
            table._rows.append(values)
        table._statistics = None
        table._batch = None


def _reference_storage_append(storage, values):
    rid = _reference_heap_append(storage.heap, values)
    storage.row_count += 1
    storage._statistics = None
    stats = storage.entry.stats
    stats.records += 1
    for column, value in zip(storage.entry.schema.columns, values):
        info = stats.columns.get(column.name)
        if info is None:
            info = stats.columns[column.name] = ColumnStatInfo(column.name)
        _reference_observe(info, value)
    storage.catalog._dirty = True
    for handle, position in storage.indexes_by_position:
        handle.insert(values[position], rid)
        storage.catalog.set_index_state(
            handle.definition.name, handle.entry_count, handle.incomplete
        )


def _reference_heap_append(heap, values):
    record = heap.layout.codec.encode(values) or encode_record(values)
    if len(record) > heap.layout.max_inline_record():
        return heap._append_overflow(record)
    for number in sorted(heap.holes):
        if heap.holes[number] >= len(record) + _SLOT_BYTES:
            rid = _reference_insert_into(heap, number, record)
            if rid is not None:
                return rid
    blocks = heap.block_count()
    if blocks and (blocks - 1) not in heap.holes:
        rid = _reference_insert_into(heap, blocks - 1, record)
        if rid is not None:
            return rid
    buffer = heap.buffers.pin_new(heap.file_name)
    try:
        slotted = SlottedPage(buffer.page)
        slotted.format()
        slot = _reference_page_insert(slotted, record)
        buffer.mark_dirty()
        return (buffer.block.number, slot)
    finally:
        heap.buffers.unpin(buffer)


def _reference_insert_into(heap, number, record):
    buffer = heap.buffers.pin(BlockId(heap.file_name, number))
    try:
        slotted = SlottedPage(buffer.page)
        if slotted.slot_count < 0 or not _reference_has_room(slotted, len(record)):
            return None
        slot = _reference_page_insert(slotted, record)
        buffer.mark_dirty()
        heap._note_free_space(number, slotted.free_space)
        return (number, slot)
    finally:
        heap.buffers.unpin(buffer)


def _reference_has_room(slotted, length):
    """Whether a page takes a record of ``length`` bytes: a tombstoned slot
    is reused, else the record needs a new one."""
    tombstone = -1 in slotted.directory()[1::2]
    return slotted.free_space >= length + (0 if tombstone else _SLOT_BYTES)


def _reference_page_insert(slotted, record):
    """One record into the lowest tombstoned slot, else a new one."""
    lengths = slotted.directory()[1::2]
    slot_count, free_end = _HEADER.unpack_from(slotted.page.data)
    slot = lengths.index(-1) if -1 in lengths else slot_count
    offset = free_end - len(record)
    slotted.page.write_bytes(offset, record)
    _SLOT.pack_into(slotted.page.data, _HEADER_BYTES + _SLOT_BYTES * slot, offset, len(record))
    _HEADER.pack_into(slotted.page.data, 0, max(slot_count, slot + 1), offset)
    return slot


def _reference_observe(info, value):
    from repro.relational.types import value_size

    info.total_size += value_size(value)
    if value is None:
        info.null_count += 1
        return
    if len(info._sample) < _DISTINCT_SAMPLE_CAP:
        try:
            info._sample.add(hash(value))
        except TypeError:
            pass
    try:
        if info.minimum is None or value < info.minimum:
            info.minimum = value
        if info.maximum is None or value > info.maximum:
            info.maximum = value
    except TypeError:
        info.minimum = None
        info.maximum = None
    if info.histogram is not None:
        info.histogram.add(value)


# -- generated schemas and rows ------------------------------------------------------

_VALID = {
    INTEGER: st.integers(-(2**40), 2**40),
    FLOAT: st.one_of(
        st.floats(-1e6, 1e6),
        st.just(math.nan),
        st.integers(-1000, 1000),  # an int is a valid FLOAT
    ),
    BOOLEAN: st.booleans(),
    STRING: st.one_of(st.text(max_size=6), st.text(max_size=6).map(Label)),
    DATA_OBJECT: st.builds(DataObject, st.integers(0, 64), st.integers(0, 5)),
    TIME_SERIES: st.lists(st.floats(-100, 100), max_size=4).map(TimeSeries),
}
_INVALID = {
    INTEGER: st.one_of(st.booleans(), st.floats(-5, 5), st.text(max_size=2)),
    FLOAT: st.one_of(st.booleans(), st.text(max_size=2)),
    BOOLEAN: st.one_of(st.integers(0, 1), st.text(max_size=2)),
    STRING: st.one_of(st.integers(0, 9), st.builds(DataObject, st.integers(0, 4))),
    DATA_OBJECT: st.one_of(st.text(max_size=2), st.integers(0, 9)),
    TIME_SERIES: st.one_of(st.lists(st.floats(0, 1), max_size=2), st.text(max_size=2)),
}
_TYPES = list(_VALID)


@st.composite
def _rows(draw, types, max_size=30, bad=True):
    """Rows for ``types``, about a quarter of the values NULL; with ``bad``,
    up to two invalid values and one row of the wrong arity at drawn
    positions."""
    values = [st.one_of(st.none(), _VALID[dtype], _VALID[dtype], _VALID[dtype]) for dtype in types]
    rows = [[draw(value) for value in values] for _ in range(draw(st.integers(0, max_size)))]
    if bad and rows:
        for _ in range(draw(st.integers(0, 2))):
            row, column = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(types) - 1))
            rows[row][column] = draw(_INVALID[types[column]])
        if draw(st.booleans()):
            row = draw(st.integers(0, len(rows) - 1))
            rows[row] = rows[row][:-1] if draw(st.booleans()) else rows[row] + [None]
    tuples = draw(st.booleans())  # else lists: rows arrive as either
    return [tuple(row) if tuples else row for row in rows]


@st.composite
def _schema_and_rows(draw, leading=(), bad=True):
    types = list(leading) + draw(st.lists(st.sampled_from(_TYPES), min_size=1, max_size=4))
    schema = Schema(Column(f"c{index}", dtype) for index, dtype in enumerate(types))
    return schema, draw(_rows(types, bad=bad))


def _outcome(load, table, rows):
    """``None`` or the error ``load`` raised, as comparable text."""
    try:
        load(table, rows)
    except (SchemaError, TypeMismatchError) as exc:
        cause = exc.__cause__
        return (type(exc).__name__, str(exc), type(cause).__name__, str(cause))
    return None


def _batch(table, rows):
    table.insert_many(rows)


def _same_rows(left, right):
    """Row lists equal value for value, a NaN equal to a NaN."""
    return repr(left) == repr(right) and all(
        a == b or (a != a and b != b) for row_a, row_b in zip(left, right) for a, b in zip(row_a, row_b)
    )


# -- in memory -----------------------------------------------------------------------


@given(_schema_and_rows())
@settings(max_examples=150, deadline=None)
def test_an_in_memory_batch_load_matches_the_row_at_a_time_load(case):
    schema, rows = case
    batch, reference = Table("T", schema), Table("T", schema)
    assert _outcome(_batch, batch, rows) == _outcome(reference_insert_many, reference, rows)
    assert _same_rows(batch.rows, reference.rows)
    assert all(type(row) is tuple for row in batch.rows)


def test_the_first_failure_in_row_major_order_wins_and_its_prefix_stays():
    schema = Schema([Column("A", INTEGER), Column("B", STRING), Column("C", FLOAT)])
    rows = [(1, "a", 1.0), (2, "b", 2), (3, 7, True), (4, "d", "x"), (5,)]
    table = Table("T", schema)
    with pytest.raises(TypeMismatchError) as caught:
        table.insert_many(rows)
    # Row 2 is the first bad row; B is its first bad column, not C.
    assert str(caught.value) == "column 'T.B': value 7 (int) is not a valid STRING"
    assert isinstance(caught.value.__cause__, TypeMismatchError)
    assert table.rows == rows[:2]
    with pytest.raises(SchemaError, match="^table 'U' expects 3 values, got 2$"):
        Table("U", schema).insert_many([(1, "a", 1.0), (2, "b")])


# -- the validation budget ----------------------------------------------------------


@pytest.fixture
def validator_calls():
    """Calls of each built-in type's ``validator``, by type name."""
    calls = Counter()
    originals = [(dtype, dtype.validator) for dtype in BUILTIN_TYPES.values()]
    for dtype, original in originals:

        def counted(value, _original=original, _name=dtype.name):
            calls[_name] += 1
            return _original(value)

        object.__setattr__(dtype, "validator", counted)  # a frozen dataclass
    try:
        yield calls
    finally:
        for dtype, original in originals:
            object.__setattr__(dtype, "validator", original)


def test_a_homogeneous_load_calls_no_validator_in_memory_or_sharded(validator_calls):
    """10,000 rows whose columns each hold one exact built-in type (and
    NULLs) are validated from each column's set of types alone."""
    schema = Schema(Column(f"c{index}", dtype) for index, dtype in enumerate(_TYPES))
    rows = [
        (
            index,
            index * 0.5 if index % 3 else index,  # an int in FLOAT is exact too
            index % 2 == 0,
            f"name{index % 97}" if index % 11 else None,
            DataObject(16, index),
            TimeSeries([float(index)] * 3),
        )
        for index in range(10_000)
    ]
    table = Table("T", schema, rows=rows)
    sharded = shard_table(table, ShardingSpec(table="T", column="c0", shards=4))
    assert len(table) == sharded.total_rows() == 10_000
    assert sum(validator_calls.values()) == 0
    # A column of a subclass goes value by value, which the wrappers count.
    table.insert_many([(1, 1.0, True, Label("x"), None, None)] * 3)
    assert validator_calls == {"STRING": 3}


def test_a_stock_load_calls_no_validator(validator_calls):
    """The stock workload's two tables (names, numbers, time series and
    data objects) load with no per-value validator call."""
    db = StockWorkload(company_count=400, seed=1999).build()
    assert len(db.catalog.table("StockQuotes")) == 400
    assert sum(validator_calls.values()) == 0


# -- the statistics fold ------------------------------------------------------------


def _fold_state(info):
    return (
        info.null_count,
        info.total_size,
        repr(info.minimum),
        repr(info.maximum),
        sorted(info._sample),
        info.histogram and info.histogram.to_dict(),
    )


@given(
    st.lists(
        st.one_of(
            st.none(),
            st.integers(-5, 5),
            st.floats(allow_nan=True, allow_infinity=True),
            st.text(max_size=2),
            st.lists(st.integers(0, 2), max_size=2),  # unhashable
        ),
        max_size=40,
    ),
    st.lists(st.floats(-100, 100), max_size=20),
    st.floats(0, 1e4),
    st.integers(0, 12),
    st.integers(1, 8),
)
@example([1.5, 2.5, None, 3.5, 4.5], [], 0.0, 2, 5)  # past the cap inside one column
@example([3, 1, "a", 2, 0.5, math.nan, 0.25], [1.0, 9.0], 0.0, 12, 3)  # str < int raises
@example([1.5, "a" * 33, "b" * 33], [], 5.654082778630842, 12, 3)  # 8 + 37 + 37 rounds apart
@settings(max_examples=200, deadline=None)
def test_a_column_fold_matches_the_value_at_a_time_fold(values, refreshed, total, room, chunk):
    """Incomparable and unhashable values, NaN, a histogram from a refresh,
    a fractional running size total (a refresh leaves average × count) and
    a distinct sample ``room`` short of its cap, folded ``chunk`` values at a
    time and one value at a time."""
    batch, reference = ColumnStatInfo("c"), ColumnStatInfo("c")
    for info in (batch, reference):
        if refreshed:
            info.reset_from_values(refreshed)
        info.total_size = total
        info._sample = set(range(-_DISTINCT_SAMPLE_CAP, -room))
    for start in range(0, len(values), chunk):
        batch.observe_many(values[start : start + chunk])
    for value in values:
        _reference_observe(reference, value)
    assert _fold_state(batch) == _fold_state(reference)


# -- paged ---------------------------------------------------------------------------


def _paged_pair(schema, indexed):
    """A batch-loaded and a reference table, each in its own directory."""
    pair = []
    for _ in range(2):
        directory = tempfile.mkdtemp(prefix="bulk_load_")
        # Few frames: a heap load that held two pages at once, or an index
        # insert that found the heap block still pinned, runs out of them
        # or evicts another victim.
        engine = StorageEngine(directory, block_size=1024, pool_size=3 if indexed else 1)
        storage = engine.create_table("T", schema)
        if indexed:
            engine.create_index("t_key", "T", "c0", kind="btree")
            engine.create_index("t_name", "T", "c1", kind="hash")
        pair.append((directory, engine, Table("T", schema, storage=storage)))
    return pair


def _files(directory):
    contents = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            contents[name] = handle.read()
    return contents


def _statistics(storage):
    info = storage.stat_info()
    return (info.blocks, info.records) + tuple(
        (
            name,
            column.null_count,
            column.total_size,
            repr(column.minimum),
            repr(column.maximum),
            sorted(column._sample),
            column.histogram and column.histogram.to_dict(),
        )
        for name, column in info.columns.items()
    )


def _pool(engine):
    """Every pool counter but hits, and the LRU order of the unpinned pages."""
    stats, files = engine.buffer_stats(), engine.files
    lru = list(engine.buffers._lru)
    return stats.misses, stats.evictions, files.blocks_read, files.blocks_written, lru


def _check_paged(schema, setup, rows, indexed):
    (left_dir, left, batch), (right_dir, right, reference) = _paged_pair(schema, indexed)
    try:
        for table, load in ((batch, _batch), (reference, reference_insert_many)):
            for step in setup:
                if callable(step):
                    table.delete(step)
                else:
                    load(table, step)
        outcomes = [_outcome(_batch, batch, rows), _outcome(reference_insert_many, reference, rows)]
        assert outcomes[0] == outcomes[1]
        assert _same_rows(batch.rows, reference.rows)
        assert _statistics(batch.storage) == _statistics(reference.storage)
        assert batch.storage.heap.holes == reference.storage.heap.holes
        assert _pool(left) == _pool(right)
        assert left.buffer_stats().hits <= right.buffer_stats().hits
        left.flush()
        right.flush()
        assert _files(left_dir) == _files(right_dir)
    finally:
        for directory, engine in ((left_dir, left), (right_dir, right)):
            engine.close()
            for name in os.listdir(directory):
                os.remove(os.path.join(directory, name))
            os.rmdir(directory)


_long_text = st.text(alphabet="abc", min_size=1010, max_size=1500)  # overflows a 1 KiB block


@given(_schema_and_rows(leading=(STRING,)), _long_text, st.integers(2, 9))
@settings(max_examples=40, deadline=None)
def test_a_paged_batch_load_without_indexes_stores_the_same_bytes(case, long_text, every):
    schema, rows = case
    rows = [
        (long_text,) + tuple(row[1:]) if index % every == 0 else row
        for index, row in enumerate(rows)
    ]
    setup = [[(long_text,) + (None,) * (len(schema) - 1)]]
    _check_paged(schema, setup, rows, indexed=False)


@given(_schema_and_rows(leading=(INTEGER, STRING)))
@settings(max_examples=30, deadline=None)
def test_a_paged_batch_load_with_open_indexes_stores_the_same_bytes(case):
    schema, rows = case
    _check_paged(schema, [], rows, indexed=True)


@given(
    _schema_and_rows(leading=(INTEGER,), bad=False),
    st.integers(2, 5),
    st.data(),
)
@settings(max_examples=30, deadline=None)
def test_a_paged_batch_load_fills_the_holes_a_delete_left_alike(case, modulus, data):
    schema, initial = case
    types = [column.dtype for column in schema.columns]
    keyed = [(index,) + tuple(row[1:]) for index, row in enumerate(initial * 3)]
    rows = data.draw(_rows(types, max_size=40))
    setup = [keyed, lambda values: values[0] % modulus == 0]
    _check_paged(schema, setup, rows, indexed=False)


# -- sharded -------------------------------------------------------------------------


def _reference_shards(table, spec):
    position = table.schema.index_of(spec.column)
    fragments = [Table(table.name, table.schema) for _ in range(spec.shards)]
    for row in table.rows:
        shard = hash_shard_of(row[position], spec.shards)
        reference_insert_many(fragments[shard], [list(row)])
    return fragments


@given(
    st.lists(st.tuples(st.integers(-50, 50), st.text(max_size=3)), max_size=60),
    st.integers(1, 5),
)
@settings(max_examples=60, deadline=None)
def test_sharded_fragments_equal_per_row_sharding_in_order(rows, shards):
    table = Table("T", Schema([Column("K", INTEGER), Column("S", STRING)]), rows=rows)
    spec = ShardingSpec(table="T", column="K", shards=shards)
    fragments = shard_table(table, spec).fragments
    expected = _reference_shards(table, spec)
    assert [fragment.rows for fragment in fragments] == [f.rows for f in expected]
    assert all(fragment.schema == table.schema for fragment in fragments)
