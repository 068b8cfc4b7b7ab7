"""Slotted record pages and heap files over the buffer pool.

Each heap-file block starts with a 4-byte type header:

* ``slot_count >= 0`` — a slotted page: ``free_end`` at offset 4, then a
  slot directory of ``(offset, length)`` int32 pairs growing upward from
  offset 8, with record bytes growing downward from the end of the block;
* ``-1`` — the head of an overflow chain holding one record too large for
  a slotted page: total payload length at offset 4, payload from offset 8,
  continuing into ``-2`` blocks;
* ``-2`` — an overflow continuation: payload from offset 4.

Records themselves are the self-describing byte strings produced by
:func:`repro.storage.page.encode_record`, so a heap file can hold any value
the in-memory tables can.

Every record has a stable RID ``(block_number, slot)``; an overflow record's
RID is ``(head_block, -1)``.  Deleting a record tombstones its slot (length
``-1``) and compacts the page in place, keeping slot numbers stable so index
postings stay valid; tombstoned slots are reused by later inserts on the
same page.  A per-file free-space map (``HeapFile.holes``) records blocks
freed by deletes so inserts fill holes instead of only ever appending — the
map is persisted in the catalog and restored on reopen.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import StorageError
from repro.relational.schema import Schema
from repro.relational.statistics import TableStatistics
from repro.storage.buffer import BufferManager
from repro.storage.page import (
    DEFAULT_BLOCK_SIZE,
    BlockId,
    Page,
    decode_record,
    encode_record,
    record_codec,
)

if TYPE_CHECKING:  # pragma: no cover - the engine, index and catalog modules import this one
    from repro.storage.engine import IndexHandle
    from repro.storage.metadata import MetadataManager, StatInfo, TableEntry

_HEADER = struct.Struct(">ii")  # slot_count, free_end
_SLOT = struct.Struct(">ii")  # offset, length
_HEADER_BYTES = _HEADER.size
_SLOT_BYTES = _SLOT.size
_OVERFLOW_HEAD = -1
_OVERFLOW_CONTINUATION = -2
_TOMBSTONE = -1  # slot length marking a deleted record

#: A record identifier: ``(block_number, slot)``, slot ``-1`` for overflow.
RecordId = Tuple[int, int]


class Layout:
    """The physical layout of one table's heap file.

    :attr:`codec` is the record codec of the schema's column types
    (:func:`~repro.storage.page.record_codec`), shared by every layout and
    index of the same type tuple.
    """

    __slots__ = ("schema", "block_size", "file_name", "codec")

    def __init__(
        self, table_name: str, schema: Schema, block_size: int = DEFAULT_BLOCK_SIZE
    ) -> None:
        self.schema = schema
        self.block_size = int(block_size)
        self.file_name = f"{table_name.lower()}.tbl"
        self.codec = record_codec(tuple(column.dtype.name for column in schema.columns))

    def max_inline_record(self) -> int:
        """Largest record that fits a slotted page (else an overflow chain)."""
        return self.block_size - _HEADER_BYTES - _SLOT_BYTES

    def __repr__(self) -> str:
        return f"Layout(file={self.file_name!r}, block_size={self.block_size})"


@lru_cache(maxsize=None)  # one per slot count, which the block size bounds
def _directory_codec(slot_count: int) -> struct.Struct:
    """The codec of a slot directory of ``slot_count`` ``(offset, length)`` pairs."""
    return struct.Struct(f">{2 * slot_count}i")


def _live(directory: Sequence[int]) -> List[Tuple[int, int, int]]:
    """``(slot, offset, length)`` of every record a flat slot directory holds."""
    return [
        (slot, offset, length)
        for slot, (offset, length) in enumerate(zip(directory[::2], directory[1::2]))
        if length != _TOMBSTONE
    ]


class SlottedPage:
    """A view interpreting one :class:`~repro.storage.page.Page` as slots.

    Each operation reads the slot directory with one struct call
    (:meth:`directory`) instead of one per slot.
    """

    __slots__ = ("page",)

    def __init__(self, page: Page) -> None:
        self.page = page

    def format(self) -> None:
        """Initialise an empty slotted page (0 slots, all space free)."""
        _HEADER.pack_into(self.page.data, 0, 0, self.page.block_size)

    @property
    def slot_count(self) -> int:
        return self.page.read_int(0)

    @property
    def free_space(self) -> int:
        slot_count, free_end = _HEADER.unpack_from(self.page.data)
        return free_end - _HEADER_BYTES - _SLOT_BYTES * slot_count

    def directory(self) -> Tuple[int, ...]:
        """Every slot's offset and length, flat: ``(offset0, length0, offset1, ...)``."""
        data = self.page.data
        slot_count = self.slot_count
        if not 0 <= slot_count <= (len(data) - _HEADER_BYTES) // _SLOT_BYTES:
            raise StorageError(f"corrupt slot directory: {slot_count} slots")
        return _directory_codec(slot_count).unpack_from(data, _HEADER_BYTES)

    def live_slots(self) -> List[Tuple[int, int, int]]:
        """``(slot, offset, length)`` of every record on the page, in slot order."""
        return _live(self.directory())

    def entry(self, slot: int) -> Tuple[int, int]:
        """``(offset, length)`` of the record in ``slot``."""
        if not 0 <= slot < self.slot_count:
            raise StorageError(f"slot {slot} out of range (page has {self.slot_count})")
        offset, length = _SLOT.unpack_from(self.page.data, _HEADER_BYTES + _SLOT_BYTES * slot)
        if length == _TOMBSTONE:
            raise StorageError(f"slot {slot} is deleted")
        return offset, length

    def has_room(self, record_length: int) -> bool:
        if self._first_tombstone() is not None:
            return self.free_space >= record_length
        return self.free_space >= record_length + _SLOT_BYTES

    def _first_tombstone(self) -> Optional[int]:
        lengths = self.directory()[1::2]
        return lengths.index(_TOMBSTONE) if _TOMBSTONE in lengths else None

    def insert(self, record: bytes) -> int:
        """Place ``record`` on this page; returns its slot index.

        A tombstoned slot is reused when one exists (the page was compacted
        on delete, so free space is always one contiguous run).
        """
        reuse = self._first_tombstone()
        slot_count, free_end = _HEADER.unpack_from(self.page.data)
        free = free_end - _HEADER_BYTES - _SLOT_BYTES * slot_count
        if free < (len(record) if reuse is not None else len(record) + _SLOT_BYTES):
            raise StorageError(f"record of {len(record)} bytes does not fit ({free} bytes free)")
        slot = reuse if reuse is not None else slot_count
        offset = free_end - len(record)
        self.page.write_bytes(offset, record)
        _SLOT.pack_into(self.page.data, _HEADER_BYTES + _SLOT_BYTES * slot, offset, len(record))
        _HEADER.pack_into(self.page.data, 0, max(slot_count, slot + 1), offset)
        return slot

    def delete(self, slot: int) -> None:
        """Tombstone ``slot`` and compact the page, keeping slots stable."""
        directory = list(self.directory())
        if not 0 <= slot < len(directory) // 2:
            raise StorageError(f"slot {slot} out of range (page has {len(directory) // 2})")
        if directory[2 * slot + 1] == _TOMBSTONE:
            raise StorageError(f"slot {slot} is already deleted")
        directory[2 * slot + 1] = _TOMBSTONE
        self._compact(directory)

    def _compact(self, directory: List[int]) -> None:
        """Re-pack the live records of ``directory`` against the end of the
        block and write the directory back.

        Slot indices are untouched — only offsets move — so RIDs handed out
        to indexes remain valid across any number of deletes.
        """
        data = self.page.data
        live = [(slot, data[offset : offset + length]) for slot, offset, length in _live(directory)]
        cursor = len(data)
        for slot, record in sorted(live, key=lambda item: -len(item[1])):
            cursor -= len(record)
            self.page.write_bytes(cursor, record)
            directory[2 * slot] = cursor
        _directory_codec(len(directory) // 2).pack_into(data, _HEADER_BYTES, *directory)
        self.page.write_int(4, cursor)


class HeapFile:
    """A file of record blocks reached through the buffer pool."""

    def __init__(self, buffers: BufferManager, layout: Layout) -> None:
        if layout.block_size != buffers.file_manager.block_size:
            raise StorageError(
                f"layout block size {layout.block_size} does not match the "
                f"file manager's {buffers.file_manager.block_size}"
            )
        self.buffers = buffers
        self.layout = layout
        self.file_name = layout.file_name
        #: Free-space map: block number -> free bytes, for blocks with space
        #: reclaimed by deletes.  Pure-append workloads never populate it, so
        #: their physical record order is identical to an FSM-free heap.
        self.holes: Dict[int, int] = {}

    def block_count(self) -> int:
        return self.buffers.file_manager.block_count(self.file_name)

    def append(self, values: Sequence[Any]) -> RecordId:
        """Insert one record and return its RID.

        Placement order: a hole left by deletes that fits, else the last
        block, else a freshly appended block.  Oversized records spill to an
        overflow chain and get RID ``(head_block, -1)``.
        """
        record = self.layout.codec.encode(values) or encode_record(values)
        if len(record) > self.layout.max_inline_record():
            return self._append_overflow(record)
        for number in sorted(self.holes):
            if self.holes[number] >= len(record) + _SLOT_BYTES:
                rid = self._insert_into(number, record)
                if rid is not None:
                    return rid
        blocks = self.block_count()
        if blocks and (blocks - 1) not in self.holes:
            rid = self._insert_into(blocks - 1, record)
            if rid is not None:
                return rid
        buffer = self.buffers.pin_new(self.file_name)
        try:
            slotted = SlottedPage(buffer.page)
            slotted.format()
            slot = slotted.insert(record)
            buffer.mark_dirty()
            return (buffer.block.number, slot)
        finally:
            self.buffers.unpin(buffer)

    def _insert_into(self, number: int, record: bytes) -> Optional[RecordId]:
        """Try one block; returns the RID or None when the record won't fit."""
        buffer = self.buffers.pin(BlockId(self.file_name, number))
        try:
            slotted = SlottedPage(buffer.page)
            if slotted.slot_count < 0 or not slotted.has_room(len(record)):
                return None
            slot = slotted.insert(record)
            buffer.mark_dirty()
            self._note_free_space(number, slotted.free_space)
            return (number, slot)
        finally:
            self.buffers.unpin(buffer)

    def _note_free_space(self, number: int, free: int) -> None:
        if number in self.holes:
            if free >= _SLOT_BYTES * 2:
                self.holes[number] = free
            else:
                del self.holes[number]

    def _append_overflow(self, record: bytes) -> RecordId:
        head_capacity = self.layout.block_size - _HEADER_BYTES
        cont_capacity = self.layout.block_size - 4
        buffer = self.buffers.pin_new(self.file_name)
        head_block = buffer.block.number
        try:
            buffer.page.write_int(0, _OVERFLOW_HEAD)
            buffer.page.write_int(4, len(record))
            buffer.page.write_bytes(_HEADER_BYTES, record[:head_capacity])
            buffer.mark_dirty()
        finally:
            self.buffers.unpin(buffer)
        position = head_capacity
        while position < len(record):
            buffer = self.buffers.pin_new(self.file_name)
            try:
                buffer.page.write_int(0, _OVERFLOW_CONTINUATION)
                buffer.page.write_bytes(4, record[position : position + cont_capacity])
                buffer.mark_dirty()
            finally:
                self.buffers.unpin(buffer)
            position += cont_capacity
        return (head_block, -1)

    def _locate(self, rid: RecordId) -> RecordId:
        """``rid``, once its block is in the file and its slot is a slot
        number or ``-1`` (an overflow record's); else a StorageError."""
        number, slot = rid
        if not 0 <= number < self.block_count() or slot < -1:
            raise StorageError(f"RID {rid} is outside {self.file_name!r}")
        return rid

    def fetch(self, rid: RecordId) -> Tuple[Any, ...]:
        """Read one record by RID, pinning only the blocks it lives on."""
        number, slot = self._locate(rid)
        buffer = self.buffers.pin(BlockId(self.file_name, number))
        try:
            marker = buffer.page.read_int(0)
            if slot >= 0:
                if marker < 0:
                    raise StorageError(f"RID {rid} does not point at a slotted page")
                offset, length = SlottedPage(buffer.page).entry(slot)
                return self._decode(buffer.page.data, offset, length, rid)
            if marker != _OVERFLOW_HEAD:
                raise StorageError(f"RID {rid} does not point at an overflow head")
            length = buffer.page.read_int(4)
            first = buffer.page.read_bytes(_HEADER_BYTES, length)  # up to the end of the block
        finally:
            self.buffers.unpin(buffer)
        return self._read_overflow(number, length, first)[0]

    def _read_overflow(self, head: int, length: int, first: bytes) -> Tuple[Tuple[Any, ...], int]:
        """The overflow record of ``length`` bytes whose head block ``head``
        holds ``first``, read on through its continuation blocks; returns it
        and the number of the block after its chain."""
        cont_capacity = self.layout.block_size - 4
        chunks, remaining, number = [first], length - len(first), head + 1
        while remaining > 0:
            buffer = self.buffers.pin(BlockId(self.file_name, number))
            try:
                if buffer.page.read_int(0) != _OVERFLOW_CONTINUATION:
                    raise StorageError(
                        f"truncated overflow chain at block {number} of "
                        f"{self.file_name!r}"
                    )
                chunks.append(buffer.page.read_bytes(4, min(remaining, cont_capacity)))
            finally:
                self.buffers.unpin(buffer)
            remaining -= cont_capacity
            number += 1
        return self._decode(b"".join(chunks), 0, length, (head, -1)), number

    def _decode(self, data: bytes, offset: int, length: int, rid: RecordId) -> Tuple[Any, ...]:
        """The record at ``offset`` of ``data``, decoded where it lies — by the
        layout's codec, or by ``decode_record`` when a tag is not its column's
        usual one; either way it must fill exactly the ``length`` bytes its
        slot or chain header gives."""
        try:
            values, end = self.layout.codec.decode(data, offset) or decode_record(data, offset)
        except (ValueError, IndexError, struct.error):  # UnicodeDecodeError is a ValueError
            end = None
        if end != offset + length:
            found = "no record" if end is None else f"a record of {end - offset}"
            raise StorageError(
                f"torn record {rid} in {self.file_name!r}: {length} bytes stored, {found}"
            )
        return values

    def delete(self, rid: RecordId) -> None:
        """Remove one record, reclaiming its space for later inserts."""
        number, slot = self._locate(rid)
        if slot >= 0:
            buffer = self.buffers.pin(BlockId(self.file_name, number))
            try:
                slotted = SlottedPage(buffer.page)
                if slotted.slot_count < 0:
                    raise StorageError(f"RID {rid} does not point at a slotted page")
                slotted.delete(slot)
                buffer.mark_dirty()
                free = slotted.free_space
            finally:
                self.buffers.unpin(buffer)
            if free >= _SLOT_BYTES * 2:
                self.holes[number] = free
            return
        # Overflow record: reformat every chain block as an empty slotted
        # page so the space is reusable and scans skip it naturally.
        buffer = self.buffers.pin(BlockId(self.file_name, number))
        try:
            if buffer.page.read_int(0) != _OVERFLOW_HEAD:
                raise StorageError(f"RID {rid} does not point at an overflow head")
            length = buffer.page.read_int(4)
        finally:
            self.buffers.unpin(buffer)
        head_capacity = self.layout.block_size - _HEADER_BYTES
        cont_capacity = self.layout.block_size - 4
        chain = 1 + max(0, length - head_capacity + cont_capacity - 1) // cont_capacity  # ceil
        for offset in range(chain):
            buffer = self.buffers.pin(BlockId(self.file_name, number + offset))
            try:
                slotted = SlottedPage(buffer.page)
                slotted.format()
                buffer.mark_dirty()
                self.holes[number + offset] = slotted.free_space
            finally:
                self.buffers.unpin(buffer)

    def records(self) -> Iterator[Tuple[Any, ...]]:
        """Scan every record in block order, pinning one block at a time."""
        return map(itemgetter(1), self.records_with_rids())

    def records_with_rids(self) -> Iterator[Tuple[RecordId, Tuple[Any, ...]]]:
        """Scan every record in block order, yielding ``(rid, values)``."""
        number = 0
        total = self.block_count()
        while number < total:
            buffer = self.buffers.pin(BlockId(self.file_name, number))
            try:
                marker = buffer.page.read_int(0)
                if marker >= 0:
                    data = buffer.page.data
                    for slot, offset, length in SlottedPage(buffer.page).live_slots():
                        rid = (number, slot)
                        yield rid, self._decode(data, offset, length, rid)
                    number += 1
                    continue
                if marker != _OVERFLOW_HEAD:
                    raise StorageError(
                        f"orphan overflow continuation at block {number} of "
                        f"{self.file_name!r}"
                    )
                length = buffer.page.read_int(4)
                first = buffer.page.read_bytes(_HEADER_BYTES, length)  # up to the end of the block
            finally:
                self.buffers.unpin(buffer)
            head = number
            values, number = self._read_overflow(head, length, first)
            yield (head, -1), values

    def delete_file(self) -> None:
        """Drop every cached page and remove the backing file."""
        self.buffers.discard(self.file_name)
        self.buffers.file_manager.delete(self.file_name)
        self.holes.clear()


class PagedTableStorage:
    """One stored table: its heap file, its catalog entry and its indexes.

    The storage engine builds it with the table's catalog entry and sets
    :attr:`indexes_by_position` -- each open secondary index with the
    position of its column, in the catalog's lower-cased index-name order --
    whenever that list changes.  Everything that happens to a stored table
    goes through this one object: an insert or delete folds into the catalog
    statistics and every index (in that order, which fixes the buffer pool's
    LRU order), a scan is counted, a large delete batch refreshes the
    statistics, and :meth:`statistics` / :meth:`indexes` answer from the
    catalog and the open handles without touching a heap page.
    """

    def __init__(
        self, buffers: BufferManager, catalog: "MetadataManager", entry: "TableEntry"
    ) -> None:
        self.table_name = entry.name
        self.catalog = catalog
        self.entry = entry
        self.layout = Layout(entry.name, entry.schema, buffers.file_manager.block_size)
        self.heap = HeapFile(buffers, self.layout)
        self.heap.holes = dict(entry.free_space)
        self.row_count = entry.stats.records
        self.indexes_by_position: List[Tuple["IndexHandle", int]] = []

    def append(self, values: Sequence[Any]) -> RecordId:
        rid = self.heap.append(values)
        self.row_count += 1
        self.catalog.record_insert(self.entry, values)
        for handle, position in self.indexes_by_position:
            handle.insert(values[position], rid)
            self.catalog.set_index_state(
                handle.definition.name, handle.entry_count, handle.incomplete
            )
        return rid

    def delete_where(self, predicate: Callable[[Tuple[Any, ...]], bool]) -> int:
        """Delete every record matching ``predicate``; returns the count.

        A batch that made the catalog statistics stale (see
        :meth:`~repro.storage.metadata.MetadataManager.deletes_refresh_due`)
        runs the full refresh before returning.
        """
        doomed = [
            (rid, values)
            for rid, values in self.heap.records_with_rids()
            if predicate(values)
        ]
        for rid, values in doomed:
            self.heap.delete(rid)
            self.row_count -= 1
            self.catalog.record_delete(self.entry)
            for handle, position in self.indexes_by_position:
                handle.delete(values[position], rid)
                self.catalog.set_index_state(
                    handle.definition.name, handle.entry_count, handle.incomplete
                )
        if doomed and self.catalog.deletes_refresh_due(self.entry):
            self.refresh_statistics()
        return len(doomed)

    def scan(self) -> List[Tuple[Any, ...]]:
        """Every record, counted as one table scan.

        The count runs the full statistics refresh when one is due, before
        the records are read.
        """
        if self.catalog.note_scan(self.entry):
            self.refresh_statistics()
        return self.read_all()

    def refresh_statistics(self) -> "StatInfo":
        """Recompute the catalog statistics (histograms, distincts) from the heap."""
        return self.catalog.refresh(self.entry, self.heap.records(), self.block_count())

    def stat_info(self) -> "StatInfo":
        """The catalog statistics with the heap's current block count stamped in."""
        return self.catalog.stat_info(self.entry, self.block_count())

    def statistics(self) -> TableStatistics:
        """The catalog's view of the table in the optimizer's statistics shape."""
        return self.stat_info().to_table_statistics()

    def indexes(self) -> Dict[str, "IndexHandle"]:
        """The open secondary-index handles, keyed by index name."""
        return {handle.definition.name: handle for handle, _ in self.indexes_by_position}

    def fetch_row(self, rid: RecordId) -> Tuple[Any, ...]:
        """One record by RID, touching only the pages it lives on."""
        return self.heap.fetch(rid)

    def read_all(self) -> List[Tuple[Any, ...]]:
        """Materialize every record by scanning through the buffer pool."""
        return list(self.heap.records())

    def rows_with_rids(self) -> Iterator[Tuple[RecordId, Tuple[Any, ...]]]:
        return self.heap.records_with_rids()

    def block_count(self) -> int:
        return self.heap.block_count()

    def clear(self) -> None:
        self.heap.delete_file()
        self.row_count = 0

    def __repr__(self) -> str:
        return (
            f"PagedTableStorage({self.table_name!r}, rows={self.row_count}, "
            f"blocks={self.block_count()})"
        )
