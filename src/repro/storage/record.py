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

import itertools
import struct
from functools import lru_cache
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import StorageError
from repro.relational.schema import Schema
from repro.relational.statistics import TableStatistics
from repro.storage.buffer import Buffer, BufferManager
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
    index of the same type tuple; ``record_codec(type_names, column)`` reads
    one column of the same records.
    """

    __slots__ = ("schema", "block_size", "file_name", "type_names", "codec")

    def __init__(
        self, table_name: str, schema: Schema, block_size: int = DEFAULT_BLOCK_SIZE
    ) -> None:
        self.schema = schema
        self.block_size = int(block_size)
        self.file_name = f"{table_name.lower()}.tbl"
        self.type_names = tuple(column.dtype.name for column in schema.columns)
        self.codec = record_codec(self.type_names)

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

    def insert(self, record: bytes) -> int:
        """Place ``record`` on this page; returns its slot index, or raises
        :class:`~repro.errors.StorageError` when it does not fit."""
        slots = self.fill((record,))
        if not slots:
            raise StorageError(
                f"record of {len(record)} bytes does not fit ({self.free_space} bytes free)"
            )
        return slots[0]

    def fill(
        self, records: Sequence[bytes], start: int = 0, stop: Optional[int] = None
    ) -> List[int]:
        """Place ``records[start:stop]`` on this page in order, up to the
        first that does not fit; returns the slots of those placed.

        Each record takes the lowest tombstoned slot left, else a new one
        (the page was compacted on delete, so free space is always one
        contiguous run).  The slot directory is read once and written once.
        """
        directory = list(self.directory())
        tombstones = [slot for slot, length in enumerate(directory[1::2]) if length == _TOMBSTONE]
        slot_count, free_end = _HEADER.unpack_from(self.page.data)
        slots: List[int] = []
        for record in itertools.islice(records, start, stop):
            reuse = len(slots) < len(tombstones)
            free = free_end - _HEADER_BYTES - _SLOT_BYTES * slot_count
            if free < (len(record) if reuse else len(record) + _SLOT_BYTES):
                break
            free_end -= len(record)
            self.page.write_bytes(free_end, record)
            if reuse:
                slot = tombstones[len(slots)]
                directory[2 * slot : 2 * slot + 2] = free_end, len(record)
            else:
                slot = slot_count
                slot_count += 1
                directory += free_end, len(record)
            slots.append(slot)
        if slots:
            _directory_codec(slot_count).pack_into(self.page.data, _HEADER_BYTES, *directory)
            _HEADER.pack_into(self.page.data, 0, slot_count, free_end)
        return slots

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
        #: The block an :meth:`append_many` is filling, pinned between records.
        self._held: Optional[Buffer] = None

    def block_count(self) -> int:
        return self.buffers.file_manager.block_count(self.file_name)

    def append(self, values: Sequence[Any]) -> RecordId:
        """Insert one record and return its RID."""
        rids: List[RecordId] = []
        self.append_many((values,), rids)
        return rids[0]

    def append_many(
        self, rows: Sequence[Sequence[Any]], rids: List[RecordId], placed: Optional[Callable] = None
    ) -> None:
        """Insert records in order, appending each one's RID to ``rids``.

        Placement: the first hole left by deletes that fits, else the last
        block, else a fresh one; an oversized record spills to an overflow
        chain, RID ``(head_block, -1)``.  While the heap has no holes and no
        ``placed`` is given, consecutive records fill the block being filled
        in one :meth:`SlottedPage.fill`, and it stays pinned across them.
        ``placed(rid, values)`` runs after each record, its block unpinned,
        so its own pool touches come in turn.  The rows encoded before one
        that cannot be are stored before its error propagates.
        """
        encode = self.layout.codec.encode
        records: List[bytes] = []
        try:
            for values in rows:
                records.append(encode(values) or encode_record(values))
        finally:
            self._store(records, rows, rids, placed)

    def _store(
        self, records: List[bytes], rows: Sequence[Sequence[Any]], rids: List[RecordId],
        placed: Optional[Callable],
    ) -> None:
        limit = self.layout.max_inline_record()
        start = 0
        try:
            while start < len(records):
                if len(records[start]) > limit:
                    self._release()
                    rids.append(self._append_overflow(records[start]))
                    taken = 1
                else:
                    stop = len(records) if placed is None and not self.holes else start + 1
                    taken = self._place(records, start, stop, rids)
                if placed is not None:
                    self._release()
                    placed(rids[-1], rows[start])
                start += taken
        finally:
            self._release()

    def _place(self, records: List[bytes], start: int, stop: int, rids: List[RecordId]) -> int:
        """Place ``records[start]`` and on up to ``stop`` or the first
        oversized record, appending their RIDs to ``rids``; returns how many."""
        length = len(records[start])
        for number in sorted(self.holes):
            if self.holes[number] >= length + _SLOT_BYTES:
                if self._fill(number, records, start, stop, rids):
                    return 1
        taken = 0
        blocks = self.block_count()
        if blocks and (blocks - 1) not in self.holes:
            taken = self._fill(blocks - 1, records, start, stop, rids)
        limit = self.layout.max_inline_record()
        while start + taken < stop and len(records[start + taken]) <= limit:
            self._release()
            self._held = self.buffers.pin_new(self.file_name)
            SlottedPage(self._held.page).format()
            taken += self._fill(self._held.block.number, records, start + taken, stop, rids)
        return taken

    def _fill(
        self, number: int, records: List[bytes], start: int, stop: int, rids: List[RecordId]
    ) -> int:
        """Fill one block from ``records[start:stop]``, held pinned until
        :meth:`_release`; returns how many records it took."""
        buffer = self._held
        if buffer is None or buffer.block.number != number:
            self._release()
            buffer = self._held = self.buffers.pin(BlockId(self.file_name, number))
        slotted = SlottedPage(buffer.page)
        if slotted.slot_count < 0:
            return 0
        slots = slotted.fill(records, start, stop)
        if slots:
            buffer.mark_dirty()
            self._note_free_space(number, slotted.free_space)
            rids.extend((number, slot) for slot in slots)
        return len(slots)

    def _release(self) -> None:
        held, self._held = self._held, None
        if held is not None:
            self.buffers.unpin(held)

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
                return self._decode(buffer.page.data, offset, length, rid, self.layout.codec.decode)
            if marker != _OVERFLOW_HEAD:
                raise StorageError(f"RID {rid} does not point at an overflow head")
            length = buffer.page.read_int(4)
            first = buffer.page.read_bytes(_HEADER_BYTES, length)  # up to the end of the block
        finally:
            self.buffers.unpin(buffer)
        return self._read_overflow(number, length, first, self.layout.codec.decode)[0]

    def _read_overflow(
        self, head: int, length: int, first: bytes, decode: Callable, column: Optional[int] = None
    ) -> Tuple[Any, int]:
        """The overflow record of ``length`` bytes whose head block ``head``
        holds ``first``, read on through its continuation blocks and decoded
        as :meth:`_decode` does; returns it and the number of the block after
        its chain."""
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
        return self._decode(b"".join(chunks), 0, length, (head, -1), decode, column), number

    def _decode(
        self, data: bytes, offset: int, length: int, rid: RecordId, decode: Callable,
        column: Optional[int] = None,
    ) -> Any:
        """The record at ``offset`` of ``data`` (its ``column`` only, when
        given), decoded where it lies — by ``decode``, the layout's codec or
        its projection on ``column``, or by ``decode_record`` when a tag is
        not its column's usual one; either way it must fill exactly the
        ``length`` bytes its slot or chain header gives."""
        generic = False
        try:
            decoded = decode(data, offset)
            generic = decoded is None
            value, end = decode_record(data, offset) if generic else decoded
        except (ValueError, IndexError, struct.error):  # UnicodeDecodeError is a ValueError
            end = None
        if end != offset + length:
            found = "no record" if end is None else f"a record of {end - offset}"
            raise StorageError(
                f"torn record {rid} in {self.file_name!r}: {length} bytes stored, {found}"
            )
        return value[column] if generic and column is not None else value

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

    def records_with_rids(self, column: Optional[int] = None) -> Iterator[Tuple[RecordId, Any]]:
        """Scan every record in block order, yielding ``(rid, values)``, or
        ``(rid, value)`` of one ``column``: only that column's values are
        built, every record is checked as a full scan checks it."""
        layout = self.layout
        codec = layout.codec if column is None else record_codec(layout.type_names, column)
        decode = codec.decode
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
                        yield rid, self._decode(data, offset, length, rid, decode, column)
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
            values, number = self._read_overflow(head, length, first, decode, column)
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
        #: ``(block count, indexes_by_position, statistics)`` last handed out,
        #: or ``None`` once an insert, a delete or a refresh made it stale.
        self._statistics: Optional[Tuple[int, list, TableStatistics]] = None

    def append(self, values: Sequence[Any]) -> RecordId:
        return self.append_many((values,))[0]

    def append_many(self, rows: Sequence[Sequence[Any]]) -> List[RecordId]:
        """Insert rows in order: each open index takes a row's key right after
        its heap record; the catalog folds the placed rows a column at a time."""
        rids: List[RecordId] = []
        try:
            self.heap.append_many(rows, rids, self._index_row if self.indexes_by_position else None)
        finally:
            if rids:
                self.row_count += len(rids)
                self._statistics = None
                self.catalog.record_inserts(self.entry, rows[: len(rids)])
        return rids

    def _index_row(self, rid: RecordId, values: Sequence[Any]) -> None:
        for handle, position in self.indexes_by_position:
            handle.insert(values[position], rid)
            self.catalog.set_index_state(
                handle.definition.name, handle.entry_count, handle.incomplete
            )

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
            self._statistics = None
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
        self._statistics = None
        return self.catalog.refresh(self.entry, self.heap.records(), self.block_count())

    def stat_info(self) -> "StatInfo":
        """The catalog statistics with the heap's current block count stamped in."""
        return self.catalog.stat_info(self.entry, self.block_count())

    def statistics(self) -> TableStatistics:
        """The catalog's view of the table in the optimizer's statistics shape:
        one object until an insert, a delete, a refresh, a block-count change
        or index DDL (a new ``indexes_by_position``), as an in-memory table's."""
        blocks, cached = self.block_count(), self._statistics
        if cached is None or cached[0] != blocks or cached[1] is not self.indexes_by_position:
            statistics = self.catalog.stat_info(self.entry, blocks).to_table_statistics()
            cached = self._statistics = (blocks, self.indexes_by_position, statistics)
        return cached[2]

    def indexes(self) -> Dict[str, "IndexHandle"]:
        """The open secondary-index handles, keyed by index name."""
        return {handle.definition.name: handle for handle, _ in self.indexes_by_position}

    def fetch_row(self, rid: RecordId) -> Tuple[Any, ...]:
        """One record by RID, touching only the pages it lives on."""
        return self.heap.fetch(rid)

    def read_all(self) -> List[Tuple[Any, ...]]:
        """Materialize every record by scanning through the buffer pool."""
        return list(self.heap.records())

    def rows_with_rids(self, column: Optional[int] = None) -> Iterator[Tuple[RecordId, Any]]:
        return self.heap.records_with_rids(column)

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
