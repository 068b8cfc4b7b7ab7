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

from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import StorageError
from repro.relational.schema import Schema
from repro.storage.buffer import BufferManager
from repro.storage.page import DEFAULT_BLOCK_SIZE, BlockId, Page, decode_record, encode_record

_HEADER_BYTES = 8  # slot_count + free_end
_SLOT_BYTES = 8  # offset + length
_OVERFLOW_HEAD = -1
_OVERFLOW_CONTINUATION = -2
_TOMBSTONE = -1  # slot length marking a deleted record

#: A record identifier: ``(block_number, slot)``, slot ``-1`` for overflow.
RecordId = Tuple[int, int]


class Layout:
    """The physical layout of one table's heap file."""

    __slots__ = ("schema", "block_size", "file_name")

    def __init__(
        self, table_name: str, schema: Schema, block_size: int = DEFAULT_BLOCK_SIZE
    ) -> None:
        self.schema = schema
        self.block_size = int(block_size)
        self.file_name = f"{table_name.lower()}.tbl"

    def max_inline_record(self) -> int:
        """Largest record that fits a slotted page (else an overflow chain)."""
        return self.block_size - _HEADER_BYTES - _SLOT_BYTES

    def __repr__(self) -> str:
        return f"Layout(file={self.file_name!r}, block_size={self.block_size})"


class SlottedPage:
    """A view interpreting one :class:`~repro.storage.page.Page` as slots."""

    __slots__ = ("page",)

    def __init__(self, page: Page) -> None:
        self.page = page

    def format(self) -> None:
        """Initialise an empty slotted page (0 slots, all space free)."""
        self.page.write_int(0, 0)
        self.page.write_int(4, self.page.block_size)

    @property
    def slot_count(self) -> int:
        return self.page.read_int(0)

    @property
    def free_end(self) -> int:
        return self.page.read_int(4)

    @property
    def free_space(self) -> int:
        return self.free_end - _HEADER_BYTES - _SLOT_BYTES * self.slot_count

    def has_room(self, record_length: int) -> bool:
        if self._first_tombstone() is not None:
            return self.free_space >= record_length
        return self.free_space >= record_length + _SLOT_BYTES

    def _slot_length(self, slot: int) -> int:
        return self.page.read_int(_HEADER_BYTES + _SLOT_BYTES * slot + 4)

    def _first_tombstone(self) -> Optional[int]:
        for slot in range(self.slot_count):
            if self._slot_length(slot) == _TOMBSTONE:
                return slot
        return None

    def is_deleted(self, slot: int) -> bool:
        if not 0 <= slot < self.slot_count:
            raise StorageError(f"slot {slot} out of range (page has {self.slot_count})")
        return self._slot_length(slot) == _TOMBSTONE

    def insert(self, record: bytes) -> int:
        """Place ``record`` on this page; returns its slot index.

        A tombstoned slot is reused when one exists (the page was compacted
        on delete, so free space is always one contiguous run).
        """
        reuse = self._first_tombstone()
        needed = len(record) if reuse is not None else len(record) + _SLOT_BYTES
        if self.free_space < needed:
            raise StorageError(
                f"record of {len(record)} bytes does not fit "
                f"({self.free_space} bytes free)"
            )
        slot = reuse if reuse is not None else self.slot_count
        offset = self.free_end - len(record)
        self.page.write_bytes(offset, record)
        self.page.write_int(_HEADER_BYTES + _SLOT_BYTES * slot, offset)
        self.page.write_int(_HEADER_BYTES + _SLOT_BYTES * slot + 4, len(record))
        if reuse is None:
            self.page.write_int(0, slot + 1)
        self.page.write_int(4, offset)
        return slot

    def delete(self, slot: int) -> None:
        """Tombstone ``slot`` and compact the page, keeping slots stable."""
        if self.is_deleted(slot):
            raise StorageError(f"slot {slot} is already deleted")
        self.page.write_int(_HEADER_BYTES + _SLOT_BYTES * slot + 4, _TOMBSTONE)
        self._compact()

    def _compact(self) -> None:
        """Re-pack live records against the end of the block.

        Slot indices are untouched — only offsets move — so RIDs handed out
        to indexes remain valid across any number of deletes.
        """
        live = [
            (slot, self.record(slot))
            for slot in range(self.slot_count)
            if self._slot_length(slot) != _TOMBSTONE
        ]
        cursor = self.page.block_size
        for slot, record in sorted(live, key=lambda item: -len(item[1])):
            cursor -= len(record)
            self.page.write_bytes(cursor, record)
            self.page.write_int(_HEADER_BYTES + _SLOT_BYTES * slot, cursor)
        self.page.write_int(4, cursor)

    def record(self, slot: int) -> bytes:
        if not 0 <= slot < self.slot_count:
            raise StorageError(f"slot {slot} out of range (page has {self.slot_count})")
        length = self._slot_length(slot)
        if length == _TOMBSTONE:
            raise StorageError(f"slot {slot} is deleted")
        offset = self.page.read_int(_HEADER_BYTES + _SLOT_BYTES * slot)
        return self.page.read_bytes(offset, length)

    def records(self) -> Iterator[bytes]:
        for slot in range(self.slot_count):
            if self._slot_length(slot) != _TOMBSTONE:
                yield self.record(slot)

    def records_with_slots(self) -> Iterator[Tuple[int, bytes]]:
        for slot in range(self.slot_count):
            if self._slot_length(slot) != _TOMBSTONE:
                yield slot, self.record(slot)


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
        record = encode_record(values)
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

    def fetch(self, rid: RecordId) -> Tuple[Any, ...]:
        """Read one record by RID, pinning only the blocks it lives on."""
        number, slot = rid
        if number < 0 or number >= self.block_count():
            raise StorageError(f"RID {rid} is outside {self.file_name!r}")
        buffer = self.buffers.pin(BlockId(self.file_name, number))
        try:
            marker = buffer.page.read_int(0)
            if slot >= 0:
                if marker < 0:
                    raise StorageError(f"RID {rid} does not point at a slotted page")
                raw = SlottedPage(buffer.page).record(slot)
                values, _ = decode_record(raw)
                return values
            if marker != _OVERFLOW_HEAD:
                raise StorageError(f"RID {rid} does not point at an overflow head")
            length = buffer.page.read_int(4)
            head_capacity = self.layout.block_size - _HEADER_BYTES
            chunks: List[bytes] = [
                buffer.page.read_bytes(_HEADER_BYTES, min(length, head_capacity))
            ]
        finally:
            self.buffers.unpin(buffer)
        cont_capacity = self.layout.block_size - 4
        remaining = length - (self.layout.block_size - _HEADER_BYTES)
        number += 1
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
        values, _ = decode_record(b"".join(chunks))
        return values

    def delete(self, rid: RecordId) -> None:
        """Remove one record, reclaiming its space for later inserts."""
        number, slot = rid
        if number < 0 or number >= self.block_count():
            raise StorageError(f"RID {rid} is outside {self.file_name!r}")
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
        chain = 1
        remaining = length - head_capacity
        while remaining > 0:
            chain += 1
            remaining -= cont_capacity
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
        for _rid, values in self.records_with_rids():
            yield values

    def records_with_rids(self) -> Iterator[Tuple[RecordId, Tuple[Any, ...]]]:
        """Scan every record in block order, yielding ``(rid, values)``."""
        head_capacity = self.layout.block_size - _HEADER_BYTES
        cont_capacity = self.layout.block_size - 4
        number = 0
        total = self.block_count()
        while number < total:
            buffer = self.buffers.pin(BlockId(self.file_name, number))
            try:
                marker = buffer.page.read_int(0)
                if marker >= 0:
                    for slot, raw in SlottedPage(buffer.page).records_with_slots():
                        values, _ = decode_record(raw)
                        yield (number, slot), values
                    number += 1
                    continue
                if marker != _OVERFLOW_HEAD:
                    raise StorageError(
                        f"orphan overflow continuation at block {number} of "
                        f"{self.file_name!r}"
                    )
                length = buffer.page.read_int(4)
                chunks: List[bytes] = [
                    buffer.page.read_bytes(_HEADER_BYTES, min(length, head_capacity))
                ]
            finally:
                self.buffers.unpin(buffer)
            head = number
            remaining = length - head_capacity
            number += 1
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
            values, _ = decode_record(b"".join(chunks))
            yield (head, -1), values

    def delete_file(self) -> None:
        """Drop every cached page and remove the backing file."""
        self.buffers.discard(self.file_name)
        self.buffers.file_manager.delete(self.file_name)
        self.holes.clear()


class PagedTableStorage:
    """The paged backend behind one :class:`~repro.relational.table.Table`.

    Keeps a running row count (recovered from catalog metadata on open, or
    by a one-off scan) and notifies optional listeners on every insert and
    delete so the metadata layer can maintain statistics and secondary
    indexes incrementally.
    """

    def __init__(
        self,
        buffers: BufferManager,
        table_name: str,
        schema: Schema,
        row_count: Optional[int] = None,
        on_insert: Optional[Callable[[Sequence[Any], RecordId], None]] = None,
        on_delete: Optional[Callable[[Sequence[Any], RecordId], None]] = None,
    ) -> None:
        self.table_name = table_name
        self.layout = Layout(table_name, schema, buffers.file_manager.block_size)
        self.heap = HeapFile(buffers, self.layout)
        self.on_insert = on_insert
        self.on_delete = on_delete
        if row_count is None:
            row_count = sum(1 for _ in self.heap.records())
        self.row_count = int(row_count)

    def append(self, values: Sequence[Any]) -> RecordId:
        rid = self.heap.append(values)
        self.row_count += 1
        if self.on_insert is not None:
            self.on_insert(values, rid)
        return rid

    def delete_where(self, predicate: Callable[[Tuple[Any, ...]], bool]) -> int:
        """Delete every record matching ``predicate``; returns the count."""
        doomed = [
            (rid, values)
            for rid, values in self.heap.records_with_rids()
            if predicate(values)
        ]
        for rid, values in doomed:
            self.heap.delete(rid)
            self.row_count -= 1
            if self.on_delete is not None:
                self.on_delete(values, rid)
        return len(doomed)

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
