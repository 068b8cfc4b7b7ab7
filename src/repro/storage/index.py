"""Secondary indexes over the paged heap: a B-tree and a hash index.

Both index kinds are ordinary page files reached through the shared
:class:`~repro.storage.buffer.BufferManager`, so index I/O shows up in the
same hit/miss/eviction counters as heap I/O.  Postings are heap RIDs
``(block, slot)`` — the slotted-page layer keeps slots stable across
deletes, so postings never dangle while maintenance is wired.

B-tree layout (``<table>.<index>.btx``):

* block 0 — meta page: magic, root block, height (1 = root is a leaf),
  entry count, leaf count, and an ``incomplete`` flag set when a key of an
  unorderable type (e.g. a ``DataObject``) was skipped;
* node pages — one encoded record per page (``length`` at offset 0, payload
  from offset 4).  A leaf is ``(1, next_leaf, [(key, block, slot), ...])``
  with leaves chained left to right for range scans; an internal node is
  ``(0, first_child, [(key, child), ...])`` where ``child`` serves keys
  ``>= key`` and ``first_child`` everything smaller.  A run of equal keys
  may straddle a split, so the child left of a separator can end with keys
  equal to it: readers descend left of an equal separator and walk the
  chain rightwards.

Hash layout (``<table>.<index>.hsx``): block 0 is the meta page, blocks
``1..buckets`` are bucket heads, each a chain page ``(next_block,
length, payload)`` whose payload is the record ``[(encoded_key, block,
slot), ...]``.  Bucketing hashes the CRC-32 of the key's ``encode_value``
bytes — deliberately not Python's process-randomised ``hash()`` — so a
reopened database hashes identically.

Both payloads are exactly the bytes :func:`~repro.storage.page.encode_record`
writes for those values, each entry written and read by the record codec of
its column types (the page codec below): the generic value codec runs once
per key and never on the parts around it, and a torn page raises
:class:`~repro.errors.StorageError` instead of decoding to a wrong posting.

Keys are compared by ``(type_rank, value)`` so mixed numeric/string/bytes
columns still order totally; ``None`` keys are never indexed (an equality
probe can't match NULL under three-valued logic).  :class:`KeyInterval` is
that order's interval — what a query's conjuncts on an indexed column fold
to, and the unit an index scan looks up.

Both kinds are built in bulk by ``bulk_load`` (``CREATE INDEX``, and the
rebuild when a reopened index fails revalidation): every page is encoded
and written once, instead of once per key it holds.
"""

from __future__ import annotations

import itertools
import struct
import zlib
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import StorageError
from repro.storage.buffer import BufferManager
from repro.storage.page import (
    TAG_INT64,
    TAG_LIST,
    TAG_TUPLE,
    BlockId,
    RecordCodec,
    encode_value,
    record_codec,
)
from repro.storage.record import RecordId

_BTREE_MAGIC = 0x1DB7
_HASH_MAGIC = 0x1DB8
#: Hard cap on node fanout, besides the page-size limit.
_MAX_NODE_ENTRIES = 128
_DEFAULT_BUCKETS = 64
#: Share of a B-tree page a bulk build fills, so that the first inserts after
#: a build find room instead of each splitting a leaf.
_BULK_FILL = 0.9

BTREE = "btree"
HASH = "hash"

# -- the page codec: ``encode_record``'s bytes, through the record codec ------------
#
# A node payload is the record ``(is_leaf, pointer, entries)``: one header, then
# each entry as ``TAG_TUPLE`` and the record of ``(key, block, slot)`` in a leaf
# or ``(key, child)`` in an internal node.  A chain payload is the record of its
# entries: their count, then each as ``TAG_TUPLE`` and ``(key_bytes, block, slot)``.

_NODE_HEADER = struct.Struct(">iBqBqBi")
_INT32 = struct.Struct(">i")
_TUPLE = bytes((TAG_TUPLE,))
_LEAF_ENTRY = record_codec((None, "INTEGER", "INTEGER"))
_INTERNAL_ENTRY = record_codec((None, "INTEGER"))
_CHAIN_ENTRY = record_codec(("BYTES", "INTEGER", "INTEGER"))


def _encode_entries(is_leaf: int, entries: Sequence[tuple]) -> List[bytes]:
    """Each entry of a node as its bytes in the node payload."""
    encode = (_LEAF_ENTRY if is_leaf else _INTERNAL_ENTRY).encode
    return [_TUPLE + encode(entry) for entry in entries]


def _node_payload(is_leaf: int, pointer: int, encoded: Sequence[bytes]) -> bytes:
    header = _NODE_HEADER.pack(3, TAG_INT64, is_leaf, TAG_INT64, pointer, TAG_LIST, len(encoded))
    return header + b"".join(encoded)


def _parse_entries(view: memoryview, offset: int, count: int, codec: RecordCodec) -> List[tuple]:
    """The ``count`` entries from ``offset`` to the end of a payload; raises
    ``ValueError`` (or ``struct.error`` / ``IndexError``) where one is torn."""
    if count < 0:
        raise ValueError(f"bad entry count {count}")
    entries: List[tuple] = []
    for _ in range(count):
        decoded = view[offset] == TAG_TUPLE and codec.decode(view, offset + 1)
        if not decoded:
            raise ValueError(f"bad entry at {offset}")
        entry, offset = decoded
        entries.append(entry)
    if offset != len(view):
        raise ValueError(f"{len(view) - offset} bytes after the last entry")
    return entries


def _parse_node(view: memoryview) -> Tuple[int, int, List[tuple]]:
    """``(is_leaf, pointer, entries)`` of a node payload; raises as
    :func:`_parse_entries` does."""
    arity, leaf_tag, is_leaf, pointer_tag, pointer, list_tag, count = _NODE_HEADER.unpack_from(view)
    header = (arity, leaf_tag, is_leaf in (0, 1), pointer_tag, list_tag)
    if header != (3, TAG_INT64, True, TAG_INT64, TAG_LIST):
        raise ValueError(f"bad node header (is_leaf {is_leaf})")
    codec = _LEAF_ENTRY if is_leaf else _INTERNAL_ENTRY
    return is_leaf, pointer, _parse_entries(view, _NODE_HEADER.size, count, codec)


def _chain_entry(key_bytes: bytes, block: int, slot: int) -> bytes:
    """One ``(key_bytes, block, slot)`` as its bytes in a chain payload."""
    return _TUPLE + _CHAIN_ENTRY.encode((key_bytes, block, slot))


def _chain_payload(encoded: Sequence[bytes]) -> bytes:
    return _INT32.pack(len(encoded)) + b"".join(encoded)


def _parse_chain(view: memoryview) -> List[tuple]:
    """The ``(key_bytes, block, slot)`` entries of a chain payload; raises as
    :func:`_parse_entries` does."""
    return _parse_entries(view, _INT32.size, _INT32.unpack_from(view)[0], _CHAIN_ENTRY)


def _type_rank(value: Any) -> int:
    if isinstance(value, bool) or isinstance(value, (int, float)):
        return 0
    if isinstance(value, str):
        return 1
    if isinstance(value, (bytes, bytearray)):
        return 2
    raise TypeError(f"value of type {type(value).__name__} is not orderable")


def sort_key(value: Any) -> Tuple[int, Any]:
    """A totally ordered key for any orderable indexed value."""
    return (_type_rank(value), value)


def _key_orders(entries: Sequence[tuple]) -> List[Tuple[int, Any]]:
    """A node's entries as the sort keys of their keys (``entry[0]``), to bisect."""
    return [sort_key(entry[0]) for entry in entries]


def _posting_order(entry: tuple) -> Tuple[Tuple[int, Any], int, int]:
    """Order of a leaf entry ``(key, block, slot)`` within its leaf."""
    return (sort_key(entry[0]), entry[1], entry[2])


def _pack(encoded: Sequence[bytes], budget: int, limit: Optional[int] = None) -> Iterator[range]:
    """Cut encoded entries into consecutive runs of at most ``budget`` bytes
    (and ``limit`` entries), as ranges of their positions.

    The codec is additive — a list costs a fixed header plus its items — so
    a run's page payload is the caller's fixed overhead plus this sum.  A
    single entry larger than ``budget`` still gets a run of its own.
    """
    start = used = 0
    for index, item in enumerate(encoded):
        if index > start and (used + len(item) > budget or index - start == limit):
            yield range(start, index)
            start, used = index, 0
        used += len(item)
    if start < len(encoded):
        yield range(start, len(encoded))


@dataclass(frozen=True)
class KeyInterval:
    """The keys between two bounds under :func:`sort_key` order.

    This is the unit of index access: every ``=``, ``<``, ``<=``, ``>``,
    ``>=`` conjunct a query puts on one indexed column folds into a single
    interval (:meth:`fold`), which a B-tree serves with one ``search_range``
    call and a hash index — equality only — with one ``search_eq``.  ``None``
    is an open end.  An interval may be empty (``low`` above ``high``, or equal
    bounds not both inclusive): it matches no key and reads no page.
    """

    low: Any = None
    high: Any = None
    include_low: bool = True
    include_high: bool = True

    @classmethod
    def fold(cls, conditions: Iterable[Tuple[str, Any]]) -> "KeyInterval":
        """The tightest interval satisfying every ``(operator, value)`` pair."""
        low: Optional[Tuple[Tuple[int, Any], bool, Any]] = None  # (sort key, inclusive, value)
        high: Optional[Tuple[Tuple[int, Any], bool, Any]] = None
        for operator, value in conditions:
            sk = sort_key(value)
            # At equal keys the exclusive bound is the tighter one, either end.
            if operator in ("=", ">", ">="):
                inclusive = operator != ">"
                if low is None or (sk, not inclusive) > (low[0], not low[1]):
                    low = (sk, inclusive, value)
            if operator in ("=", "<", "<="):
                inclusive = operator != "<"
                if high is None or (sk, inclusive) < (high[0], high[1]):
                    high = (sk, inclusive, value)
        return cls(
            low=None if low is None else low[2],
            high=None if high is None else high[2],
            include_low=True if low is None else low[1],
            include_high=True if high is None else high[1],
        )

    @property
    def is_point(self) -> bool:
        """One key, both ends inclusive — what an equality conjunct folds to."""
        return (
            self.low is not None
            and self.high is not None
            and self.include_low
            and self.include_high
            and sort_key(self.low) == sort_key(self.high)
        )

    @property
    def is_empty(self) -> bool:
        if self.low is None or self.high is None:
            return False
        low, high = sort_key(self.low), sort_key(self.high)
        return low > high or (low == high and not (self.include_low and self.include_high))

    def describe(self, column: str) -> str:
        if self.is_point:
            return f"{column} = {self.low!r}"
        ends = []
        if self.low is not None:
            ends.append(f"{column} {'>=' if self.include_low else '>'} {self.low!r}")
        if self.high is not None:
            ends.append(f"{column} {'<=' if self.include_high else '<'} {self.high!r}")
        return " AND ".join(ends)


@dataclass(frozen=True)
class IndexDefinition:
    """One secondary index as recorded in the catalog."""

    name: str
    table: str
    column: str
    kind: str  # BTREE or HASH

    @property
    def file_name(self) -> str:
        suffix = "btx" if self.kind == BTREE else "hsx"
        return f"{self.table.lower()}.{self.name.lower()}.{suffix}"

    def describe(self) -> str:
        return f"{self.kind} index {self.name} on {self.table}({self.column})"


class _PagedIndex:
    """Shared plumbing: meta page access and node allocation."""

    def __init__(self, buffers: BufferManager, definition: IndexDefinition) -> None:
        self.buffers = buffers
        self.definition = definition
        self.file_name = definition.file_name
        #: Cumulative index pages pinned; operators snapshot deltas per query.
        self.pages_read = 0

    def _pin(self, number: int):
        self.pages_read += 1
        return self.buffers.pin(BlockId(self.file_name, number))

    def _pin_new(self):
        self.pages_read += 1
        return self.buffers.pin_new(self.file_name)

    def _parse_payload(self, number: int, data: bytearray, at: int, parse):
        """``parse`` over the payload of block ``number`` whose length is the
        int32 at ``at`` and whose bytes follow it, read in place."""
        (length,) = _INT32.unpack_from(data, at)
        try:
            if not 0 <= length <= len(data) - at - 4:
                raise ValueError(f"payload length {length}")
            with memoryview(data)[at + 4 : at + 4 + length] as view:
                return parse(view)
        except (StorageError, ValueError, IndexError, struct.error) as exc:
            raise StorageError(f"torn index page {number} in {self.file_name!r}: {exc}") from exc

    def block_count(self) -> int:
        return self.buffers.file_manager.block_count(self.file_name)

    def delete_file(self) -> None:
        self.buffers.discard(self.file_name)
        self.buffers.file_manager.delete(self.file_name)

    # -- meta page ---------------------------------------------------------------

    def _allocate_meta(self) -> None:
        """Append the (zeroed) meta page; a fresh file's block 0."""
        meta = self._pin_new()
        try:
            meta.mark_dirty()
        finally:
            self.buffers.unpin(meta)

    def _read_meta(self, expected_magic: int) -> List[int]:
        buffer = self._pin(0)
        try:
            if buffer.page.read_int(0) != expected_magic:
                raise StorageError(
                    f"{self.file_name!r} is not a valid index file "
                    f"for {self.definition.describe()}"
                )
            return [buffer.page.read_int(4 * i) for i in range(1, 8)]
        finally:
            self.buffers.unpin(buffer)

    def _write_meta(self, magic: int, fields: Sequence[int]) -> None:
        buffer = self._pin(0)
        try:
            buffer.page.write_int(0, magic)
            for i, value in enumerate(fields, start=1):
                buffer.page.write_int(4 * i, value)
            buffer.mark_dirty()
        finally:
            self.buffers.unpin(buffer)


class BTreeIndex(_PagedIndex):
    """A paged B-tree mapping column values to heap RIDs."""

    kind = BTREE
    supports_range = True

    def __init__(self, buffers: BufferManager, definition: IndexDefinition) -> None:
        super().__init__(buffers, definition)
        if self.block_count() == 0:
            self._build([], incomplete=False)
        meta = self._read_meta(_BTREE_MAGIC)
        self.root, self.height, self.entry_count, self.leaf_count, flag = meta[:5]
        self.incomplete = bool(flag)

    def _save_meta(self) -> None:
        self._write_meta(
            _BTREE_MAGIC,
            [self.root, self.height, self.entry_count, self.leaf_count,
             1 if self.incomplete else 0],
        )

    # -- node codec --------------------------------------------------------------

    def _node_capacity(self) -> int:
        return self.buffers.file_manager.block_size - 4

    def _fits(self, encoded: Sequence[bytes]) -> bool:
        """Whether a node holding these encoded entries fits its page."""
        return (
            len(encoded) <= _MAX_NODE_ENTRIES
            and _NODE_HEADER.size + sum(map(len, encoded)) <= self._node_capacity()
        )

    def _read_node(self, number: int) -> Tuple[int, int, List[tuple]]:
        buffer = self._pin(number)
        try:
            return self._parse_payload(number, buffer.page.data, 0, _parse_node)
        finally:
            self.buffers.unpin(buffer)

    def _put_node(
        self, number: Optional[int], is_leaf: int, pointer: int, encoded: Sequence[bytes]
    ) -> int:
        """Write a node of encoded entries to block ``number`` (a new block when None)."""
        payload = _node_payload(is_leaf, pointer, encoded)
        if len(payload) > self._node_capacity():
            raise StorageError(
                f"index node of {len(payload)} bytes overflows a page in "
                f"{self.file_name!r}"
            )
        buffer = self._pin_new() if number is None else self._pin(number)
        try:
            buffer.page.write_int(0, len(payload))
            buffer.page.write_bytes(4, payload)
            buffer.mark_dirty()
            return buffer.block.number
        finally:
            self.buffers.unpin(buffer)

    # -- mutation ----------------------------------------------------------------

    def insert(self, key: Any, rid: RecordId) -> bool:
        """Index ``key -> rid``; False when the key is unindexable."""
        if key is None:
            return False
        try:
            sk = sort_key(key)
        except TypeError:
            if not self.incomplete:
                self.incomplete = True
                self._save_meta()
            return False
        split = self._insert_into(self.root, self.height, sk, key, rid)
        if split is not None:
            self.root = self._put_node(None, 0, self.root, _encode_entries(0, [split]))
            self.height += 1
        self.entry_count += 1
        self._save_meta()
        return True

    def _insert_into(
        self, number: int, depth: int, sk: Tuple[int, Any], key: Any, rid: RecordId
    ) -> Optional[Tuple[Any, int]]:
        """Insert below node ``number``; a split returns ``(separator, right)``.

        Each touched node is decoded once and encoded once: the bytes that
        decide whether it still fits its page, and where it splits, are the
        bytes written.
        """
        _, pointer, entries = self._read_node(number)
        if depth == 1:
            orders = [_posting_order(entry) for entry in entries]
            position = bisect_right(orders, (sk, rid[0], rid[1]))
            entries.insert(position, (key, rid[0], rid[1]))
            encoded = _encode_entries(1, entries)
            if self._fits(encoded):
                self._put_node(number, 1, pointer, encoded)
                return None
            middle = self._split_point(encoded)
            right = self._put_node(None, 1, pointer, encoded[middle:])
            self.leaf_count += 1
            self._put_node(number, 1, right, encoded[:middle])
            return (entries[middle][0], right)
        at = bisect_right(_key_orders(entries), sk)
        child = entries[at - 1][1] if at else pointer
        split = self._insert_into(child, depth - 1, sk, key, rid)
        if split is None:
            return None
        # The new sibling follows the child that split, in the leaf chain and
        # so here too.  Bisecting for it instead would put it after every
        # equal separator — after siblings that follow it in the chain.
        entries.insert(at, split)
        encoded = _encode_entries(0, entries)
        if self._fits(encoded):
            self._put_node(number, 0, pointer, encoded)
            return None
        middle = self._split_point(encoded)
        promoted, promoted_child = entries[middle]
        right = self._put_node(None, 0, promoted_child, encoded[middle + 1 :])
        self._put_node(number, 0, pointer, encoded[:middle])
        return (promoted, right)

    def _split_point(self, encoded: List[bytes]) -> int:
        """Where an overflowing node splits: the middle, unless keys of very
        different sizes leave a half that still overflows its page — then the
        nearest point at which both halves fit."""
        middle = len(encoded) // 2
        while middle > 1 and not self._fits(encoded[:middle]):
            middle -= 1
        while middle < len(encoded) - 2 and not self._fits(encoded[middle:]):
            middle += 1
        return middle

    def delete(self, key: Any, rid: RecordId) -> bool:
        """Remove one posting; False when the key was never indexed."""
        if key is None:
            return False
        try:
            sk = sort_key(key)
        except TypeError:
            return False
        number = self._descend_to_leaf(sk)
        while number >= 0:
            _, next_leaf, entries = self._read_node(number)
            for i in range(bisect_left(_key_orders(entries), sk), len(entries)):
                existing, block, slot = entries[i]
                if sort_key(existing) != sk:
                    return False
                if (block, slot) == rid:
                    del entries[i]
                    self._put_node(number, 1, next_leaf, _encode_entries(1, entries))
                    self.entry_count -= 1
                    self._save_meta()
                    return True
            number = next_leaf
        return False

    # -- lookup ------------------------------------------------------------------

    def _descend_to_leaf(self, sk: Tuple[int, Any]) -> int:
        """The leftmost leaf that can hold ``sk``.

        A separator equal to ``sk`` sends the descent *left*: a run of equal
        keys may straddle the split the separator came from, and a reader
        walks the leaf chain rightwards from here.
        """
        number, depth = self.root, self.height
        while depth > 1:
            _, pointer, entries = self._read_node(number)
            at = bisect_left(_key_orders(entries), sk)
            number = entries[at - 1][1] if at else pointer
            depth -= 1
        return number

    def _leftmost_leaf(self) -> int:
        number, depth = self.root, self.height
        while depth > 1:
            _, pointer, _ = self._read_node(number)
            number = pointer
            depth -= 1
        return number

    def search_eq(self, key: Any) -> List[RecordId]:
        """RIDs of every record whose indexed value equals ``key``."""
        return [rid for _, rid in self.search_range(key, key, True, True)]

    def search_range(
        self,
        low: Any,
        high: Any,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[Tuple[Any, RecordId]]:
        """Yield ``(key, rid)`` for keys in the given range, in key order.

        ``None`` bounds are open ends.  Unorderable bounds yield nothing.
        """
        try:
            low_sk = sort_key(low) if low is not None else None
            high_sk = sort_key(high) if high is not None else None
        except TypeError:
            return
        first_above_low = bisect_left if include_low else bisect_right
        number = self._descend_to_leaf(low_sk) if low_sk is not None else self._leftmost_leaf()
        while number >= 0:
            _, next_leaf, entries = self._read_node(number)
            start = 0 if low_sk is None else first_above_low(_key_orders(entries), low_sk)
            for key, block, slot in entries[start:]:
                if high_sk is not None:
                    sk = sort_key(key)
                    if sk > high_sk or (sk == high_sk and not include_high):
                        return
                yield key, (block, slot)
            number = next_leaf

    # -- bulk / introspection ----------------------------------------------------

    def bulk_load(self, pairs: Iterable[Tuple[Any, RecordId]]) -> None:
        """Replace the index's contents with ``(key, rid)`` pairs, bottom-up.

        NULL and unorderable keys are skipped exactly as :meth:`insert` skips
        them (the latter mark the index ``incomplete``).
        """
        entries: List[tuple] = []
        incomplete = False
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
        self.delete_file()
        self._build(entries, incomplete)

    def _runs(self, encoded: Sequence[bytes]) -> Iterator[range]:
        return _pack(
            encoded,
            int((self._node_capacity() - _NODE_HEADER.size) * _BULK_FILL),
            int(_MAX_NODE_ENTRIES * _BULK_FILL),
        )

    def _build(self, entries: List[tuple], incomplete: bool) -> None:
        """Write a fresh file holding the sorted ``entries``.

        Every entry is encoded once; leaves are packed left to right, each
        written once and chained to the block the next one will get; every
        internal level is packed the same way over the first keys of the
        level below; the meta page is written last, once.
        """
        self._allocate_meta()  # block 0
        encoded = _encode_entries(1, entries)
        leaves = list(self._runs(encoded)) or [range(0)]
        level: List[Tuple[Any, int]] = []
        for position, run in enumerate(leaves):
            number = self.block_count()
            is_last = position == len(leaves) - 1
            self._put_node(None, 1, -1 if is_last else number + 1, encoded[run.start : run.stop])
            level.append((entries[run.start][0] if run else None, number))
        self.height = 1
        while len(level) > 1:
            encoded = _encode_entries(0, level)
            # A node stores its first child as the bare pointer, so a run of
            # children is one entry longer than the node it becomes.
            level = [
                (
                    level[run.start][0],
                    self._put_node(
                        None, 0, level[run.start][1], encoded[run.start + 1 : run.stop]
                    ),
                )
                for run in self._runs(encoded)
            ]
            self.height += 1
        self.root = level[0][1]
        self.entry_count, self.leaf_count = len(entries), len(leaves)
        self.incomplete = incomplete
        self._save_meta()

    def average_leaf_entries(self) -> float:
        return self.entry_count / max(1, self.leaf_count)

    def __repr__(self) -> str:
        return (
            f"BTreeIndex({self.definition.name!r}, entries={self.entry_count}, "
            f"height={self.height}, leaves={self.leaf_count})"
        )


class HashIndex(_PagedIndex):
    """A static-bucket hash index for equality probes only."""

    kind = HASH
    supports_range = False
    height = 1  # costing: one bucket page per probe, plus chain pages

    def __init__(
        self,
        buffers: BufferManager,
        definition: IndexDefinition,
        buckets: int = _DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(buffers, definition)
        if self.block_count() == 0:
            self._build([[] for _ in range(buckets)], incomplete=False)
        meta = self._read_meta(_HASH_MAGIC)
        self.buckets, self.entry_count, flag = meta[:3]
        self.incomplete = bool(flag)

    def _build(self, chains: List[List[bytes]], incomplete: bool) -> None:
        """Write a fresh file with one chain of encoded entries per bucket,
        each page once.

        Bucket heads are blocks ``1..buckets``; overflow pages follow in
        bucket order, so every page's successor is known before it is written.
        """
        self._allocate_meta()  # block 0
        budget = self._chain_capacity() - _INT32.size
        overflow = itertools.count(len(chains) + 1)
        pages: List[Tuple[int, int, List[bytes]]] = []  # (block, next block, entries)
        for bucket, chain in enumerate(chains):
            runs = [chain[run.start : run.stop] for run in _pack(chain, budget)] or [[]]
            blocks = [1 + bucket] + [next(overflow) for _ in runs[1:]]
            pages.extend(zip(blocks, blocks[1:] + [0], runs))
        for _, next_block, encoded in sorted(pages, key=lambda page: page[0]):
            self._put_chain_page(None, next_block, encoded)
        self.buckets = len(chains)
        self.entry_count = sum(len(chain) for chain in chains)
        self.incomplete = incomplete
        self._save_meta()

    def _save_meta(self) -> None:
        self._write_meta(
            _HASH_MAGIC, [self.buckets, self.entry_count, 1 if self.incomplete else 0]
        )

    # -- chain pages -------------------------------------------------------------

    def _chain_capacity(self) -> int:
        return self.buffers.file_manager.block_size - 8

    def _put_chain_page(self, number: Optional[int], next_block: int, encoded: List[bytes]) -> int:
        """Write a chain page of encoded entries to block ``number`` (a new
        block when None)."""
        payload = _chain_payload(encoded)
        if len(payload) > self._chain_capacity():
            raise StorageError(
                f"hash chain page overflow in {self.file_name!r} "
                f"({len(payload)} bytes)"
            )
        buffer = self._pin_new() if number is None else self._pin(number)
        try:
            buffer.page.write_int(0, next_block)
            buffer.page.write_int(4, len(payload))
            buffer.page.write_bytes(8, payload)
            buffer.mark_dirty()
            return buffer.block.number
        finally:
            self.buffers.unpin(buffer)

    def _read_chain_page(self, number: int) -> Tuple[int, List[tuple]]:
        buffer = self._pin(number)
        try:
            next_block = buffer.page.read_int(0)
            return next_block, self._parse_payload(number, buffer.page.data, 4, _parse_chain)
        finally:
            self.buffers.unpin(buffer)

    def _read_chain_header(self, number: int) -> Tuple[int, int]:
        """``(next block, payload length)`` of a chain page, entries unread."""
        buffer = self._pin(number)
        try:
            next_block, length = buffer.page.read_int(0), buffer.page.read_int(4)
        finally:
            self.buffers.unpin(buffer)
        if not _INT32.size <= length <= self._chain_capacity():
            raise StorageError(
                f"torn index page {number} in {self.file_name!r}: payload length {length}"
            )
        return next_block, length

    def _append_to_chain_page(self, number: int, length: int, entry: bytes) -> None:
        """Add an encoded entry to the ``length``-byte payload of a chain page.

        A record is its count then its entries, so the page then holds the
        very bytes ``_chain_payload`` writes for the old entries plus this one.
        """
        buffer = self._pin(number)
        try:
            page = buffer.page
            page.write_int(4, length + len(entry))
            page.write_int(8, page.read_int(8) + 1)
            page.write_bytes(8 + length, entry)
            buffer.mark_dirty()
        finally:
            self.buffers.unpin(buffer)

    def _link_chain_page(self, number: int, next_block: int) -> None:
        buffer = self._pin(number)
        try:
            buffer.page.write_int(0, next_block)
            buffer.mark_dirty()
        finally:
            self.buffers.unpin(buffer)

    def _bucket_block(self, key_bytes: bytes) -> int:
        return 1 + (zlib.crc32(key_bytes) % self.buckets)

    @staticmethod
    def _encode_key(key: Any) -> Optional[bytes]:
        # Numeric keys hash by *value*, not representation: ``1``, ``1.0``
        # and ``True`` are equal in Python (and in predicate evaluation) but
        # encode to different byte strings, which would make a float probe
        # miss an int entry.  Coerce every numeric key to float first; keys
        # too large for a float keep their exact encoding (a probe with the
        # same exact value still matches).
        if isinstance(key, (bool, int, float)):
            try:
                key = float(key)
            except OverflowError:
                pass
        try:
            return encode_value(key)
        except StorageError:
            return None

    # -- mutation ----------------------------------------------------------------

    def insert(self, key: Any, rid: RecordId) -> bool:
        if key is None:
            return False
        key_bytes = self._encode_key(key)
        if key_bytes is None:
            if not self.incomplete:
                self.incomplete = True
                self._save_meta()
            return False
        # Each page keeps its entries' bytes as written, so the new entry is
        # encoded once and appended where it fits; no page is re-encoded.
        entry = _chain_entry(key_bytes, rid[0], rid[1])
        number = self._bucket_block(key_bytes)
        while True:
            next_block, length = self._read_chain_header(number)
            if length + len(entry) <= self._chain_capacity():
                self._append_to_chain_page(number, length, entry)
                break
            if not next_block:
                self._link_chain_page(number, self._put_chain_page(None, 0, [entry]))
                break
            number = next_block
        self.entry_count += 1
        self._save_meta()
        return True

    def delete(self, key: Any, rid: RecordId) -> bool:
        if key is None:
            return False
        key_bytes = self._encode_key(key)
        if key_bytes is None:
            return False
        number = self._bucket_block(key_bytes)
        while number:
            next_block, entries = self._read_chain_page(number)
            for i, (existing, block, slot) in enumerate(entries):
                if existing == key_bytes and (block, slot) == rid:
                    del entries[i]
                    encoded = [_chain_entry(*entry) for entry in entries]
                    self._put_chain_page(number, next_block, encoded)
                    self.entry_count -= 1
                    self._save_meta()
                    return True
            number = next_block
        return False

    # -- lookup ------------------------------------------------------------------

    def search_eq(self, key: Any) -> List[RecordId]:
        if key is None:
            return []
        key_bytes = self._encode_key(key)
        if key_bytes is None:
            return []
        result: List[RecordId] = []
        number = self._bucket_block(key_bytes)
        while number:
            next_block, entries = self._read_chain_page(number)
            for existing, block, slot in entries:
                if existing == key_bytes:
                    result.append((block, slot))
            number = next_block
        return result

    def bulk_load(self, pairs: Iterable[Tuple[Any, RecordId]]) -> None:
        """Replace the index's contents with ``(key, rid)`` pairs.

        NULL and unencodable keys are skipped exactly as :meth:`insert`
        skips them (the latter mark the index ``incomplete``).
        """
        chains: List[List[bytes]] = [[] for _ in range(self.buckets)]
        incomplete = False
        for key, rid in pairs:
            if key is None:
                continue
            key_bytes = self._encode_key(key)
            if key_bytes is None:
                incomplete = True
                continue
            chains[self._bucket_block(key_bytes) - 1].append(_chain_entry(key_bytes, rid[0], rid[1]))
        self.delete_file()
        self._build(chains, incomplete)

    def average_leaf_entries(self) -> float:
        return self.entry_count / max(1, self.buckets)

    def __repr__(self) -> str:
        return (
            f"HashIndex({self.definition.name!r}, entries={self.entry_count}, "
            f"buckets={self.buckets})"
        )


def open_index(buffers: BufferManager, definition: IndexDefinition):
    """Open (or create empty) the index file behind ``definition``."""
    if definition.kind == BTREE:
        return BTreeIndex(buffers, definition)
    if definition.kind == HASH:
        return HashIndex(buffers, definition)
    raise StorageError(f"unknown index kind {definition.kind!r}")
