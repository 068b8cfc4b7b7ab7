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
length, payload)`` whose payload is ``[(encoded_key, block, slot), ...]``.
Bucketing hashes ``crc32(encode_value(key))`` — deliberately not Python's
process-randomised ``hash()`` — so a reopened database hashes identically.

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
import zlib
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import StorageError
from repro.storage.buffer import BufferManager
from repro.storage.page import BlockId, decode_record, encode_record, encode_value
from repro.storage.record import RecordId

_BTREE_MAGIC = 0x1DB7
_HASH_MAGIC = 0x1DB8
#: Hard cap on node fanout, besides the page-size limit.
_MAX_NODE_ENTRIES = 128
_DEFAULT_BUCKETS = 64
#: Share of a B-tree page a bulk build fills, so that the first inserts after
#: a build find room instead of each splitting a leaf.
_BULK_FILL = 0.9

#: Encoded size of a node / a chain page holding no entries.
_NODE_OVERHEAD = len(encode_record((1, -1, [])))
_CHAIN_OVERHEAD = len(encode_record([]))

BTREE = "btree"
HASH = "hash"


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


def _pack(items: Sequence[tuple], budget: int, limit: Optional[int] = None) -> Iterator[List[tuple]]:
    """Cut ``items`` into consecutive runs of at most ``budget`` encoded bytes.

    The codec is additive — a list costs a fixed header plus its items — so
    a run's page payload is the caller's fixed overhead plus this sum.  A
    single item larger than ``budget`` still gets a run of its own.
    """
    run: List[tuple] = []
    used = 0
    for item in items:
        size = len(encode_value(item))
        if run and (used + size > budget or len(run) == limit):
            yield run
            run, used = [], 0
        run.append(item)
        used += size
    if run:
        yield run


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

    def _fits(self, entries: List[tuple], payload: bytes) -> bool:
        return len(entries) <= _MAX_NODE_ENTRIES and len(payload) <= self._node_capacity()

    def _read_node(self, number: int) -> Tuple[int, int, List[tuple]]:
        buffer = self._pin(number)
        try:
            length = buffer.page.read_int(0)
            payload = buffer.page.read_bytes(4, length)
        finally:
            self.buffers.unpin(buffer)
        values, _ = decode_record(payload)
        is_leaf, pointer, entries = values
        return int(is_leaf), int(pointer), [tuple(entry) for entry in entries]

    def _put_node(self, number: Optional[int], payload: bytes) -> int:
        """Write an encoded node to block ``number`` (a new block when None)."""
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

    def _write_node(self, number: int, node: Tuple[int, int, List[tuple]]) -> None:
        self._put_node(number, encode_record(node))

    def _allocate_node(self, node: Tuple[int, int, List[tuple]]) -> int:
        return self._put_node(None, encode_record(node))

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
            sep_key, right = split
            self.root = self._allocate_node((0, self.root, [(sep_key, right)]))
            self.height += 1
        self.entry_count += 1
        self._save_meta()
        return True

    def _insert_into(
        self, number: int, depth: int, sk: Tuple[int, Any], key: Any, rid: RecordId
    ) -> Optional[Tuple[Any, int]]:
        """Insert below node ``number``; a split returns ``(separator, right)``.

        Each touched node is encoded once: the bytes that decide whether it
        still fits its page are the bytes written.
        """
        _, pointer, entries = self._read_node(number)
        if depth == 1:
            orders = [_posting_order(entry) for entry in entries]
            position = bisect_right(orders, (sk, rid[0], rid[1]))
            entries.insert(position, (key, rid[0], rid[1]))
            payload = encode_record((1, pointer, entries))
            if self._fits(entries, payload):
                self._put_node(number, payload)
                return None
            middle = self._split_point(1, pointer, entries)
            right_entries = entries[middle:]
            right = self._allocate_node((1, pointer, right_entries))
            self.leaf_count += 1
            self._write_node(number, (1, right, entries[:middle]))
            return (right_entries[0][0], right)
        orders = _key_orders(entries)
        at = bisect_right(orders, sk)
        child = entries[at - 1][1] if at else pointer
        split = self._insert_into(child, depth - 1, sk, key, rid)
        if split is None:
            return None
        sep_key, new_child = split
        position = bisect_right(orders, sort_key(sep_key))
        entries.insert(position, (sep_key, new_child))
        payload = encode_record((0, pointer, entries))
        if self._fits(entries, payload):
            self._put_node(number, payload)
            return None
        middle = self._split_point(0, pointer, entries)
        promoted, promoted_child = entries[middle]
        right = self._allocate_node((0, promoted_child, entries[middle + 1 :]))
        self._write_node(number, (0, pointer, entries[:middle]))
        return (promoted, right)

    def _split_point(self, is_leaf: int, pointer: int, entries: List[tuple]) -> int:
        """Where an overflowing node splits: the middle, unless keys of very
        different sizes leave a half that still overflows its page — then the
        nearest point at which both halves fit."""
        middle = len(entries) // 2

        def fits(half: List[tuple]) -> bool:
            return self._fits(half, encode_record((is_leaf, pointer, half)))

        while middle > 1 and not fits(entries[:middle]):
            middle -= 1
        while middle < len(entries) - 2 and not fits(entries[middle:]):
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
                    self._write_node(number, (1, next_leaf, entries))
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

    def _runs(self, items: Sequence[tuple]) -> Iterator[List[tuple]]:
        return _pack(
            items,
            int((self._node_capacity() - _NODE_OVERHEAD) * _BULK_FILL),
            int(_MAX_NODE_ENTRIES * _BULK_FILL),
        )

    def _build(self, entries: List[tuple], incomplete: bool) -> None:
        """Write a fresh file holding the sorted ``entries``.

        Leaves are packed left to right, each encoded and written once and
        chained to the block the next one will get; every internal level is
        packed the same way over the first keys of the level below; the meta
        page is written last, once.
        """
        self._allocate_meta()  # block 0
        leaves = list(self._runs(entries)) or [[]]
        level: List[Tuple[Any, int]] = []
        for position, run in enumerate(leaves):
            number = self.block_count()
            is_last = position == len(leaves) - 1
            self._allocate_node((1, -1 if is_last else number + 1, run))
            level.append((run[0][0] if run else None, number))
        self.height = 1
        while len(level) > 1:
            # A node stores its first child as the bare pointer, so a run of
            # children is one entry longer than the node it becomes.
            level = [
                (run[0][0], self._allocate_node((0, run[0][1], run[1:])))
                for run in self._runs(level)
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

    def _build(self, chains: List[List[tuple]], incomplete: bool) -> None:
        """Write a fresh file with one chain per bucket, each page once.

        Bucket heads are blocks ``1..buckets``; overflow pages follow in
        bucket order, so every page's successor is known before it is written.
        """
        self._allocate_meta()  # block 0
        budget = self.buffers.file_manager.block_size - 8 - _CHAIN_OVERHEAD
        overflow = itertools.count(len(chains) + 1)
        pages: List[Tuple[int, int, List[tuple]]] = []  # (block, next block, entries)
        for bucket, chain in enumerate(chains):
            runs = list(_pack(chain, budget)) or [[]]
            blocks = [1 + bucket] + [next(overflow) for _ in runs[1:]]
            pages.extend(zip(blocks, blocks[1:] + [0], runs))
        for _, next_block, entries in sorted(pages, key=lambda page: page[0]):
            buffer = self._pin_new()
            try:
                self._write_chain_page(buffer.page, next_block, entries)
                buffer.mark_dirty()
            finally:
                self.buffers.unpin(buffer)
        self.buckets = len(chains)
        self.entry_count = sum(len(chain) for chain in chains)
        self.incomplete = incomplete
        self._save_meta()

    def _save_meta(self) -> None:
        self._write_meta(
            _HASH_MAGIC, [self.buckets, self.entry_count, 1 if self.incomplete else 0]
        )

    # -- chain pages -------------------------------------------------------------

    def _write_chain_page(self, page, next_block: int, entries: List[tuple]) -> None:
        payload = encode_record(entries)
        if len(payload) > self.buffers.file_manager.block_size - 8:
            raise StorageError(
                f"hash chain page overflow in {self.file_name!r} "
                f"({len(payload)} bytes)"
            )
        page.write_int(0, next_block)
        page.write_int(4, len(payload))
        page.write_bytes(8, payload)

    def _read_chain_page(self, number: int) -> Tuple[int, List[tuple]]:
        buffer = self._pin(number)
        try:
            next_block = buffer.page.read_int(0)
            length = buffer.page.read_int(4)
            payload = buffer.page.read_bytes(8, length)
        finally:
            self.buffers.unpin(buffer)
        values, _ = decode_record(payload)
        return next_block, [tuple(entry) for entry in values]

    def _chain_fits(self, entries: List[tuple]) -> bool:
        return len(encode_record(entries)) <= self.buffers.file_manager.block_size - 8

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
        except Exception:
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
        number = self._bucket_block(key_bytes)
        while True:
            next_block, entries = self._read_chain_page(number)
            candidate = entries + [(key_bytes, rid[0], rid[1])]
            if self._chain_fits(candidate):
                self._rewrite_chain_page(number, next_block, candidate)
                break
            if next_block:
                number = next_block
                continue
            overflow = self._pin_new()
            try:
                self._write_chain_page(overflow.page, 0, [(key_bytes, rid[0], rid[1])])
                overflow.mark_dirty()
                overflow_number = overflow.block.number
            finally:
                self.buffers.unpin(overflow)
            self._rewrite_chain_page(number, overflow_number, entries)
            break
        self.entry_count += 1
        self._save_meta()
        return True

    def _rewrite_chain_page(self, number: int, next_block: int, entries: List[tuple]) -> None:
        buffer = self._pin(number)
        try:
            self._write_chain_page(buffer.page, next_block, entries)
            buffer.mark_dirty()
        finally:
            self.buffers.unpin(buffer)

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
                    self._rewrite_chain_page(number, next_block, entries)
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
        chains: List[List[tuple]] = [[] for _ in range(self.buckets)]
        incomplete = False
        for key, rid in pairs:
            if key is None:
                continue
            key_bytes = self._encode_key(key)
            if key_bytes is None:
                incomplete = True
                continue
            chains[self._bucket_block(key_bytes) - 1].append((key_bytes, rid[0], rid[1]))
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
