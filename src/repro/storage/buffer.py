"""The buffer pool: pinned pages, replacement policy, and cache counters.

A :class:`BufferManager` keeps a bounded set of :class:`Buffer`s, each
holding one disk block in memory.  Clients :meth:`~BufferManager.pin` a
block to get a buffer (reading it from disk only on a miss), mutate the
page through the buffer, and :meth:`~BufferManager.unpin` it when done.
Dirty buffers are written back when evicted or on :meth:`~BufferManager.flush_all`.

Replacement is LRU: the least recently unpinned buffer is evicted, and only
unpinned buffers ever are; pinning more blocks than the pool holds raises
:class:`~repro.errors.StorageError` rather than blocking, because the
engine is single-threaded and a full pool means a pin leak.

The pool counts hits, misses, evictions, and the pinned-page high-water
mark; :meth:`BufferManager.stats` snapshots them as a :class:`BufferStats`
and ``BufferStats.delta`` isolates one query's traffic.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import StorageError
from repro.storage.file import FileManager
from repro.storage.page import BlockId, Page


@dataclass(frozen=True)
class BufferStats:
    """A snapshot of the pool's cumulative counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    pinned_peak: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Fraction of pins served from memory (0.0 when there were none)."""
        if not self.accesses:
            return 0.0
        return self.hits / self.accesses

    def delta(self, before: "BufferStats") -> "BufferStats":
        """Counters accumulated since ``before`` (peak is not differenced)."""
        return BufferStats(
            hits=self.hits - before.hits,
            misses=self.misses - before.misses,
            evictions=self.evictions - before.evictions,
            pinned_peak=self.pinned_peak,
        )


class Buffer:
    """One pool slot: a page, the block it holds, and its pin/dirty state."""

    __slots__ = ("page", "block", "pins", "dirty")

    def __init__(self, block_size: int) -> None:
        self.page = Page(block_size)
        self.block: Optional[BlockId] = None
        self.pins = 0
        self.dirty = False

    @property
    def is_pinned(self) -> bool:
        return self.pins > 0

    def mark_dirty(self) -> None:
        """Record that the page was modified and must be written back."""
        self.dirty = True

    def __repr__(self) -> str:
        return f"Buffer(block={self.block}, pins={self.pins}, dirty={self.dirty})"


class BufferManager:
    """A bounded pool of buffers over one :class:`FileManager`."""

    def __init__(self, file_manager: FileManager, pool_size: int = 64) -> None:
        if pool_size < 1:
            raise StorageError("buffer pool needs at least one buffer")
        self.file_manager = file_manager
        self.pool_size = int(pool_size)
        self._buffers: List[Buffer] = [
            Buffer(file_manager.block_size) for _ in range(self.pool_size)
        ]
        self._by_block: Dict[BlockId, Buffer] = {}
        self._free: List[Buffer] = list(self._buffers)
        # LRU order of *unpinned* resident buffers, oldest first.
        self._lru: "OrderedDict[BlockId, Buffer]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.pinned_peak = 0
        # Frames with at least one pin, kept on the 0→1 and 1→0 transitions.
        self._pinned = 0

    # -- public API --------------------------------------------------------------

    @property
    def pinned_count(self) -> int:
        return self._pinned

    def stats(self) -> BufferStats:
        return BufferStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            pinned_peak=self.pinned_peak,
        )

    def pin(self, block: BlockId) -> Buffer:
        """Return a buffer holding ``block``, reading it on a miss."""
        buffer = self._by_block.get(block)
        if buffer is not None:
            self.hits += 1
        else:
            self.misses += 1
            buffer = self._allocate()
            if buffer.block is not None:
                self._write_back(buffer)
                del self._by_block[buffer.block]
                self.evictions += 1
            self.file_manager.read(block, buffer.page)
            buffer.block = block
            buffer.dirty = False
            self._by_block[block] = buffer
        self._add_pin(buffer)
        self._lru.pop(block, None)
        return buffer

    def pin_new(self, file_name: str) -> Buffer:
        """Append a fresh zeroed block to ``file_name`` and pin it."""
        self.misses += 1
        buffer = self._allocate()
        if buffer.block is not None:
            self._write_back(buffer)
            del self._by_block[buffer.block]
            self.evictions += 1
        buffer.page.clear()
        block = self.file_manager.append(file_name, buffer.page)
        buffer.block = block
        buffer.dirty = False
        self._by_block[block] = buffer
        self._add_pin(buffer)
        return buffer

    def unpin(self, buffer: Buffer) -> None:
        """Release one pin; an unpinned buffer becomes eligible for eviction."""
        if buffer.pins <= 0:
            raise StorageError(f"unpin of an unpinned buffer: {buffer!r}")
        buffer.pins -= 1
        if buffer.pins == 0:
            self._pinned -= 1
            if buffer.block is not None:
                self._lru[buffer.block] = buffer

    def flush_all(self) -> None:
        """Write every dirty resident buffer back to disk."""
        for buffer in self._buffers:
            self._write_back(buffer)

    def discard(self, file_name: str) -> None:
        """Drop every resident block of ``file_name`` without writing back.

        Used when a table file is deleted: its cached pages must not survive
        to be served for a later file of the same name.
        """
        stale = [block for block in self._by_block if block.file_name == file_name]
        for block in stale:
            buffer = self._by_block.pop(block)
            if buffer.is_pinned:
                raise StorageError(f"cannot discard pinned block {block}")
            self._lru.pop(block, None)
            buffer.block = None
            buffer.dirty = False
            self._free.append(buffer)

    # -- internals ---------------------------------------------------------------

    def _add_pin(self, buffer: Buffer) -> None:
        if buffer.pins == 0:
            self._pinned += 1
            if self._pinned > self.pinned_peak:
                self.pinned_peak = self._pinned
        buffer.pins += 1

    def _write_back(self, buffer: Buffer) -> None:
        if buffer.dirty and buffer.block is not None:
            self.file_manager.write(buffer.block, buffer.page)
            buffer.dirty = False

    def _allocate(self) -> Buffer:
        if self._free:
            return self._free.pop()
        victim = self._evict_lru()
        if victim is None:
            raise StorageError(
                f"buffer pool exhausted: all {self.pool_size} buffers are pinned"
            )
        return victim

    def _evict_lru(self) -> Optional[Buffer]:
        for block, buffer in self._lru.items():
            if not buffer.is_pinned:
                del self._lru[block]
                return buffer
        return None
