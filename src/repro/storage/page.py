"""Fixed-size pages, block addresses, and the on-page value codec.

A :class:`Page` is a mutable fixed-size byte buffer — the unit the
:class:`~repro.storage.file.FileManager` reads and writes and the
:class:`~repro.storage.buffer.BufferManager` caches.  :class:`BlockId`
addresses one block of one file.

The codec serializes any legal column value — every built-in
:class:`~repro.relational.types.DataType` plus the best-effort fallbacks
``value_size`` already prices — into a self-describing byte string that
round-trips exactly.  Self-description (a one-byte tag per value) matters
because column types admit mixed runtime representations: a FLOAT column may
hold Python ints, an INTEGER value may exceed 64 bits, and both must come
back from disk as the very objects that went in, or the paged path's wire
accounting would silently diverge from the in-memory path.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, List, Tuple

from repro.errors import StorageError
from repro.relational.types import DataObject, TimeSeries

#: Default size of one disk block, in bytes.
DEFAULT_BLOCK_SIZE = 4096

_INT32 = struct.Struct(">i")
_INT64 = struct.Struct(">q")
_FLOAT64 = struct.Struct(">d")

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

# Value tags.  NULL and the two booleans need no payload at all.
_TAG_NULL = 0
_TAG_FALSE = 1
_TAG_TRUE = 2
_TAG_INT64 = 3
_TAG_BIGINT = 4
_TAG_FLOAT = 5
_TAG_STRING = 6
_TAG_BYTES = 7
_TAG_DATA_OBJECT = 8
_TAG_TIME_SERIES = 9
_TAG_TUPLE = 10
_TAG_LIST = 11


@dataclass(frozen=True)
class BlockId:
    """The address of one fixed-size block: a file name and a block number."""

    file_name: str
    number: int

    def __str__(self) -> str:
        return f"{self.file_name}:{self.number}"


class Page:
    """A fixed-size byte buffer with typed accessors.

    Pages know nothing about records or slots — they only move int32s and
    byte runs at explicit offsets.  The record layer builds slotted pages on
    top; the file manager moves whole pages to and from disk.
    """

    __slots__ = ("data",)

    def __init__(self, block_size: int = DEFAULT_BLOCK_SIZE) -> None:
        if block_size < 64:
            raise StorageError(f"block size {block_size} is too small to be useful")
        self.data = bytearray(block_size)

    @property
    def block_size(self) -> int:
        return len(self.data)

    def read_int(self, offset: int) -> int:
        return _INT32.unpack_from(self.data, offset)[0]

    def write_int(self, offset: int, value: int) -> None:
        _INT32.pack_into(self.data, offset, value)

    def read_bytes(self, offset: int, length: int) -> bytes:
        return bytes(self.data[offset : offset + length])

    def write_bytes(self, offset: int, payload: bytes) -> None:
        if offset + len(payload) > len(self.data):
            raise StorageError(
                f"write of {len(payload)} bytes at offset {offset} overflows a "
                f"{len(self.data)}-byte page"
            )
        self.data[offset : offset + len(payload)] = payload

    def clear(self) -> None:
        for index in range(len(self.data)):
            self.data[index] = 0

    def __repr__(self) -> str:
        return f"Page(block_size={len(self.data)})"


# -- the value codec -------------------------------------------------------------------


def encode_value(value: Any) -> bytes:
    """Serialize one column value into a self-describing byte string."""
    if value is None:
        return bytes((_TAG_NULL,))
    if isinstance(value, bool):
        return bytes((_TAG_TRUE if value else _TAG_FALSE,))
    if isinstance(value, int):
        if _INT64_MIN <= value <= _INT64_MAX:
            return bytes((_TAG_INT64,)) + _INT64.pack(value)
        raw = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
        return bytes((_TAG_BIGINT,)) + _INT32.pack(len(raw)) + raw
    if isinstance(value, float):
        return bytes((_TAG_FLOAT,)) + _FLOAT64.pack(value)
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return bytes((_TAG_STRING,)) + _INT32.pack(len(raw)) + raw
    if isinstance(value, (bytes, bytearray)):
        raw = bytes(value)
        return bytes((_TAG_BYTES,)) + _INT32.pack(len(raw)) + raw
    if isinstance(value, DataObject):
        return (
            bytes((_TAG_DATA_OBJECT,)) + _INT64.pack(value.size) + encode_value(value.seed)
        )
    if isinstance(value, TimeSeries):
        values = value.values
        return (
            bytes((_TAG_TIME_SERIES,))
            + _INT32.pack(len(values))
            + struct.pack(f">{len(values)}d", *values)
        )
    if isinstance(value, (tuple, list)):
        tag = _TAG_TUPLE if isinstance(value, tuple) else _TAG_LIST
        encoded = b"".join(encode_value(item) for item in value)
        return bytes((tag,)) + _INT32.pack(len(value)) + encoded
    raise StorageError(f"cannot serialize value of type {type(value).__name__!r}")


def decode_value(buffer: bytes, offset: int = 0) -> Tuple[Any, int]:
    """Decode one value at ``offset``; returns ``(value, next_offset)``."""
    tag = buffer[offset]
    offset += 1
    if tag == _TAG_NULL:
        return None, offset
    if tag == _TAG_FALSE:
        return False, offset
    if tag == _TAG_TRUE:
        return True, offset
    if tag == _TAG_INT64:
        return _INT64.unpack_from(buffer, offset)[0], offset + 8
    if tag == _TAG_BIGINT:
        length = _INT32.unpack_from(buffer, offset)[0]
        offset += 4
        raw = buffer[offset : offset + length]
        return int.from_bytes(raw, "big", signed=True), offset + length
    if tag == _TAG_FLOAT:
        return _FLOAT64.unpack_from(buffer, offset)[0], offset + 8
    if tag in (_TAG_STRING, _TAG_BYTES):
        length = _INT32.unpack_from(buffer, offset)[0]
        offset += 4
        raw = bytes(buffer[offset : offset + length])
        if tag == _TAG_STRING:
            return raw.decode("utf-8"), offset + length
        return raw, offset + length
    if tag == _TAG_DATA_OBJECT:
        size = _INT64.unpack_from(buffer, offset)[0]
        seed, offset = decode_value(buffer, offset + 8)
        return DataObject(size, seed=seed), offset
    if tag == _TAG_TIME_SERIES:
        count = _INT32.unpack_from(buffer, offset)[0]
        offset += 4
        values = struct.unpack_from(f">{count}d", buffer, offset)
        return TimeSeries.from_floats(values), offset + 8 * count
    if tag in (_TAG_TUPLE, _TAG_LIST):
        count = _INT32.unpack_from(buffer, offset)[0]
        offset += 4
        items: List[Any] = []
        for _ in range(count):
            item, offset = decode_value(buffer, offset)
            items.append(item)
        return (tuple(items) if tag == _TAG_TUPLE else items), offset
    raise StorageError(f"corrupt record: unknown value tag {tag}")


def encode_record(values: Any) -> bytes:
    """Serialize one row's values as a length-counted record."""
    values = tuple(values)
    return _INT32.pack(len(values)) + b"".join(encode_value(value) for value in values)


def decode_record(buffer: bytes, offset: int = 0) -> Tuple[Tuple[Any, ...], int]:
    """Decode one record at ``offset``; returns ``(values, next_offset)``."""
    count = _INT32.unpack_from(buffer, offset)[0]
    offset += 4
    values: List[Any] = []
    for _ in range(count):
        value, offset = decode_value(buffer, offset)
        values.append(value)
    return tuple(values), offset
