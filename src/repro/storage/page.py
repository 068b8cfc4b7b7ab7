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
from functools import lru_cache
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import StorageError
from repro.relational.types import DataObject, TimeSeries

#: Default size of one disk block, in bytes.
DEFAULT_BLOCK_SIZE = 4096

_INT32 = struct.Struct(">i")
_INT64 = struct.Struct(">q")
_FLOAT64 = struct.Struct(">d")
_unpack_int32 = _INT32.unpack_from
_unpack_int64 = _INT64.unpack_from
_unpack_float64 = _FLOAT64.unpack_from


@lru_cache(maxsize=256)
def doubles(count: int) -> struct.Struct:
    """The codec of a time series' ``count`` floats, built once per length."""
    return struct.Struct(f">{count}d")


_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

# Value tags.  NULL and the two booleans need no payload at all.  The tags are
# part of the on-disk format: ``index.py`` lays out its node headers with them.
TAG_NULL = 0
TAG_FALSE = 1
TAG_TRUE = 2
TAG_INT64 = 3
TAG_BIGINT = 4
TAG_FLOAT = 5
TAG_STRING = 6
TAG_BYTES = 7
TAG_DATA_OBJECT = 8
TAG_TIME_SERIES = 9
TAG_TUPLE = 10
TAG_LIST = 11


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
        self.data[:] = bytes(len(self.data))

    def __repr__(self) -> str:
        return f"Page(block_size={len(self.data)})"


# -- the value codec -------------------------------------------------------------------


def encode_value(value: Any) -> bytes:
    """Serialize one column value into a self-describing byte string."""
    if value is None:
        return bytes((TAG_NULL,))
    if isinstance(value, bool):
        return bytes((TAG_TRUE if value else TAG_FALSE,))
    if isinstance(value, int):
        if _INT64_MIN <= value <= _INT64_MAX:
            return bytes((TAG_INT64,)) + _INT64.pack(value)
        raw = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
        return bytes((TAG_BIGINT,)) + _INT32.pack(len(raw)) + raw
    if isinstance(value, float):
        return bytes((TAG_FLOAT,)) + _FLOAT64.pack(value)
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return bytes((TAG_STRING,)) + _INT32.pack(len(raw)) + raw
    if isinstance(value, (bytes, bytearray)):
        raw = bytes(value)
        return bytes((TAG_BYTES,)) + _INT32.pack(len(raw)) + raw
    if isinstance(value, DataObject):
        return (
            bytes((TAG_DATA_OBJECT,)) + _INT64.pack(value.size) + encode_value(value.seed)
        )
    if isinstance(value, TimeSeries):
        values = value.values
        return (
            bytes((TAG_TIME_SERIES,))
            + _INT32.pack(len(values))
            + doubles(len(values)).pack(*values)
        )
    if isinstance(value, (tuple, list)):
        tag = TAG_TUPLE if isinstance(value, tuple) else TAG_LIST
        encoded = b"".join(encode_value(item) for item in value)
        return bytes((tag,)) + _INT32.pack(len(value)) + encoded
    raise StorageError(f"cannot serialize value of type {type(value).__name__!r}")


def decode_value(buffer: bytes, offset: int = 0) -> Tuple[Any, int]:
    """Decode one value at ``offset``; returns ``(value, next_offset)``.

    ``buffer`` is any bytes-like object — a page's ``bytearray`` or a
    ``memoryview`` of it — so records decode where they lie.  The tags are
    tested most frequent first.
    """
    tag = buffer[offset]
    offset += 1
    if tag == TAG_INT64:
        return _unpack_int64(buffer, offset)[0], offset + 8
    if tag == TAG_FLOAT:
        return _unpack_float64(buffer, offset)[0], offset + 8
    if tag == TAG_STRING:
        end = offset + 4 + _unpack_int32(buffer, offset)[0]
        return str(buffer[offset + 4 : end], "utf-8"), end
    if tag == TAG_TIME_SERIES:
        count = _unpack_int32(buffer, offset)[0]
        values = doubles(count).unpack_from(buffer, offset + 4)
        return TimeSeries.from_floats(values), offset + 4 + 8 * count
    if tag == TAG_NULL:
        return None, offset
    if tag == TAG_FALSE:
        return False, offset
    if tag == TAG_TRUE:
        return True, offset
    if tag == TAG_BYTES:
        end = offset + 4 + _unpack_int32(buffer, offset)[0]
        return bytes(buffer[offset + 4 : end]), end
    if tag == TAG_BIGINT:
        end = offset + 4 + _unpack_int32(buffer, offset)[0]
        return int.from_bytes(buffer[offset + 4 : end], "big", signed=True), end
    if tag == TAG_DATA_OBJECT:
        size = _unpack_int64(buffer, offset)[0]
        seed, offset = decode_value(buffer, offset + 8)
        return DataObject(size, seed=seed), offset
    if tag in (TAG_TUPLE, TAG_LIST):
        count = _INT32.unpack_from(buffer, offset)[0]
        offset += 4
        items: List[Any] = []
        for _ in range(count):
            item, offset = decode_value(buffer, offset)
            items.append(item)
        return (tuple(items) if tag == TAG_TUPLE else items), offset
    raise StorageError(f"corrupt record: unknown value tag {tag}")


def encode_record(values: Any) -> bytes:
    """Serialize one row's values as a length-counted record."""
    values = tuple(values)
    return _INT32.pack(len(values)) + b"".join(encode_value(value) for value in values)


def decode_record(buffer: bytes, offset: int = 0) -> Tuple[Tuple[Any, ...], int]:
    """Decode one record at ``offset``; returns ``(values, next_offset)``."""
    count = _unpack_int32(buffer, offset)[0]
    offset += 4
    values: List[Any] = []
    for _ in range(count):
        value, offset = decode_value(buffer, offset)
        values.append(value)
    return tuple(values), offset


# -- the record codec, compiled per column-type tuple ------------------------------------

#: The usual encoding of each column type the record codec packs itself: the
#: value tag, the exact Python type, the struct code of the value (fixed width)
#: or of its length prefix, and for a prefixed value the payload's bytes per
#: unit of that length, the payload as source over ``v``, the value as source
#: over the payload ``buffer[start:end]`` of ``n`` units, and the statement
#: that checks the payload as building the value does, without building it
#: (None: building it checks nothing).
_USUAL = {
    "INTEGER": (TAG_INT64, "int", "q", None),
    "FLOAT": (TAG_FLOAT, "float", "d", None),
    "STRING": (TAG_STRING, "str", "i", (
        1, "{v}.encode()", "str(buffer[start:end], 'utf-8')", "str(buffer[start:end], 'utf-8')",
    )),
    "BYTES": (TAG_BYTES, "bytes", "i", (1, "{v}", "bytes(buffer[start:end])", None)),
    "TIME_SERIES": (TAG_TIME_SERIES, "TimeSeries", "i", (
        8, "doubles(len({v}.values)).pack(*{v}.values)",
        "from_floats(doubles({n}).unpack_from(buffer, start))",
        "if end > len(buffer): return None",  # where unpack_from raises struct.error
    )),
}


class RecordCodec(NamedTuple):
    """The record codec of one column-type tuple (see :func:`record_codec`)."""

    encode: Callable[[Sequence[Any]], Optional[bytes]]
    decode: Callable[[Any, int], Optional[Tuple[Tuple[Any, ...], int]]]


@lru_cache(maxsize=256)  # one per type tuple, shared by every layout and index of it
def record_codec(
    type_names: Tuple[Optional[str], ...], column: Optional[int] = None
) -> RecordCodec:
    """The codec of records whose columns have ``type_names``.

    ``encode(values)`` is :func:`encode_record`'s bytes and ``decode(buffer,
    offset)`` is :func:`decode_record`'s ``(values, next_offset)`` for any
    bytes-like buffer, each making one struct call per run of fixed-width
    values with their tags plus the next length prefix.  A column whose type
    has no usual encoding (``DATA_OBJECT``, ``BOOLEAN``, an index key's
    ``None``) goes through :func:`encode_value` / :func:`decode_value` in
    place.  Both return None when a value or tag is not its column's usual one
    (NULL, an integer past 64 bits, an int in a FLOAT column), the arity
    differs or the buffer is too short for a run.  The source is generated
    once per type tuple, as ``collections.namedtuple`` does.

    With ``column``, ``decode`` returns ``(value, next_offset)`` of that one
    column instead: it reads and checks every column as the full decode does
    (tags, length prefixes, the UTF-8 of a string, a payload that runs past
    the buffer) and returns None exactly when it does, but builds no value it
    does not return where building it checks nothing more (a time series).
    """
    bindings: Dict[str, Any] = {"from_floats": TimeSeries.from_floats}
    tests: List[str] = []  # encode's type tests
    raws: List[str] = []  # encode's payloads, computed before the pack calls
    parts: List[str] = []  # encode's result, concatenated
    body: List[str] = []  # decode's statements
    arity = len(type_names)
    # The open run: its struct format, the values packed, the names unpacked
    # and the tests that make decode return None.
    code, packed, targets, checks = ">i", [str(arity)], ["count"], [f"count != {arity}"]
    position = "offset"

    def flush() -> str:
        """Close the open run as one pack and one unpack; the offset after it."""
        nonlocal code, packed, targets, checks
        codec = struct.Struct(code)
        name = str(len(body))
        bindings["unpack" + name] = codec.unpack_from
        if all(item.isdigit() for item in packed):  # the value count alone
            bindings["head" + name] = codec.pack(*map(int, packed))
            parts.append("head" + name)
        else:
            bindings["pack" + name] = codec.pack
            parts.append(f"pack{name}({', '.join(packed)})")
        body.append(f"{', '.join(targets)}, = unpack{name}(buffer, {position})")
        body.append(f"if {' or '.join(checks)}: return None")
        code, packed, targets, checks = ">", [], [], []
        return f"{position} + {codec.size}"

    for index, type_name in enumerate(type_names):
        value, length = f"v{index}", f"n{index}"
        if type_name not in _USUAL:
            if targets:
                position = flush()
            parts.append(f"encode_value({value})")
            body.append(f"{value}, end = decode_value(buffer, {position})")
            position = "end"
            continue
        tag, kind, struct_code, payload = _USUAL[type_name]
        tests.append(f"type({value}) is not {kind}")
        code += "B" + struct_code
        checks.append(f"t{index} != {tag}")
        if payload is None:
            packed += [str(tag), value]
            targets += [f"t{index}", value]
            continue
        width, raw, decoded, check = payload
        raws.append(f"r{index} = {raw.format(v=value)}")
        packed += [str(tag), f"len(r{index})" + ("" if width == 1 else f" // {width}")]
        targets += [f"t{index}", length]
        checks.append(f"{length} < 0")
        body.append(f"start = {flush()}")
        parts.append(f"r{index}")
        body.append(f"end = start + {'' if width == 1 else f'{width} * '}{length}")
        if column in (None, index):
            body.append(f"{value} = {decoded.format(n=length)}")
        elif check is not None:
            body.append(check)
        position = "end"
    if targets:
        body.append(f"end = {flush()}")
    values = "".join(f"v{index}, " for index in range(arity))
    source = "\n".join(
        [f"def make({', '.join(bindings)}):", "  def encode(values):", "    try:",
         f"      [{values}] = values"]
        + ([f"      if {' or '.join(tests)}: return None"] if tests else [])
        + [f"      {line}" for line in raws]
        + [f"      return {' + '.join(parts)}", "    except (ValueError, struct.error):",
           "      return None", "  def decode(buffer, offset):", "    try:"]
        + [f"      {line}" for line in body]
        + ["    except struct.error:", "      return None",
           f"    return ({values}), end" if column is None else f"    return v{column}, end",
           "  return RecordCodec(encode, decode)"]
    )
    namespace: Dict[str, Any] = {}
    exec(source, globals(), namespace)  # module globals: a patched encode_value is seen
    return namespace["make"](**bindings)
