"""An index page is unpacked one run of equal-width entries at a time.

``_parse_entries`` decodes the first entry of a run with the page's record
codec, then matches and unpacks every following entry laid out alike — the
same tags, arity and length prefix — in one call each.  It must answer
exactly as decoding each entry with the codec does: the same entries for a
sound page, and the same exception class for a torn one (``_parse_payload``
turns it into ``StorageError``).  The per-entry decoder is kept here as the
oracle, and every page below is a real one a bulk load wrote.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager
from typing import Iterator, List

import pytest

import repro.storage.index as index_module
from repro.storage.buffer import BufferManager
from repro.storage.file import FileManager
from repro.storage.index import IndexDefinition, _parse_chain, _parse_node, open_index
from repro.storage.page import TAG_TUPLE, BlockId, RecordCodec


def per_entry(view: memoryview, offset: int, count: int, codec: RecordCodec) -> List[tuple]:
    """The oracle: one codec call per entry."""
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


@contextmanager
def decoded_per_entry() -> Iterator[None]:
    runs = index_module._parse_entries
    index_module._parse_entries = per_entry
    try:
        yield
    finally:
        index_module._parse_entries = runs


def outcome(parse, payload: bytes) -> tuple:
    """What ``parse`` makes of ``payload``: its entries (``repr``, so a NaN
    a corruption made compares) or the class of what it raised."""
    try:
        with memoryview(bytearray(payload)) as view:
            return ("entries", repr(parse(view)))
    except Exception as error:  # the class is what is compared
        return ("raised", type(error))


def payload(handle, number: int, at: int) -> bytes:
    """The payload bytes of block ``number``: its length is the int32 at ``at``."""
    buffer = handle.buffers.pin(BlockId(handle.file_name, number))
    try:
        data = bytes(buffer.page.data)
    finally:
        handle.buffers.unpin(buffer)
    (length,) = struct.unpack_from(">i", data, at)
    return data[at + 4 : at + 4 + length]


def _first_leaf(handle) -> int:
    number = handle.root
    while True:
        is_leaf, pointer, entries = handle._read_node(number)
        if is_leaf:
            return number
        number = pointer


@pytest.fixture(scope="module")
def pages(tmp_path_factory):
    """name -> (parse, payload) of a real page of each kind."""
    pool = BufferManager(FileManager(str(tmp_path_factory.mktemp("index-runs"))), pool_size=64)

    def loaded(name: str, kind: str, keys) -> object:
        handle = open_index(pool, IndexDefinition(name, "T", "K", kind))
        handle.bulk_load([(key, (index // 14, index % 14)) for index, key in enumerate(keys)])
        return handle

    bucket = loaded("bucket", "hash", range(6000))
    floats = loaded("floats", "btree", [index * 0.5 for index in range(3000)])
    ints = loaded("ints", "btree", range(3000))
    strings = loaded("strings", "btree", ["k" * (index % 7) + str(index) for index in range(400)])
    found = {
        "bucket page": (_parse_chain, payload(bucket, 1, 4)),
        "float leaf": (_parse_node, payload(floats, _first_leaf(floats), 0)),
        "float internal node": (_parse_node, payload(floats, floats.root, 0)),
        "int leaf": (_parse_node, payload(ints, _first_leaf(ints), 0)),
        "mixed-width string leaf": (_parse_node, payload(strings, _first_leaf(strings), 0)),
    }
    return found


NAMES = ["bucket page", "float leaf", "float internal node", "int leaf", "mixed-width string leaf"]


def entries_of(parse, data: bytes) -> list:
    with memoryview(data) as view:
        parsed = parse(view)
    return parsed if parse is _parse_chain else parsed[2]


@pytest.mark.parametrize("name", NAMES)
def test_a_sound_page_parses_to_the_per_entry_decoders_entries(pages, name):
    parse, data = pages[name]
    entries = entries_of(parse, data)
    with decoded_per_entry():
        assert entries_of(parse, data) == entries
    assert len(entries) >= 20


#: What a corruption writes over one byte: its lowest bit flipped (a tag one
#: off, a length one off), and every bit flipped.
CORRUPTIONS = (lambda byte: byte ^ 0x01, lambda byte: byte ^ 0xFF)


@pytest.mark.parametrize("name", NAMES)
def test_every_torn_byte_and_truncation_answers_as_the_per_entry_decoder(pages, name):
    parse, data = pages[name]
    torn = [data[:cut] for cut in range(len(data))]
    for position in range(len(data)):
        for corrupt in CORRUPTIONS:
            changed = bytearray(data)
            changed[position] = corrupt(changed[position])
            torn.append(bytes(changed))
    runs = [outcome(parse, page) for page in torn]
    with decoded_per_entry():
        oracle = [outcome(parse, page) for page in torn]
    mismatches = [(page, mine, theirs) for page, mine, theirs in zip(torn, runs, oracle) if mine != theirs]
    assert not mismatches, mismatches[:3]
    assert {kind for kind, _ in runs} == {"entries", "raised"}
