"""What one index write or probe costs, in value-codec calls.

B-tree nodes and hash chain pages are built and parsed from fixed parts
(``storage/index.py``): the generic codec (``encode_value`` /
``decode_value``) runs once per key and never on the tuple, block and slot
around it, and a hash insert appends its one entry to a chain page instead of
re-encoding the page.  Counted with wrappers around both functions in every
module that calls them, on indexes the size of the end-to-end benchmark's.
"""

from __future__ import annotations

import pytest

import repro.storage.index as index_module
import repro.storage.page as page_module
from repro.storage.buffer import BufferManager
from repro.storage.file import FileManager
from repro.storage.index import IndexDefinition, open_index


@pytest.fixture
def codec_calls(monkeypatch):
    """``{"encode_value": n, "decode_value": n}``, counted from a reset."""
    calls = {"encode_value": 0, "decode_value": 0}
    for name in calls:
        original = getattr(page_module, name)

        def counted(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(page_module, name, counted)
        if hasattr(index_module, name):
            monkeypatch.setattr(index_module, name, counted)
    return calls


def _open(tmp_path, kind, pairs):
    pool = BufferManager(FileManager(str(tmp_path)), pool_size=64)
    handle = open_index(pool, IndexDefinition("idx", "T", "K", kind))
    handle.bulk_load(pairs)
    return handle


@pytest.mark.parametrize("rows", [0, 3000, 12000])  # chains of 0, ~47 and ~190 entries
def test_a_hash_write_or_probe_encodes_its_key_once(tmp_path, codec_calls, rows):
    handle = _open(tmp_path, "hash", [(key, (key // 14, key % 14)) for key in range(rows)])
    number, chain = handle._bucket_block(handle._encode_key(rows)), 0
    while number:
        number, entries = handle._read_chain_page(number)
        chain += len(entries)
    assert rows // 128 <= chain <= rows // 32
    for operation in (
        lambda: handle.insert(rows, (900, 1)),
        lambda: handle.search_eq(rows),
        lambda: handle.delete(rows, (900, 1)),
    ):
        codec_calls.update(encode_value=0, decode_value=0)
        operation()
        assert codec_calls == {"encode_value": 1, "decode_value": 0}
    assert handle.search_eq(rows) == []


def test_a_btree_leaf_write_codes_each_touched_node_once(tmp_path, codec_calls):
    """An insert that splits nothing and a delete each decode the root and
    the leaf once — one ``decode_value`` per key they hold — and encode the
    leaf once: one ``encode_value`` per key it holds afterwards."""
    handle = _open(tmp_path, "btree", [(float(key), (key // 14, key % 14)) for key in range(2000)])
    assert handle.height == 2
    _, _, separators = handle._read_node(handle.root)
    key = (separators[3][0] + separators[4][0]) / 2
    _, _, leaf = handle._read_node(separators[3][1])
    leaves = handle.leaf_count

    codec_calls.update(encode_value=0, decode_value=0)
    assert handle.insert(key, (900, 1))
    assert handle.leaf_count == leaves
    assert codec_calls == {
        "encode_value": len(leaf) + 1,
        "decode_value": len(separators) + len(leaf),
    }

    codec_calls.update(encode_value=0, decode_value=0)
    assert handle.delete(key, (900, 1))
    assert codec_calls == {
        "encode_value": len(leaf),
        "decode_value": len(separators) + len(leaf) + 1,
    }
