"""Index pages, checked against a model and against the generic codec.

* A Hypothesis state machine drives a B-tree and a hash index over one small
  buffer pool through bulk loads, inserts, deletes and reopens, and after
  every step holds both to a model — the multiset of ``(key, rid)``
  postings — and walks the B-tree's structure and the hash index's chains.
* Node and chain payloads are the bytes ``encode_record`` writes, built and
  parsed from fixed parts: random leaves, internal nodes and chains encode to
  the same bytes and parse back, and a torn fixed part raises
  ``StorageError`` instead of decoding to a wrong posting.
"""

from __future__ import annotations

import itertools
import shutil
import struct
import tempfile

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.errors import StorageError
from repro.storage.buffer import BufferManager
from repro.storage.file import FileManager
from repro.storage.index import (
    _MAX_NODE_ENTRIES,
    IndexDefinition,
    _chain_entry,
    _chain_payload,
    _encode_entries,
    _node_payload,
    _parse_chain,
    _parse_node,
    open_index,
    sort_key,
)
from repro.storage.page import BlockId, encode_record, encode_value

# ---------------------------------------------------------------------------
# The model check
# ---------------------------------------------------------------------------

#: Six of the wide strings fill a 4 KiB leaf, so runs of equal keys straddle
#: leaves and internal nodes split, and a leaf of wide and narrow keys splits
#: unevenly; ``1`` / ``1.0`` / ``True`` are one key.
_WIDE = [letter * 600 for letter in "abc"]
_NUMBERS = [0, 1, 1.0, True, False, 2.5]
_KEYS = st.sampled_from(_WIDE + ["b", 1, 1.0, True, 2.5, None])
#: Runs of one key, as writes arrive: mostly alone, sometimes eight in a row.
_RUNS = st.lists(st.tuples(_KEYS, st.sampled_from([1, 2, 8])), max_size=6)
_DEFINITIONS = [IndexDefinition("t_btree", "T", "K", "btree"), IndexDefinition("t_hash", "T", "K", "hash")]


def _spellings(key):
    """Every key in the model's domain equal to ``key``."""
    return [key] if isinstance(key, str) else [number for number in _NUMBERS if number == key]


class IndexMachine(RuleBasedStateMachine):
    """Both index kinds, fed the same writes, against a list of postings."""

    def __init__(self):
        super().__init__()
        self.directory = tempfile.mkdtemp()
        self.model = []  # (key, rid); rids are unique
        self.rids = itertools.count()
        self._open()

    def _open(self):
        self.files = FileManager(self.directory)
        self.pool = BufferManager(self.files, pool_size=8)
        self.btree, self.hash = (open_index(self.pool, d) for d in _DEFINITIONS)

    def _rid(self):
        number = next(self.rids)
        return (number // 8, number % 8 - 1)  # slot -1: an overflow record's head

    def teardown(self):
        self.files.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    # -- rules -----------------------------------------------------------------------

    @initialize(runs=_RUNS)
    def load(self, runs):
        self.bulk_load(runs)

    @rule(runs=_RUNS)
    def bulk_load(self, runs):
        pairs = [(key, self._rid()) for key, times in runs for _ in range(times)]
        for index in (self.btree, self.hash):
            index.bulk_load(pairs)
        self.model = [pair for pair in pairs if pair[0] is not None]

    @rule(key=_KEYS, times=st.sampled_from([1, 2, 8]))
    def insert(self, key, times):
        for _ in range(times):
            rid = self._rid()
            for index in (self.btree, self.hash):
                assert index.insert(key, rid) == (key is not None)
            if key is not None:
                self.model.append((key, rid))

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete(self, data):
        key, rid = data.draw(st.sampled_from(self.model))
        spelling = data.draw(st.sampled_from(_spellings(key)))
        for index in (self.btree, self.hash):
            assert index.delete(spelling, rid)
        self.model.remove((key, rid))

    @rule(key=_KEYS)
    def delete_absent(self, key):
        rid = self._rid()
        for index in (self.btree, self.hash):
            assert not index.delete(key, rid)

    @rule()
    def reopen(self):
        self.pool.flush_all()
        self.files.close()
        self._open()

    # -- invariants ------------------------------------------------------------------

    @invariant()
    def every_posting_is_found(self):
        assert self.pool.pinned_count == 0
        assert self.btree.entry_count == self.hash.entry_count == len(self.model)
        for key in _WIDE + ["b", 1, 2.5, 0]:
            expected = sorted(rid for k, rid in self.model if sort_key(k) == sort_key(key))
            assert sorted(self.btree.search_eq(key)) == expected
            assert sorted(self.hash.search_eq(key)) == expected
            ranged = [rid for _, rid in self.btree.search_range(key, key)]
            assert sorted(ranged) == expected
        walked = list(self.btree.search_range(None, None))
        assert [sort_key(k) for k, _ in walked] == sorted(sort_key(k) for k, _ in walked)
        assert sorted(rid for _, rid in walked) == sorted(rid for _, rid in self.model)

    @invariant()
    def btree_nodes_bound_their_subtrees(self):
        """Keys ordered in every node, separators bounding their subtrees
        (equal keys may straddle), leaves chained in tree order."""
        leaves = []

        def walk(number, depth, low, high):
            is_leaf, pointer, entries = self.btree._read_node(number)
            assert is_leaf == (depth == 1) and len(entries) <= _MAX_NODE_ENTRIES
            keys = [sort_key(entry[0]) for entry in entries]
            assert keys == sorted(keys)
            assert all((low is None or low <= k) and (high is None or k <= high) for k in keys)
            if is_leaf:
                leaves.append((number, pointer))
                return
            bounds = [low] + keys + [high]
            for position, child in enumerate([pointer] + [entry[1] for entry in entries]):
                walk(child, depth - 1, bounds[position], bounds[position + 1])

        walk(self.btree.root, self.btree.height, None, None)
        assert [following for _, following in leaves] == [number for number, _ in leaves[1:]] + [-1]
        assert len(leaves) == self.btree.leaf_count

    @invariant()
    def hash_chains_hold_their_buckets(self):
        total = 0
        for bucket in range(1, self.hash.buckets + 1):
            number = bucket
            while number:
                number, entries = self.hash._read_chain_page(number)
                assert all(self.hash._bucket_block(key) == bucket for key, _, _ in entries)
                total += len(entries)
        assert total == self.hash.entry_count


IndexMachine.TestCase.settings = settings(
    IndexMachine.TestCase.settings, max_examples=60, stateful_step_count=30, deadline=None
)
TestIndexMachine = IndexMachine.TestCase


# ---------------------------------------------------------------------------
# The page codec: encode_record's bytes, from fixed parts
# ---------------------------------------------------------------------------

_INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
_INDEX_KEYS = st.one_of(
    _INT64,
    st.integers(min_value=2**63, max_value=2**90),
    st.floats(allow_nan=False),
    st.booleans(),
    st.text(max_size=700).map(lambda text: text.encode()[:700].decode("utf-8", "ignore")),
    st.binary(max_size=64),
)
_POSTINGS = st.tuples(_INT64, _INT64)


@given(
    is_leaf=st.sampled_from([0, 1]),
    pointer=_INT64,
    keys=st.lists(_INDEX_KEYS, max_size=12),
    postings=st.lists(_POSTINGS, min_size=12, max_size=12),
)
@settings(max_examples=300, deadline=None)
def test_nodes_are_encode_record_bytes_and_parse_back(is_leaf, pointer, keys, postings):
    if is_leaf:
        entries = [(key, block, slot) for key, (block, slot) in zip(keys, postings)]
    else:
        entries = [(key, child) for key, (child, _) in zip(keys, postings)]
    payload = _node_payload(is_leaf, pointer, _encode_entries(is_leaf, entries))
    assert payload == encode_record((is_leaf, pointer, entries))
    parsed = _parse_node(memoryview(payload))
    assert parsed == (is_leaf, pointer, entries)
    # Equal is not enough (``True == 1``): the parsed node re-encodes to itself.
    assert _node_payload(is_leaf, parsed[1], _encode_entries(is_leaf, parsed[2])) == payload


@given(keys=st.lists(_INDEX_KEYS, max_size=12), postings=st.lists(_POSTINGS, min_size=12, max_size=12))
@settings(max_examples=200, deadline=None)
def test_chains_are_encode_record_bytes_and_parse_back(keys, postings):
    entries = [(encode_value(key), block, slot) for key, (block, slot) in zip(keys, postings)]
    payload = _chain_payload([_chain_entry(*entry) for entry in entries])
    assert payload == encode_record(entries)
    assert _parse_chain(memoryview(payload)) == entries


def _torn_cases(kind):
    """A payload and the offsets of every byte its parser skips: the header's
    arity, tags, ``is_leaf`` and count, each entry's prefix, its tail's tags —
    never a key byte, a pointer or a posting."""
    keys = ["b" * 40, 7, 2.5, True, b"raw"]
    if kind == "chain":
        encoded = [_chain_entry(encode_value(k), 3, n) for n, k in enumerate(keys)]
        payload, offsets, prefix = _chain_payload(encoded), list(range(4)), 10
    else:
        is_leaf = int(kind == "leaf")
        entries = [(k, 3, n) if is_leaf else (k, n) for n, k in enumerate(keys)]
        encoded = _encode_entries(is_leaf, entries)
        payload, prefix = _node_payload(is_leaf, 9, encoded), 5
        offsets = list(range(14)) + list(range(22, 27))
    tags = (-9,) if kind == "internal" else (-18, -9)
    position = len(payload) - sum(map(len, encoded))
    for entry in encoded:
        offsets += range(position, position + prefix)
        offsets += [position + len(entry) + tag for tag in tags]
        position += len(entry)
    return payload, offsets


@pytest.mark.parametrize("kind", ["leaf", "internal", "chain"])
def test_a_torn_fixed_part_never_parses(kind):
    """Every byte of a header, an entry prefix or a tag, changed, raises."""
    payload, offsets = _torn_cases(kind)
    parse = _parse_chain if kind == "chain" else _parse_node
    assert parse(memoryview(payload))
    for offset in offsets:
        torn = bytearray(payload)
        torn[offset] ^= 0x40
        with pytest.raises((ValueError, IndexError, struct.error, StorageError)):
            parse(memoryview(torn))


@pytest.mark.parametrize(
    "kind, offset",
    # B-tree page: payload length at 0, then the node: the header's arity (4),
    # leaf tag (8) and list tag (26), the first entry's prefix (31) and its
    # posting's block and slot tags (45, 54).  Hash page: next block at 0,
    # payload length at 4, then the count (8), the first entry's prefix (12)
    # and its posting's tags (31, 40).
    [("btree", offset) for offset in (0, 4, 8, 26, 31, 45, 54)]
    + [("hash", offset) for offset in (4, 8, 12, 31, 40)],
)
def test_a_torn_index_page_raises_storage_error(tmp_path, kind, offset):
    """On a real page, a torn fixed part makes the lookup raise: it never
    returns a wrong RID."""
    pool = BufferManager(FileManager(str(tmp_path)), pool_size=4)
    handle = open_index(pool, IndexDefinition("idx", "T", "K", kind))
    handle.bulk_load([(7, (1, 2)), (8, (1, 3))])
    block = handle.root if kind == "btree" else handle._bucket_block(handle._encode_key(7))
    buffer = pool.pin(BlockId(handle.file_name, block))
    buffer.page.data[offset] ^= 0x40
    pool.unpin(buffer)
    with pytest.raises(StorageError, match="torn index page"):
        handle.search_eq(7)
    assert pool.pinned_count == 0
