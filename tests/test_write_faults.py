"""Every durable write of one scripted run, failed or torn, then a reopen.

The seam is the k-th durable write: a ``FileManager.write`` of a heap,
overflow, B-tree or hash page, or a ``catalog.json`` save.  A write that
fails leaves the directory as the writes before it left it, and the process
stops there, as a kill would: nothing after it is flushed or closed.  A torn
write lands its first half over the old block first.  The script creates a
table, bulk-loads 30 rows, builds an index, inserts 50 rows (two of them
overflow records) in five statements and deletes 20 in one, each ending in
``StorageEngine.flush()``, its commit point.  Reopening the directory must
yield the committed prefix — the state before or after the statement the
fault interrupted: rows, catalog counts and index answers alike — or raise
``StorageError``.

The script runs once per index kind with every change it makes to its
directory logged; the directory a fault at write k leaves is that log's
replay up to write k, so each k costs a reopen, not a run.  This is a
measurement: each k that reads back as neither is a strict xfail, and
``docs/design.md`` ("Durable storage") tabulates the outcomes by kind of
write.
"""

from __future__ import annotations

import os
from collections import Counter

import pytest

from repro.errors import StorageError
from repro.relational.schema import Schema
from repro.relational.types import INTEGER, STRING
from repro.storage.engine import StorageEngine
from repro.storage.file import FileManager
from repro.storage.metadata import CATALOG_FILE, MetadataManager

SCHEMA = Schema.of(("K", INTEGER), ("S", STRING))
BLOCK = 4096
POOL = 128
KEYS = 13


def _row(number):
    wide = number in (41, 67)  # an overflow record each
    return (number % KEYS, ("w" * 5000 if wide else "s") + str(number))


def _insert(numbers):
    return lambda engine: [engine.open_table("T").append(_row(n)) for n in numbers]


def _every_fourth_row(values):
    return int(values[1].strip("sw")) % 4 == 0  # rows 0, 4, ..., 76: 20 of them


def _steps(kind):
    """The script's statements, each a function of the engine."""
    return [
        lambda engine: engine.create_table("T", SCHEMA),
        _insert(range(30)),
        lambda engine: engine.create_index("t_k", "T", "K", kind=kind),
        *(_insert(range(start, start + 10)) for start in range(30, 80, 10)),
        lambda engine: engine.open_table("T").delete_where(_every_fourth_row),
    ]


def _run(directory, kind, count):
    """Run the first ``count`` statements, each committed by a flush."""
    engine = StorageEngine(directory, pool_size=POOL)
    for statement in _steps(kind)[:count]:
        statement(engine)
        engine.flush()
    engine.close()


def _state(directory):
    """What a reopen reads: the rows, whether the catalog counts them, and
    whether each index counts them and answers every key as the heap does;
    None before the table exists."""
    engine = StorageEngine(directory, pool_size=POOL)
    try:
        if not engine.table_names():
            return None
        table = engine.open_table("T")
        with_rids = list(table.rows_with_rids())
        rows = sorted(values for _, values in with_rids)
        indexes = {
            handle.kind: (
                handle.entry_count == len(rows),
                all(
                    sorted(handle.search_eq(key))
                    == sorted(rid for rid, values in with_rids if values[0] == key)
                    for key in range(KEYS)
                ),
            )
            for handle in table.indexes().values()
        }
        return rows, table.row_count == len(rows), indexes
    finally:
        engine.files.close()  # no flush: a reopen that reads writes nothing back


def _kind_of_write(file_name, data):
    if file_name.endswith(".tbl"):
        return "overflow" if int.from_bytes(data[:4], "big", signed=True) < 0 else "heap"
    return "B-tree node" if file_name.endswith(".btx") else "hash chain"


def _record(directory, kind, monkeypatch):
    """The whole script, logging every change to ``directory`` in order:
    ``(statement, kind of write, file name, block, bytes)`` for a durable
    write (block None for a catalog save) and kind None for a file delete."""
    log, statement = [], [0]
    write, delete, save = FileManager.write, FileManager.delete, MetadataManager.save

    def logged_write(files, block, page):
        kind_of_write = _kind_of_write(block.file_name, page.data)
        log.append((statement[0], kind_of_write, block.file_name, block.number, bytes(page.data)))
        write(files, block, page)

    def logged_delete(files, file_name):
        log.append((statement[0], None, file_name, None, None))
        delete(files, file_name)

    def logged_save(catalog):
        save(catalog)
        with open(catalog.catalog_path, "rb") as handle:
            log.append((statement[0], "catalog", CATALOG_FILE, None, handle.read()))

    monkeypatch.setattr(FileManager, "write", logged_write)
    monkeypatch.setattr(FileManager, "delete", logged_delete)
    monkeypatch.setattr(MetadataManager, "save", logged_save)
    engine = StorageEngine(directory, pool_size=POOL)
    for statement[0], step in enumerate(_steps(kind), start=1):
        step(engine)
        engine.flush()
    engine.close()
    monkeypatch.undo()
    return log


def _replay(log, k, mode, directory):
    """Leave ``directory`` as a fault at the k-th durable write would, whatever
    it held before; returns the statement the fault interrupted."""
    files, writes = {}, 0
    for statement, kind, file_name, number, data in log:
        if kind is None:
            files.pop(file_name, None)
            continue
        writes += 1
        if writes == k and (mode == "fail" or kind == "catalog"):
            break  # a catalog is replaced atomically: a torn save is a failed one
        if kind == "catalog":
            files[file_name] = bytearray(data)
            continue
        content = files.setdefault(file_name, bytearray())
        content.extend(bytes(max(0, (number + 1) * BLOCK - len(content))))
        if writes == k:  # torn: the first half lands over the old block
            data = data[: BLOCK // 2]
        content[number * BLOCK : number * BLOCK + len(data)] = data
        if writes == k:
            break
    else:
        raise AssertionError(f"the script makes {writes} durable writes, not {k}")
    for file_name in os.listdir(directory):
        os.remove(os.path.join(directory, file_name))
    for file_name, content in files.items():
        with open(os.path.join(directory, file_name), "wb") as handle:
            handle.write(content)
    return statement


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """Per index kind: the state each statement commits, and the log; and
    the directory each fault is replayed into."""
    script = {"replay": str(tmp_path_factory.mktemp("replay"))}
    with pytest.MonkeyPatch.context() as monkeypatch:
        for kind in WRITES:
            states = []
            for count in range(len(_steps(kind)) + 1):
                directory = str(tmp_path_factory.mktemp(f"{kind}{count}"))
                _run(directory, kind, count)
                states.append(_state(directory))
            script[kind] = states, _record(str(tmp_path_factory.mktemp(kind)), kind, monkeypatch)
    return script


#: Durable writes of the script per index kind, by kind of write.
WRITES = {
    "btree": Counter({"heap": 18, "B-tree node": 18, "catalog": 11, "overflow": 4}),
    "hash": Counter({"hash chain": 264, "heap": 18, "catalog": 11, "overflow": 4}),
}
#: The k a reopen reads back as neither the committed prefix nor an error.
UNDETECTED = {
    ("btree", "fail"): "4 6-10 16 21 23-26 28-30 35 37-40 42-44 46-50",
    ("btree", "tear"): "4 6-10 16 22-24 26 28-30 36 38-40 42-44 46-49",
    ("hash", "fail"): "4 6-136 214 219 221-233 235-246 251 253-265 267-278 280-296",
    ("hash", "tear"): "4 6-136 214 220-231 233 235-246 252 254-265 267-278 280-295",
}


def _undetected(kind, mode):
    spans = (span.split("-") for span in UNDETECTED[kind, mode].split())
    return {k for span in spans for k in range(int(span[0]), int(span[-1]) + 1)}


def test_the_script_makes_the_writes_the_fault_table_counts(recorded):
    for kind, writes in WRITES.items():
        _, log = recorded[kind]
        assert Counter(entry[1] for entry in log if entry[1]) == writes


def _faults():
    wrong = pytest.mark.xfail(strict=True, reason="reopens as a wrong state, undetected")
    for kind, writes in WRITES.items():
        for mode in ("fail", "tear"):
            undetected = _undetected(kind, mode)
            for k in range(1, sum(writes.values()) + 1):
                marks = [wrong] * (k in undetected)
                yield pytest.param(kind, mode, k, marks=marks, id=f"{kind}-{mode}-{k}")


@pytest.mark.parametrize("kind, mode, k", _faults())
def test_a_reopen_after_a_faulted_write_yields_the_committed_prefix_or_an_error(
    recorded, kind, mode, k
):
    states, log = recorded[kind]
    statement = _replay(log, k, mode, recorded["replay"])
    try:
        state = _state(recorded["replay"])
    except StorageError:
        return
    if state not in (states[statement - 1], states[statement]):
        # Without a traceback: formatting one costs more than the reopen.
        pytest.fail(f"statement {statement}: neither state around it", pytrace=False)
