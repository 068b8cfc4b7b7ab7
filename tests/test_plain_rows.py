"""Rows are plain tuples: what the engine hands out, and what the collector sees.

A row of atoms (ints, floats, strings, NULLs) that is an exact ``tuple`` is
untracked by CPython's cyclic collector once a collection has looked at it;
a ``tuple`` subclass never is.  Stored tables and query results are where
rows live long, so both are checked here.
"""

from __future__ import annotations

import gc

import pytest

from repro.network.topology import NetworkConfig
from repro.relational.expressions import ColumnRef, Comparison
from repro.relational.operators import HashJoin, NestedLoopJoin, TableScan
from repro.relational.schema import Schema
from repro.relational.table import Table
from repro.relational.tuples import RowBatch
from repro.relational.types import FLOAT, INTEGER, STRING
from repro.server.engine import Database

NETWORK = NetworkConfig.symmetric(2_000_000.0, latency=0.0005, name="plain-rows")
COLUMNS = [("Id", INTEGER), ("Price", FLOAT), ("Name", STRING)]
ROWS = [(index, index * 1.5, f"item{index % 3}") for index in range(5)] + [(5, None, None)]


def _exact_tuples(rows):
    rows = list(rows)
    assert rows
    return all(type(row) is tuple for row in rows)


def _database(storage_dir=None):
    db = Database(network=NETWORK, storage_dir=storage_dir)
    db.create_table("Items", COLUMNS, rows=ROWS)
    return db


@pytest.fixture(params=["memory", "paged"])
def database(request, tmp_path):
    db = _database(str(tmp_path) if request.param == "paged" else None)
    yield db
    db.close()


class TestEveryRowIsATuple:
    def test_table_rows(self, database):
        table = database.catalog.table("Items")
        assert _exact_tuples(table.rows)
        assert _exact_tuples(table)
        assert sorted(table.rows, key=repr) == sorted(ROWS, key=repr)

    def test_query_result_rows(self, database):
        result = database.execute("SELECT I.Id, I.Name FROM Items I WHERE I.Id < 4")
        assert _exact_tuples(result.rows)
        assert _exact_tuples(result)
        assert type(result[0]) is tuple

    def test_operator_run_and_execute(self, database):
        table = database.catalog.table("Items")
        scan = TableScan(table, alias="A")
        assert _exact_tuples(scan.run())
        assert _exact_tuples(TableScan(table, alias="A").execute())
        joins = [
            HashJoin(TableScan(table, alias="A"), TableScan(table, alias="B"), ["A.Id"], ["B.Id"]),
            NestedLoopJoin(
                TableScan(table, alias="A"),
                TableScan(table, alias="B"),
                Comparison("=", ColumnRef("A.Id"), ColumnRef("B.Id")),
            ),
        ]
        for join in joins:
            rows = join.run()
            assert _exact_tuples(rows)
            assert len(rows) == len(ROWS)

    def test_batch_rows_and_items(self):
        schema = Schema.of(*COLUMNS)
        for batch in (
            RowBatch(ROWS),
            RowBatch([list(row) for row in ROWS]),
            RowBatch(ROWS).ensure_typed(schema),
            RowBatch.from_columns([[1, 2], ["a", "b"]]),
        ):
            assert _exact_tuples(batch.rows)
            assert _exact_tuples(batch)
            assert _exact_tuples(batch[index] for index in range(len(batch)))
            assert _exact_tuples(batch[-2:])
        assert RowBatch([list(row) for row in ROWS]).rows == ROWS


class TestRowsOfAtomsAreUntracked:
    def test_stored_rows_of_an_in_memory_table(self):
        table = Table("Items", Schema.of(*COLUMNS), rows=[list(row) for row in ROWS])
        gc.collect()
        assert not any(gc.is_tracked(row) for row in table.rows)

    def test_rows_of_a_result_of_atoms(self, database):
        result = database.execute("SELECT I.Id, I.Price, I.Name FROM Items I")
        assert len(result) == len(ROWS)
        gc.collect()
        assert not any(gc.is_tracked(row) for row in result.rows)
