"""Rows are plain tuples and columns plain lists: what the engine hands out,
and what the collector sees.

A row of atoms (ints, floats, strings, NULLs) that is an exact ``tuple`` is
untracked by CPython's cyclic collector once a collection has looked at it;
a ``tuple`` subclass never is.  Stored tables and query results are where
rows live long, so both are checked here.  A batch column is an exact
``list`` at every stage, so the values operators compute on are Python's:
integers never wrap and an int compares with a float exactly.
"""

from __future__ import annotations

import gc

import pytest

from repro.core.execution import clientjoin
from repro.core.execution.access import IndexScanOperator
from repro.core.execution.base import RemoteUdfOperator
from repro.core.execution.context import RemoteExecutionContext
from repro.core.strategies import StrategyConfig
from repro.network.topology import NetworkConfig
from repro.relational.expressions import Arithmetic, ColumnRef, Comparison, Literal
from repro.relational.operators import (
    Distinct,
    Filter,
    HashJoin,
    Limit,
    NestedLoopJoin,
    ProjectExpressions,
    Sort,
    TableScan,
)
from repro.relational.schema import Schema
from repro.relational.table import Table
from repro.relational.tuples import RowBatch, concat_batches
from repro.relational.types import FLOAT, INTEGER, STRING
from repro.server.engine import Database
from repro.storage.index import KeyInterval

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
        for batch in (
            RowBatch(ROWS),
            RowBatch([list(row) for row in ROWS]),
            RowBatch.from_columns([[1, 2], ["a", "b"]]),
        ):
            assert _exact_tuples(batch.rows)
            assert _exact_tuples(batch)
            assert _exact_tuples(batch[index] for index in range(len(batch)))
            assert _exact_tuples(batch[-2:])
        assert RowBatch([list(row) for row in ROWS]).rows == ROWS


def _list_columns(batches):
    batches = list(batches)
    assert batches and all(batch.columns for batch in batches if batch)
    return all(type(column) is list for batch in batches for column in batch.columns)


def _scan_stages(table):
    def scan():
        return TableScan(table, alias="A")

    projection = [
        ("W", Arithmetic("*", ColumnRef("A.Id"), Literal(4)), INTEGER),
        ("P", Arithmetic("+", ColumnRef("A.Price"), Literal(1.0)), FLOAT),
    ]
    return {
        "scan": lambda: scan().execute_batches(4),
        "filter": lambda: Filter(
            scan(), Comparison(">", ColumnRef("A.Id"), Literal(1))
        ).execute_batches(4),
        "project": lambda: ProjectExpressions(scan(), projection).execute_batches(4),
        "sort": lambda: Sort(scan(), ["A.Id"]).execute_batches(4),
        "hash_join": lambda: HashJoin(
            scan(), TableScan(table, alias="B"), ["A.Id"], ["B.Id"]
        ).execute_batches(4),
        "distinct": lambda: Distinct(scan()).execute_batches(4),
        "limit": lambda: Limit(scan(), 3).execute_batches(2),
        "as_batch": lambda: [table.as_batch()],
        "concat": lambda: [concat_batches([table.as_batch(), table.as_batch()])],
    }


class TestEveryColumnIsAList:
    @pytest.mark.parametrize(
        "stage",
        ["scan", "filter", "project", "sort", "hash_join", "distinct", "limit", "as_batch", "concat"],
    )
    def test_scans_and_relational_operators(self, database, stage):
        assert _list_columns(_scan_stages(database.catalog.table("Items"))[stage]())

    def test_index_scan(self, tmp_path):
        db = _database(str(tmp_path))
        db.create_index("items_id", "Items", "Id")
        table = db.catalog.table("Items")
        scan = IndexScanOperator(
            table,
            table.indexes()["items_id"],
            KeyInterval(low=1, high=4),
            "Id",
            RemoteExecutionContext.create(NETWORK),
        )
        assert _list_columns(scan.execute_batches(2))
        db.close()

    @pytest.mark.parametrize("strategy", ["naive", "semi_join", "client_site_join"])
    def test_remote_operator_batches(self, database, monkeypatch, strategy):
        """A naive or semi-join operator's extended batch, a client-site
        join's replies and their concatenation."""
        seen = []
        real_extended, real_concat = RemoteUdfOperator.extended_batch, clientjoin.concat_batches

        def extended_batch(self, batch, results):
            seen.append(real_extended(self, batch, results))
            return seen[-1]

        def concat(batches, column_count=None):
            seen.extend(batches)
            seen.append(real_concat(batches, column_count))
            return seen[-1]

        monkeypatch.setattr(RemoteUdfOperator, "extended_batch", extended_batch)
        monkeypatch.setattr(clientjoin, "concat_batches", concat)
        database.register_client_udf(
            "Twice", lambda value: value * 2, result_dtype=INTEGER, result_size_bytes=4
        )
        result = database.execute(
            "SELECT I.Id, Twice(I.Id) FROM Items I WHERE Twice(I.Id) > 2",
            config=getattr(StrategyConfig, strategy)(batch_size=2),
        )
        assert sorted(result.rows) == [(index, 2 * index) for index in range(2, 6)]
        assert _list_columns(seen)


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
