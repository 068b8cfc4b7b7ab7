"""One shipped row's host work is budgeted in counts, not timings.

A remote operation keys its argument columns once (``RowBatch.encode``: one
hash pass, a dense integer code per row) and sizes a column with one bulk
call; ordering, duplicate elimination, result pairing and suffix statistics
then read integer codes and the *distinct* tuples only.  The counts are taken
with wrappers this test installs, so the budget is asserted here instead of
rediscovered in a profile.  Before codes, the ``reoptimize+adaptive``
execution below (642 join rows over 200 quote histories) made 1,647
Python-level ``TimeSeries.__lt__`` calls, 6,201 scalar sizer calls and 13.6
``TimeSeries.__hash__`` calls per input row; the ``optimize+adaptive`` one
3,785, 603 and 19.7.
"""

from __future__ import annotations

import sys
from collections import Counter
from contextlib import contextmanager
from typing import Any, Dict, Iterator

import pytest

import repro.relational.types as types
from repro.relational.tuples import RowBatch
from repro.relational.types import DataType, TimeSeries
from repro.workloads.stock import StockWorkload

#: Scalar ``value_size`` + ``DataType.serialized_size`` calls per remote
#: operation and column of its input: a sample row for the concurrency
#: analysis, never a walk over the values.
SCALAR_SIZINGS_PER_OPERATION_AND_COLUMN = 1
#: ``TimeSeries.__hash__`` calls per input row.  Every remote operation
#: hashes a row's argument series once, to code it, and a migrating operator
#: once more for its suffix statistics: 3 to 4.5 per row here, Figure 13's
#: two UDFs taking three series between them.  The rest is per *distinct*
#: tuple — ranking, the carried results, the client's cache — and a third of
#: these rows are distinct.  (ISSUE 20 asked for 4, quoting 9.4 at HEAD: that
#: is a whole ``ship_bulk`` round's figure — 5.0 now — whose re-optimizing
#: Figure 13 kind alone stood at 13.1, with encode passes of 4.4 per row.)
HASHES_PER_INPUT_ROW = 10
#: ``RowBatch.key_tuples`` callers for which a tuple per row would only be a
#: step toward something else: a hash join keys its rows and ``encode``
#: codes them from the key columns.  (Before, one Figure 11 execution made
#: three calls from the join and one from ``encode``, whatever the data.)
NO_KEY_TUPLES_FROM = (
    "repro.relational.operators.hash_join._execute_batches",
    "repro.relational.tuples.encode",
)


@contextmanager
def counted_calls() -> Iterator[Dict[str, Any]]:
    """Count Python-level series comparisons, series hashes and scalar sizer
    calls, and ``RowBatch.key_tuples`` calls by calling module and function.

    ``value_size`` is swapped wherever a ``repro`` module holds a reference,
    the methods on their classes, and everything is put back.
    """
    key_tuples_callers: Counter = Counter()
    counts: Dict[str, Any] = {
        "lt": 0, "hash": 0, "scalar_sizings": 0, "key_tuples": key_tuples_callers
    }
    restore = []

    def counting(target, key):
        def call(*arguments):
            counts[key] += 1
            return target(*arguments)

        return call

    for owner, attribute, key in (
        (TimeSeries, "__lt__", "lt"),
        (TimeSeries, "__hash__", "hash"),
        (DataType, "serialized_size", "scalar_sizings"),
    ):
        original = owner.__dict__[attribute]
        restore.append((owner, attribute, original))
        setattr(owner, attribute, counting(original, key))

    key_tuples = RowBatch.__dict__["key_tuples"]

    def counted_key_tuples(*arguments):
        caller = sys._getframe(1)
        key_tuples_callers[f"{caller.f_globals['__name__']}.{caller.f_code.co_name}"] += 1
        return key_tuples(*arguments)

    restore.append((RowBatch, "key_tuples", key_tuples))
    RowBatch.key_tuples = counted_key_tuples
    wrapper = counting(types.value_size, "scalar_sizings")
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro"):
            for attribute, value in list(vars(module).items()):
                if value is types.value_size:
                    restore.append((module, attribute, value))
                    setattr(module, attribute, wrapper)
    try:
        yield counts
    finally:
        for owner, attribute, value in reversed(restore):
            setattr(owner, attribute, value)


def execute_stock_query(
    companies: int, query: str = StockWorkload.figure13_query(), **options
) -> Dict[str, Any]:
    db = StockWorkload(company_count=companies, seed=1999).build()
    for table in db.catalog:
        table.statistics  # computed lazily on first read: not the execution's work
    with counted_calls() as counts:
        result = db.execute(query, **options)
    assert result.rows
    counts["input_rows"] = result.metrics.input_rows
    counts["operations"] = result.metrics.remote_operations
    counts["columns"] = sum(len(table.schema) for table in db.catalog)
    return counts


@pytest.mark.parametrize(
    "options",
    [dict(optimize=True, adaptive=True), dict(reoptimize=True, adaptive=True)],
    ids=["optimize+adaptive", "reoptimize+adaptive"],
)
def test_one_figure13_execution_stays_within_budget(options):
    counts = execute_stock_query(200, **options)
    assert counts["input_rows"] == 642
    # Series are ordered by their value tuples, in C, and only the distinct ones.
    assert counts["lt"] == 0
    # Columns are sized in bulk: what is left does not grow with the rows.
    assert counts["scalar_sizings"] <= (
        SCALAR_SIZINGS_PER_OPERATION_AND_COLUMN * counts["operations"] * counts["columns"]
    )
    assert 0 < counts["hash"] <= HASHES_PER_INPUT_ROW * counts["input_rows"]


def test_scalar_sizing_does_not_grow_with_the_data():
    """100 and 200 companies, the committed plan (no segments to add): the
    same handful of sample-row sizings, whatever the row count."""
    small, large = (execute_stock_query(companies, optimize=True) for companies in (100, 200))
    assert small["input_rows"] < large["input_rows"]
    assert small["scalar_sizings"] == large["scalar_sizings"] <= small["operations"] * 3


@pytest.mark.parametrize(
    "query",
    [StockWorkload.figure11_query(), StockWorkload.figure13_query()],
    ids=["figure11", "figure13"],
)
def test_joins_and_key_codes_build_no_tuple_per_row(query):
    """100 and 200 companies, ``optimize+adaptive``: the join and ``encode``
    read the key columns, and whatever else asks for one tuple per row asks
    as often at either size (per operation, not per row or batch)."""
    small, large = (
        execute_stock_query(companies, query, optimize=True, adaptive=True)
        for companies in (100, 200)
    )
    assert small["input_rows"] < large["input_rows"]
    for caller in NO_KEY_TUPLES_FROM:
        assert small["key_tuples"][caller] == large["key_tuples"][caller] == 0
    assert small["key_tuples"] == large["key_tuples"]
