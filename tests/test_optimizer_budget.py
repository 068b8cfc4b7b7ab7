"""One optimizer decision's work is budgeted in counts, not timings.

A candidate is *derived* once (names resolved, the base table read, the plan
copied) and *priced* per batch size, so what ``Optimizer.optimize`` does per
decision is bounded by the query's shape — tables, columns, UDFs — and not by
how often the DP asks.  The counts are taken with wrappers this test
installs, so the budget is asserted here instead of rediscovered in a
profile; before derivations were memoised one Figure 13 decision read its
two base tables 24 times, normalised 2,120 column names and made 158 copies
through ``dataclasses.replace``.
"""

from __future__ import annotations

import dataclasses
import sys
from contextlib import contextmanager
from typing import Dict, Iterator

import pytest

import repro.relational.schema as schema
from repro.core.optimizer import CostSettings, Optimizer
from repro.relational.table import Table
from repro.workloads.stock import StockWorkload

#: Base-table derivations (reads of ``Table.statistics``) per table and decision.
DERIVATIONS_PER_TABLE = 1
#: ``bare_name`` calls per column the query can see (tables' and UDF results').
NORMALISATIONS_PER_COLUMN = 4
#: ``dataclasses.replace`` calls per decision: the decision's strategy config
#: (and room for one more), never a plan, a step or a cost setting.
REPLACE_CALLS = 2


@contextmanager
def counted_work() -> Iterator[Dict[str, int]]:
    """Count base-table statistics reads, ``bare_name`` and ``dataclasses.replace`` calls.

    Functions are swapped wherever a ``repro`` module (or ``dataclasses``
    itself, for function-level imports) holds a reference, and put back.
    """
    counts = {"statistics": 0, "bare_name": 0, "replace": 0}
    restore = []

    statistics = Table.__dict__["statistics"]

    def counting_statistics(self):
        counts["statistics"] += 1
        return statistics.fget(self)

    restore.append((Table, "statistics", statistics))
    Table.statistics = property(counting_statistics)

    def counting(target, key):
        def call(*arguments, **keywords):
            counts[key] += 1
            return target(*arguments, **keywords)

        return call

    for target, key in ((schema.bare_name, "bare_name"), (dataclasses.replace, "replace")):
        wrapper = counting(target, key)
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name == "dataclasses" or name.startswith("repro"):
                for attribute, value in list(vars(module).items()):
                    if value is target:
                        restore.append((module, attribute, value))
                        setattr(module, attribute, wrapper)
    try:
        yield counts
    finally:
        for owner, attribute, value in reversed(restore):
            setattr(owner, attribute, value)


def decide(companies: int, query: str, **optimizer_options) -> Dict[str, int]:
    db = StockWorkload(company_count=companies, seed=1999).build()
    bound = db.bind(getattr(StockWorkload, query)())
    for table in bound.tables:
        table.table.statistics  # computed lazily on first read: not the decision's work
    with counted_work() as counts:
        decision = Optimizer(db.network, **optimizer_options).optimize(bound)
    assert decision.plan.steps[-1].kind == "final"
    counts["tables"] = len(bound.tables)
    counts["columns"] = len(bound.combined_schema.columns) + len(bound.client_udf_calls)
    return counts


@pytest.mark.parametrize("query", ["figure1_query", "figure11_query", "figure13_query"])
def test_one_decision_stays_within_budget(query):
    counts = decide(60, query)
    assert 0 < counts["statistics"] <= DERIVATIONS_PER_TABLE * counts["tables"]
    assert 0 < counts["bare_name"] <= NORMALISATIONS_PER_COLUMN * counts["columns"]
    assert counts["replace"] <= REPLACE_CALLS


def test_the_work_depends_on_the_query_not_the_data():
    """25, 60 and 4000 companies: same query, same enumeration, same counts."""
    runs = [decide(companies, "figure13_query") for companies in (25, 60, 4000)]
    assert runs[0] == runs[1] == runs[2]


def test_both_endpoint_enumerations_share_one_derivation():
    """A static decision enumerates at the smallest and the largest candidate
    batch size; the second enumeration prices what the first derived, so it
    reads no base table and normalises no name again."""
    static = decide(60, "figure13_query")
    one_endpoint = decide(60, "figure13_query", settings=CostSettings(batch_size=16.0))
    assert static["statistics"] == one_endpoint["statistics"] == 2
    assert static["bare_name"] == one_endpoint["bare_name"]
