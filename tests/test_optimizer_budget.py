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
from repro.adaptive.store import STATISTICS_PROTOCOL, StatisticsStore
from repro.core.optimizer import CostSettings, Optimizer
from repro.core.optimizer.enumerator import SystemREnumerator
from repro.relational.table import Table
from repro.workloads.misestimation import MisorderedUdfScenario
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


# ---------------------------------------------------------------------------
# Mid-query re-optimization: the decision enumerates, the boundaries price
# ---------------------------------------------------------------------------

#: Enumerators one decision builds: the batch sweep's two endpoints.
ENUMERATORS_PER_DECISION = 2


@contextmanager
def counted_enumerators() -> Iterator[Dict[str, int]]:
    """Count ``SystemREnumerator`` constructions."""
    counts = {"enumerators": 0}
    original = SystemREnumerator.__init__

    def init(self, *arguments, **keywords):
        counts["enumerators"] += 1
        original(self, *arguments, **keywords)

    SystemREnumerator.__init__ = init
    try:
        yield counts
    finally:
        SystemREnumerator.__init__ = original


@pytest.mark.parametrize("adaptive", [False, True], ids=["static", "adaptive"])
@pytest.mark.parametrize("workload", ["figure13", "misordered"])
def test_a_reoptimizing_execute_enumerates_only_for_its_decision(workload, adaptive):
    """A segment boundary prices the candidate shapes with
    ``remaining_plan_cost`` and builds no enumerator, so a re-optimizing
    execute builds only what its one decision does."""
    if workload == "figure13":
        db = StockWorkload(company_count=25, seed=1999).build()
        sql, policy = StockWorkload.figure13_query(), None
    else:
        scenario = MisorderedUdfScenario()
        db, sql, policy = scenario.build_database(), scenario.sql, scenario.replan_policy()
    with counted_enumerators() as counts:
        result = db.execute(sql, reoptimize=True, replan_policy=policy, adaptive=adaptive)
    assert any(decision.costs for a in result.metrics.adaptations for decision in a.decisions)
    assert 0 < counts["enumerators"] <= ENUMERATORS_PER_DECISION


# ---------------------------------------------------------------------------
# The front end over repeated texts: bound once, decided once
# ---------------------------------------------------------------------------


@contextmanager
def counted_front_end() -> Iterator[Dict[str, int]]:
    """Count ``parse``, ``Binder.bind_sql``, ``Optimizer.optimize`` and
    ``Optimizer.enumerator`` calls."""
    import repro.sql.binder as binder_module
    from repro.sql.binder import Binder

    counts = {"parse": 0, "bind_sql": 0, "optimize": 0, "enumerator": 0}
    targets = (
        (binder_module, "parse", "parse"),
        (Binder, "bind_sql", "bind_sql"),
        (Optimizer, "optimize", "optimize"),
        (Optimizer, "enumerator", "enumerator"),
    )
    restore = []
    for owner, attribute, key in targets:
        original = getattr(owner, attribute)

        def call(*arguments, _original=original, _key=key, **keywords):
            counts[_key] += 1
            return _original(*arguments, **keywords)

        restore.append((owner, attribute, original))
        setattr(owner, attribute, call)
    try:
        yield counts
    finally:
        for owner, attribute, original in reversed(restore):
            setattr(owner, attribute, original)


def paged_stock_database(directory: str):
    """The 25-company stock database, paged and indexed, charging block I/O."""
    from repro.server.engine import Database

    memory = StockWorkload(company_count=25, seed=1999).build()
    db = Database(
        network=memory.network,
        storage_dir=directory,
        cost_settings=CostSettings(block_access_seconds=0.005),
    )
    for name in ("StockQuotes", "Estimations"):
        source = memory.catalog.table(name)
        db.create_table(
            name,
            [(column.name, column.dtype) for column in source.schema.columns],
            rows=[list(row) for row in source.rows],
        )
        db.analyze(name)
    for definition in memory.udfs:
        db.udfs.register(definition)
    db.create_index("quotes_close_btree", "StockQuotes", "Close")
    db.create_index("estimations_company_btree", "Estimations", "CompanyName")
    return db


@pytest.mark.parametrize("paged", [False, True], ids=["memory", "paged"])
def test_a_repeated_text_is_parsed_bound_and_decided_once(paged, tmp_path):
    """50 executes of the static Figure 13 text: one parse, one bind, one
    decision's enumerations; every repeat reads each base table's
    statistics at most once (the memos' validity check)."""
    db = (
        paged_stock_database(str(tmp_path))
        if paged
        else StockWorkload(company_count=25, seed=1999).build()
    )
    sql = StockWorkload.figure13_query()
    with counted_front_end() as single:
        Optimizer(db.network, settings=db.cost_settings).optimize(db.bind(sql))
    db._statements.clear()
    db._decisions.clear()
    with counted_front_end() as counts:
        first = db.execute(sql, optimize=True, deliver_results=True)
        with counted_work() as reads:
            for _ in range(49):
                repeat = db.execute(sql, optimize=True, deliver_results=True)
    assert (counts["parse"], counts["bind_sql"], counts["optimize"]) == (1, 1, 1)
    assert counts["enumerator"] == single["enumerator"] == 2
    assert reads["statistics"] <= 49 * 2  # two base tables
    assert repeat.rows == first.rows
    db.close()


#: Statistics-protocol reads a served decision replays (a Figure 13
#: decision reads 10).
READS_PER_HIT = 16


@contextmanager
def counted_reads() -> Iterator[Dict[str, int]]:
    """Count calls of every statistics-protocol method on any store."""
    counts = {"reads": 0}
    originals = {name: getattr(StatisticsStore, name) for name in STATISTICS_PROTOCOL}
    for name, original in originals.items():

        def call(*arguments, _original=original, **keywords):
            counts["reads"] += 1
            return _original(*arguments, **keywords)

        setattr(StatisticsStore, name, call)
    try:
        yield counts
    finally:
        for name, original in originals.items():
            setattr(StatisticsStore, name, original)


def test_a_repeated_adaptive_query_is_decided_twice():
    """50 adaptive executes of the Figure 13 text: the first is decided
    before anything was observed, the second calibrated by the first run,
    and the other 48 are served — the store stops moving where the planner
    reads it — each replaying at most ``READS_PER_HIT`` reads."""
    db = StockWorkload(company_count=25, seed=1999).build()
    sql = StockWorkload.figure13_query()
    per_hit = []
    with counted_front_end() as counts:
        first = db.execute(sql, optimize=True, adaptive=True, deliver_results=True)
        db.execute(sql, optimize=True, adaptive=True)
        for _ in range(48):
            with counted_reads() as reads:
                repeat = db.execute(sql, optimize=True, adaptive=True, deliver_results=True)
            per_hit.append(reads["reads"])
    assert counts["optimize"] == 2
    assert 0 < max(per_hit) <= READS_PER_HIT
    assert sorted(repeat.rows) == sorted(first.rows)


def test_each_memo_holds_its_bound_after_many_distinct_texts():
    from repro.server.engine import DECISION_MEMO_BOUND, STATEMENT_MEMO_BOUND

    db = StockWorkload(company_count=25, seed=1999).build()
    for threshold in range(1000):
        db.explain(StockWorkload.figure1_query(threshold=float(threshold)), optimize=True)
    assert len(db._statements) == STATEMENT_MEMO_BOUND
    assert len(db._decisions) == DECISION_MEMO_BOUND
