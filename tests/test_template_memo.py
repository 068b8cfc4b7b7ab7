"""A new literal whose estimates are unchanged is served the remembered decision.

``Database._decide`` remembers each uncalibrated decision under its query's
*template* — the SQL tokens with every literal that binds to a ``Literal``
replaced by its Python type — next to the answers it was priced from: each
base table's statistics object and each table node's conjunct estimates and
index probes.  Another text of the template whose tables and nodes answer
alike is served that decision, rebound to its own conjuncts; any other
answer makes the decision afresh.  The tests below run one literal, then
another, on a database and only the second on a fresh copy, and hold the
decision the first database ran — served or made — to the fresh one's, in
its description, its estimates and the operator tree built from it.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import sys
import tempfile
from collections import Counter
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from decision_digest import plan_record
from plan_tree_digest import _build
from repro.adaptive import BatchSizeController
from repro.core.optimizer import CostSettings, OptimizationDecision
from repro.core.strategies import StrategyConfig
from repro.network.topology import NetworkConfig
from repro.relational.types import FLOAT, INTEGER, STRING
from repro.server.engine import Database
from repro.sql.parser import parse
from repro.workloads.stock import StockWorkload
from test_front_end_memo import recorded_decisions
from test_optimizer_budget import counted_front_end
from test_plan_recipes import planning_passes

NETWORK = NetworkConfig.symmetric(250_000.0, latency=0.0005, name="template-tests")
COST = CostSettings(block_access_seconds=0.005)
ROWS = 1200
QUOTES = [("Id", INTEGER), ("Price", FLOAT), ("Name", STRING)]


def score(price: float) -> float:
    return price * 2.0


def quotes_rows(first: int, count: int) -> List[tuple]:
    return [
        (index, ((index * 7919) % ROWS) * 0.5, f"name{index % 40:02d}")
        for index in range(first, first + count)
    ]


def open_database(directory: str) -> Database:
    db = Database(network=NETWORK, storage_dir=directory, cost_settings=COST)
    db.register_client_udf(
        "Score", score, result_dtype=FLOAT, result_size_bytes=8, cost_per_call_seconds=0.0005
    )
    return db


@pytest.fixture(scope="module")
def quotes_dir(tmp_path_factory) -> str:
    """``Quotes`` paged and analyzed: a hash index on ``Id`` and on ``Name``,
    a B-tree on ``Price`` (the ``paged_mix`` layout at a fifth of its size)."""
    directory = str(tmp_path_factory.mktemp("template-quotes"))
    db = open_database(directory)
    db.create_table("Quotes", QUOTES, rows=quotes_rows(0, ROWS))
    db.analyze("Quotes")
    db.create_index("quotes_id", "Quotes", "Id", kind="hash")
    db.create_index("quotes_price", "Quotes", "Price", kind="btree")
    db.create_index("quotes_name", "Quotes", "Name", kind="hash")
    db.close()
    return directory


@contextmanager
def two_copies(source: str) -> Iterator[Tuple[Database, Database]]:
    """Two databases opened over private copies of ``source``."""
    with tempfile.TemporaryDirectory() as scratch:
        databases = []
        for name in ("memoised", "fresh"):
            target = os.path.join(scratch, name)
            shutil.copytree(source, target)
            databases.append(open_database(target))
        try:
            yield databases[0], databases[1]
        finally:
            for db in databases:
                db.close()


#: template name -> SQL with ``{0}`` / ``{1}`` for its literals
TEMPLATES: Dict[str, str] = {
    "id-eq": "SELECT Q.Id, Q.Price, Q.Name FROM Quotes Q WHERE Q.Id = {0}",
    "price-eq": "SELECT Q.Id, Q.Name FROM Quotes Q WHERE Q.Price = {0}",
    "price-ge": "SELECT Q.Id, Q.Price FROM Quotes Q WHERE Q.Price >= {0}",
    "price-range": "SELECT Q.Id, Q.Price FROM Quotes Q WHERE Q.Price >= {0} AND Q.Price < {1}",
    "price-range-udf": (
        "SELECT Q.Id, Score(Q.Price) FROM Quotes Q WHERE Q.Price >= {0} AND Q.Price < {1}"
    ),
    "name-eq": "SELECT Q.Id, Q.Price FROM Quotes Q WHERE Q.Name = {0}",
    "id-eq-udf": "SELECT Q.Id FROM Quotes Q WHERE Q.Id = {0} AND Score(Q.Price) > {1}",
}


def _insert(db: Database) -> None:
    db.catalog.table("Quotes").insert_many(quotes_rows(ROWS, 5))


def _delete(db: Database) -> None:
    db.catalog.table("Quotes").delete(lambda row: row[0] % 97 == 3)


#: change name -> what it does to a database between the two executes
CHANGES = {
    "none": lambda db: None,
    "insert": _insert,
    "delete": _delete,
    "analyze": lambda db: db.analyze("Quotes"),
}

_numbers = st.one_of(
    st.integers(0, ROWS + 10),
    st.floats(0.0, ROWS * 0.5 + 5.0, allow_nan=False).map(lambda value: round(value, 2)),
)
_names = st.sampled_from(["'name03'", "'name17'", "'name39'", "'nobody'"])


def _literals(template: str) -> st.SearchStrategy:
    if template == "name-eq":
        return st.tuples(_names)
    return st.tuples(_numbers, _numbers)


@st.composite
def _cases(draw) -> Tuple[str, tuple, tuple, str]:
    template = draw(st.sampled_from(sorted(TEMPLATES)))
    literals = _literals(template)
    return template, draw(literals), draw(literals), draw(st.sampled_from(sorted(CHANGES)))


def planned(db: Database, sql: str) -> tuple:
    """What ``execute(sql, optimize=True)`` plans with on ``db`` now: the
    decision's description and record, and the plan-tree digest of the
    operator tree built from its recipes."""
    bound = db.bind(sql)
    decision = db._decide(bound, db.default_config, optimize=True)
    return decision.describe(), plan_record(decision.plan), _build(db, bound, decision)["digest"]


def second_against_fresh(source: str, first: str, second: str, change: str) -> bool:
    """Run ``first``, ``change``, ``second`` on one copy of ``source`` and
    ``change``, ``second`` on another; assert the two ran and plan alike,
    and return whether the first copy made its decision for ``second`` afresh."""
    with two_copies(source) as (db, fresh):
        db.execute(first, optimize=True)
        CHANGES[change](db)
        CHANGES[change](fresh)
        with recorded_decisions(db) as calls:
            result = db.execute(second, optimize=True, deliver_results=True)
        expected = fresh.execute(second, optimize=True, deliver_results=True)
        assert sorted(result.rows) == sorted(expected.rows)
        assert result.plan_text == expected.plan_text
        assert planned(db, second) == planned(fresh, second)
        return calls[-1].ran


def _sql(template: str, literals: tuple) -> str:
    return TEMPLATES[template].format(*literals)


@example(("price-range", (10, 20), (10, 300), "none"))  # a new histogram fraction
@example(("price-range", (10.5, 20.0), (100.25, 110.75), "none"))
@example(("price-range-udf", (10, 20), (10, 400), "none"))
@example(("id-eq", (5, 0), (6, 0), "none"))
@example(("id-eq", (5, 0), (6.0, 0), "none"))  # an int, then a float: two templates
@example(("id-eq", (5, 0), (6, 0), "insert"))
@example(("id-eq-udf", (5, 30), (9, 300), "delete"))
@example(("price-eq", (7.5, 0), (12.5, 0), "analyze"))
@example(("name-eq", ("'name03'",), ("'nobody'",), "none"))
@given(_cases())
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
def test_a_second_literal_is_planned_as_a_fresh_database_plans_it(quotes_dir, case):
    template, first, second, change = case
    second_against_fresh(quotes_dir, _sql(template, first), _sql(template, second), change)


def test_a_new_histogram_fraction_optimizes_again(quotes_dir):
    """A two-conjunct range prices its index scan off the histogram: a new
    pair of bounds is a new probe answer, and the decision is made again."""
    range_sql = TEMPLATES["price-range"]
    assert second_against_fresh(quotes_dir, range_sql.format(10, 20), range_sql.format(10, 300), "none")


@pytest.mark.parametrize(
    "template, first, second",
    [
        ("id-eq", (5,), (6,)),
        ("price-eq", (7.5,), (12.5,)),
        ("name-eq", ("'name03'",), ("'name17'",)),
        ("id-eq-udf", (5, 30), (9, 300)),
    ],
)
def test_a_new_literal_with_unchanged_estimates_is_served(quotes_dir, template, first, second):
    """Equality is priced at one over the column's distinct count, and so is
    the index probe that serves it alone: the new literal answers alike.  (A
    range reads the histogram at its bound, so it answers anew.)"""
    assert not second_against_fresh(
        quotes_dir, _sql(template, first), _sql(template, second), "none"
    )


@pytest.mark.parametrize("change", ["insert", "delete", "analyze"])
def test_a_table_change_between_two_literals_optimizes_again(quotes_dir, change):
    assert second_against_fresh(
        quotes_dir, _sql("id-eq", (5,)), _sql("id-eq", (6,)), change
    )


@pytest.mark.parametrize("threshold", [250.0, 500, 731.5])
def test_figure1_thresholds_share_one_decision(threshold):
    """The Figure 1 threshold compares a client-site UDF's result, priced at
    the UDF's declared selectivity whatever the threshold is."""
    db = StockWorkload(company_count=25, seed=1999).build()
    fresh = StockWorkload(company_count=25, seed=1999).build()
    sql = StockWorkload.figure1_query(threshold=threshold)
    db.execute(StockWorkload.figure1_query(threshold=900.0), optimize=True)
    with recorded_decisions(db) as calls:
        result = db.execute(sql, optimize=True, deliver_results=True)
    expected = fresh.execute(sql, optimize=True, deliver_results=True)
    assert calls[-1].ran is isinstance(threshold, int)  # ``500`` is an int literal
    assert sorted(result.rows) == sorted(expected.rows)
    assert planned(db, sql) == planned(fresh, sql)


def test_a_calibrated_decision_is_not_served_by_template():
    """An adaptive execute plans with the store's measured numbers, which it
    reads under each predicate's text: a new literal optimizes again."""
    db = StockWorkload(company_count=25, seed=1999).build()
    for threshold in (100.0, 200.0):
        db.execute(StockWorkload.figure1_query(threshold=threshold), optimize=True, adaptive=True)
    with counted_front_end() as counts:
        for threshold in (300.0, 400.0, 500.0):
            db.execute(StockWorkload.figure1_query(threshold=threshold), optimize=True, adaptive=True)
    assert counts["optimize"] == 3


# ---------------------------------------------------------------------------
# Planned once per template
# ---------------------------------------------------------------------------


@st.composite
def _literal_runs(draw) -> Tuple[str, List[tuple]]:
    template = draw(st.sampled_from(sorted(TEMPLATES)))
    return template, draw(st.lists(_literals(template), min_size=2, max_size=4))


@example(("id-eq", [(5, 0), (6, 0), (900, 0)]))
@example(("price-eq", [(7.5, 0), (12.5, 0)]))
@example(("price-ge", [(10, 0), (300, 0)]))
@example(("price-range", [(10.5, 20.0), (100.25, 110.75)]))
@example(("price-range-udf", [(10, 20), (10, 400)]))
@example(("id-eq-udf", [(5, 30), (9, 300), (11, 0)]))
@example(("name-eq", [("'name03'",), ("'nobody'",)]))
@given(_literal_runs())
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
def test_a_template_hit_builds_what_a_fresh_planning_pass_builds(quotes_dir, case):
    """Literal after literal of one template on one database: whenever the
    decision was served by template, the run planned nothing, and building
    its kept recipe gives the operator tree a planning pass over a copy of
    the decision gives.  The last literal also runs, plans and is described
    as a fresh database runs, plans and describes it."""
    template, runs = case
    with two_copies(quotes_dir) as (db, fresh):
        for literals in runs:
            sql = _sql(template, literals)
            with recorded_decisions(db) as calls, planning_passes() as passes:
                result = db.execute(sql, optimize=True, deliver_results=True)
            if not calls[-1].ran:
                assert passes == []
            bound = db.bind(sql)
            decision = db._decide(bound, db.default_config, optimize=True)
            copy = OptimizationDecision(decision.plan, decision.strategy_config)
            assert _build(db, bound, decision) == _build(db, bound, copy)
        expected = fresh.execute(sql, optimize=True, deliver_results=True)
        assert sorted(result.rows) == sorted(expected.rows)
        assert result.plan_text == expected.plan_text
        assert planned(db, sql) == planned(fresh, sql)


def test_a_template_hit_reads_its_literals_by_position(quotes_dir):
    """The kept recipe holds no literal: the new literal's index interval,
    re-check and pushed predicate are its own."""
    with two_copies(quotes_dir) as (db, _):
        db.execute(_sql("id-eq-udf", (5, 30)), optimize=True)
        result = db.execute(_sql("id-eq-udf", (9, 300)), optimize=True, deliver_results=True)
    assert "Id = 9" in result.plan_text and "Id = 5" not in result.plan_text
    assert "> 300" in result.plan_text and "> 30)" not in result.plan_text


# ---------------------------------------------------------------------------
# The template
# ---------------------------------------------------------------------------


def test_the_template_slots_each_bound_literal_by_type():
    template = parse(
        "SELECT Q.Id, 'x' FROM Quotes Q WHERE Q.Id = 5 AND Q.Price < 2.5 ORDER BY 2 LIMIT 4"
    ).template
    assert template == (
        "SELECT", "Q", ".", "Id", ",", str, "FROM", "Quotes", "Q", "WHERE",
        "Q", ".", "Id", "=", int, "AND", "Q", ".", "Price", "<", float,
        "ORDER", "BY", "2", "LIMIT", "4", "",
    )  # fmt: skip
    assert parse("SELECT Q.Id FROM Quotes Q WHERE Q.Id = 6").template == parse(
        "SELECT Q.Id FROM Quotes Q WHERE Q.Id = 5"
    ).template != parse("SELECT Q.Id FROM Quotes Q WHERE Q.Id = 5.0").template


def test_a_bound_query_keeps_the_generations_it_was_bound_under(quotes_dir):
    with two_copies(quotes_dir) as (db, _):
        held = db.bind(_sql("id-eq", (5,)))
        db.register_client_udf("Other", score, replace=True)
        again = db.bind(_sql("id-eq", (6,)))
        assert held.template[2:] == again.template[2:] and held.template != again.template


def test_the_config_key_is_what_equality_compares():
    """Both memos key a config by ``StrategyConfig.key``: every field its
    equality compares, and none of its runtime fields."""
    config = StrategyConfig(batch_size=16, overlap_window=2)
    compared = tuple(getattr(config, f.name) for f in dataclasses.fields(config) if f.compare)
    assert config.key == compared
    assert config.with_batch_controller(BatchSizeController()).key == compared


# ---------------------------------------------------------------------------
# Budgets: what a new-literal point lookup does
# ---------------------------------------------------------------------------


def point_sql(row_id: int) -> str:
    return TEMPLATES["id-eq"].format(row_id)


def test_forty_distinct_point_lookups_optimize_and_plan_once(quotes_dir):
    with two_copies(quotes_dir) as (db, _):
        with counted_front_end() as counts, planning_passes() as passes:
            for row_id in range(100, 140):
                result = db.execute(point_sql(row_id), optimize=True, deliver_results=True)
                assert [row[0] for row in result.rows] == [row_id]
        assert (counts["parse"], counts["bind_sql"], counts["optimize"]) == (1, 1, 1)
        assert len(passes) == 1


#: Python calls into ``repro`` per package of one new-literal point lookup
#: (``execute(..., optimize=True, deliver_results=True)`` on the paged
#: ``Quotes``, its template served), comprehensions left out as in
#: ``test_plan_budget``: 490 in all.  While each new literal still ran the
#: planning pass, rendered its plan's text, added its counters into a new
#: session total and flushed all 64 pool frames, it made 657: ``repro.core``
#: 45 (−9), ``repro.network`` 146 (−21, the fold), ``repro.relational`` 173
#: (−44), ``repro.server`` 72 (−19), ``repro.sql`` 17 (−4) and
#: ``repro.storage`` 180 (−70, the flush), the other two as now.  While the
#: text was still lexed, parsed and bound, and each bucket entry decoded by
#: its own codec call, it made 1,033; before decisions were served by
#: template, 1,256.
POINT_LOOKUP_CALLS = {
    "repro.adaptive": 11,
    "repro.client": 13,
    "repro.core": 36,
    "repro.network": 125,
    "repro.relational": 129,
    "repro.server": 53,
    "repro.sql": 13,
    "repro.storage": 110,
}

INLINED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})


def point_lookup_calls(db: Database, row_id: int) -> Dict[str, int]:
    calls: Counter = Counter()

    def profile(frame, event, argument):
        if event == "call" and frame.f_code.co_name not in INLINED:
            module = frame.f_globals.get("__name__", "")
            if module.startswith("repro."):
                calls[".".join(module.split(".")[:2])] += 1

    sys.setprofile(profile)
    try:
        db.execute(point_sql(row_id), optimize=True, deliver_results=True)
    finally:
        sys.setprofile(None)
    return dict(calls)


def test_a_new_literal_point_lookup_stays_within_budget(quotes_dir):
    with two_copies(quotes_dir) as (db, _):
        for row_id in range(10, 14):  # decided once, then served by template
            db.execute(point_sql(row_id), optimize=True, deliver_results=True)
        calls = point_lookup_calls(db, 500)
    assert set(calls) <= set(POINT_LOOKUP_CALLS), calls
    for package, budget in POINT_LOOKUP_CALLS.items():
        assert calls.get(package, 0) <= budget, (package, calls)
