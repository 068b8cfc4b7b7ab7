"""The front-end memos never serve a stale answer, and a hit changes nothing they share.

A :class:`~repro.server.engine.Database` binds a repeated SQL text once (the
statement memo) and makes a repeated uncalibrated decision once (the decision
memo).  A bound statement holds while the catalog's and the UDF registry's
generations and every base table's statistics object are the ones it was
bound under; a decision holds while every base table still answers with the
statistics object it was priced from.  Each test below changes one of those
inputs between two executes of one text and compares what the database plans
with afterwards against a database built fresh in the changed state; the
last ones run every kind of query twice and check that the second run, a
hit, leaves what the memos share as it found it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List

import pytest

from decision_digest import plan_record
from plan_tree_digest import _build
from repro.core.optimizer import CostSettings, Optimizer
from repro.core.strategies import ExecutionStrategy
from repro.distribution import ClusterConfig, DistributedDatabase, ShardingSpec, SiteConfig
from repro.relational.types import FLOAT, INTEGER, STRING
from repro.server.engine import Database
from repro.tenancy import MultiTenantEngine, QuerySpec, SessionWorkload
from repro.workloads.sharding import site_network
from repro.workloads.stock import StockWorkload
from test_optimizer_budget import paged_stock_database

SQL = "SELECT Q.Id FROM Quotes Q WHERE Q.Price >= 10 AND Q.Price < 20 AND Score(Q.Price) > 30"
QUOTES = [("Id", INTEGER), ("Price", FLOAT), ("Name", STRING)]
BLOCK_IO = CostSettings(block_access_seconds=0.005)


def quotes(first: int, count: int) -> List[tuple]:
    return [(index, index / 4.0, f"name{index % 50}") for index in range(first, first + count)]


def score(value: float) -> float:
    return value * 2.0


def quotes_database(directory=None, analyzed: bool = True, indexed: bool = True) -> Database:
    """``Quotes`` of 1,990 rows and the client-site ``Score``; paged (with a
    B-tree on ``Price`` when ``indexed``) when given a directory."""
    db = Database(storage_dir=directory, cost_settings=BLOCK_IO)
    db.create_table("Quotes", QUOTES, rows=quotes(0, 1990))
    if directory is not None:
        if analyzed:
            db.analyze("Quotes")
        if indexed:
            db.create_index("quotes_price_btree", "Quotes", "Price")
    db.register_client_udf(
        "Score", score, result_dtype=FLOAT, result_size_bytes=8,
        cost_per_call_seconds=0.001, selectivity=0.5,
    )
    return db


def served(db: Database, bound=None) -> tuple:
    """What ``execute(SQL, optimize=True)`` plans with now (or with ``bound``
    for the text): the decision's record and the plan-tree digest of the
    operator tree built from it."""
    bound = bound if bound is not None else db.bind(SQL)
    decision = db._decide(bound, db.default_config, optimize=True)
    return plan_record(decision.plan), _build(db, bound, decision)["digest"]


def quotes_of(db: Database):
    return db.catalog.table("Quotes")


def executed(db: Database) -> tuple:
    result = db.execute(SQL, optimize=True, deliver_results=True)
    return sorted(result.rows), result.plan_text


#: change name -> (paged, build options, the change)
CHANGES: Dict[str, tuple] = {
    "replace-table": (
        False,
        {},
        lambda db: db.create_table(
            "Quotes", QUOTES + [("Extra", INTEGER)],
            rows=[row + (0,) for row in quotes(0, 60)], replace=True,
        ),
    ),
    "replace-udf-cost": (
        False,
        {},
        lambda db: db.register_client_udf(
            "Score", score, result_dtype=FLOAT, result_size_bytes=8,
            cost_per_call_seconds=0.2, selectivity=0.5, replace=True,
        ),
    ),
    "replace-udf-selectivity": (
        False,
        {},
        lambda db: db.register_client_udf(
            "Score", score, result_dtype=FLOAT, result_size_bytes=8,
            cost_per_call_seconds=0.001, selectivity=0.01, replace=True,
        ),
    ),
    "memory-insert": (False, {}, lambda db: quotes_of(db).insert_many(quotes(1990, 3000))),
    "memory-delete": (False, {}, lambda db: quotes_of(db).delete(lambda row: row[1] >= 15)),
    "paged-insert": (True, {}, lambda db: quotes_of(db).insert_many(quotes(48, 3))),  # no new block
    # Too few rows to trigger a statistics refresh.
    "paged-delete": (True, {}, lambda db: quotes_of(db).delete(lambda row: row[1] < 11)),
    "paged-clear": (True, {}, lambda db: quotes_of(db).clear()),  # only the block count moves
    "paged-analyze": (True, {"analyzed": False}, lambda db: db.analyze("Quotes")),
    "paged-create-index": (
        True,
        {"indexed": False},
        lambda db: db.execute("CREATE INDEX quotes_price_btree ON Quotes (Price)"),
    ),
    "paged-drop-index": (True, {}, lambda db: db.execute("DROP INDEX quotes_price_btree")),
}


@pytest.mark.parametrize("change", sorted(CHANGES))
def test_a_change_between_two_executes_is_planned_as_a_fresh_database_plans_it(change, tmp_path):
    paged, options, apply = CHANGES[change]

    def build(name: str) -> Database:
        return quotes_database(str(tmp_path / name) if paged else None, **options)

    db, fresh = build("memoised"), build("fresh")
    # A bound query held across the change reaches the decision memo itself.
    held, fresh_held = db.bind(SQL), fresh.bind(SQL)
    executed(db)
    planned_before, held_before = served(db), served(db, held)
    apply(db)
    after = executed(db)
    planned_after = served(db)

    apply(fresh)
    assert planned_before != planned_after  # the change moves the plan: a stale answer would show
    assert planned_after == served(fresh)
    assert after == executed(fresh)
    if not change.startswith("replace"):  # a replacement is a new table or UDF, not held
        assert held_before != served(db, held) == served(fresh, fresh_held)
    db.close()
    fresh.close()


# ---------------------------------------------------------------------------
# Runtime state is never memoised, and never served
# ---------------------------------------------------------------------------


@contextmanager
def recorded_decisions(db: Database) -> Iterator[List[tuple]]:
    """``(decision, optimizer ran)`` for each ``_decide`` call on ``db``."""
    calls: List[tuple] = []
    decide, optimize = db._decide, Optimizer.optimize
    ran = []

    def counting_optimize(self, *arguments, **keywords):
        ran.append(True)
        return optimize(self, *arguments, **keywords)

    def recording(*arguments, **keywords):
        ran.clear()
        decision = decide(*arguments, **keywords)
        calls.append((decision, bool(ran)))
        return decision

    db._decide = recording
    Optimizer.optimize = counting_optimize
    try:
        yield calls
    finally:
        del db._decide
        Optimizer.optimize = optimize


def runtime_state(decision) -> tuple:
    config = decision.strategy_config
    return (
        config.batch_controller, config.overlap_controller, config.reoptimizer, config.statistics
    )


@pytest.mark.parametrize(
    "options",
    [
        {"adaptive": True},
        {"calibrated": True},
        {"switch_strategies": True},
        {"reoptimize": True},
        {"adaptive": True, "calibrated": False},
    ],
    ids=["adaptive", "calibrated", "switch", "reoptimize", "adaptive-uncalibrated"],
)
def test_runtime_state_is_never_memoised_or_served(options):
    db = quotes_database()
    db.execute(SQL, optimize=True)  # a memoised plain decision
    with recorded_decisions(db) as calls:
        db.execute(SQL, optimize=True, **options)
        db.execute(SQL, optimize=True, **options)
        db.execute(SQL, optimize=True)
    (first, first_ran), (second, second_ran), (plain, plain_ran) = calls
    assert first_ran and second_ran and first is not second
    assert not plain_ran and runtime_state(plain) == (None, None, None, None)
    carries_state = any(state is not None for state in runtime_state(second))
    assert carries_state == (options != {"calibrated": True})


def test_a_tenant_store_never_rides_a_served_decision():
    """Under per-tenant statistics a switching query carries its tenant's
    store and is decided afresh; a plain one is served without any store."""
    db = quotes_database()
    engine = MultiTenantEngine(db, per_tenant_statistics=True)
    plain = QuerySpec(SQL, options={"optimize": True})
    switching = QuerySpec(SQL, options={"optimize": True, "switch_strategies": True})
    workloads = [
        SessionWorkload(tenant_id=tenant, queries=[plain, switching, plain])
        for tenant in ("a", "b")
    ]
    with recorded_decisions(db) as calls:
        report = engine.run(workloads)
    assert report.error_count == 0
    plain_calls = [(d, ran) for d, ran in calls if d.strategy_config.switch_policy is None]
    switch_calls = [(d, ran) for d, ran in calls if d.strategy_config.switch_policy is not None]
    assert len(plain_calls) == 4 and len(switch_calls) == 2
    assert [ran for _, ran in plain_calls] == [True, False, False, False]
    assert all(ran for _, ran in switch_calls)
    stores = {id(d.strategy_config.statistics) for d, _ in switch_calls}
    assert len(stores) == 2 and id(db.statistics) not in stores
    assert all(runtime_state(d) == (None, None, None, None) for d, _ in plain_calls)


# ---------------------------------------------------------------------------
# Running a hit mutates nothing the memos share
# ---------------------------------------------------------------------------

FIGURES = {
    "figure1": StockWorkload.figure1_query(threshold=500.0),
    "figure11": StockWorkload.figure11_query(),
    "figure13": StockWorkload.figure13_query(),
}

#: run name -> execute keywords
RUNS: Dict[str, dict] = {
    **{strategy.value: {"strategy": strategy} for strategy in ExecutionStrategy},
    "optimize": {"optimize": True},
    "adaptive": {"optimize": True, "adaptive": True},
    "reoptimize": {"reoptimize": True},
}


def bound_fingerprint(bound) -> tuple:
    """A bound query's structure (UDF definitions by name and declaration)."""
    return (
        bound.describe(),
        [str(table.schema) for table in bound.tables],
        [(p.selectivity.hex(), sorted(p.columns), p.udf_names) for p in bound.predicates],
        [
            (call.name, call.udf.cost_per_call_seconds, call.udf.selectivity, call.argument_columns,
             call.used_in_predicate, call.used_in_output)
            for call in bound.client_udf_calls
        ],
        str(bound.combined_schema), bound.distinct, list(bound.order_by), bound.limit, bound.offset,
    )


def memo_fingerprint(db) -> tuple:
    statements = [
        (sql, stamp, bound_fingerprint(bound), [id(s) for s in snapshot])
        for sql, (stamp, bound, snapshot) in db._statements.items()
    ]
    decisions = [
        (
            key[1:], plan_record(decision.plan), repr(decision.strategy_config),
            sorted((name, plan_record(plan)) for name, plan in decision.alternatives.items()),
        )
        for key, (_bound, _snapshot, decision) in getattr(db, "_decisions", {}).items()
    ]
    return statements, decisions


def simulated(result) -> tuple:
    metrics = result.metrics
    return (
        sorted(result.rows),
        metrics.elapsed_seconds,
        metrics.downlink_bytes,
        metrics.uplink_bytes,
        metrics.downlink_messages,
        metrics.uplink_messages,
        metrics.udf_invocations,
    )


def stock_database(directory=None) -> Database:
    if directory is None:
        return StockWorkload(company_count=25, seed=1999).build()
    return paged_stock_database(directory)


def twice(db, sql: str, forget: bool, **options) -> tuple:
    """Two executes of ``sql``; with ``forget`` the memos are emptied first
    each time, which is what a database without them would run."""
    results, prints = [], []
    for _ in range(2):
        if forget:
            db._statements.clear()
            getattr(db, "_decisions", {}).clear()
        results.append(simulated(db.execute(sql, **options)))
        prints.append(memo_fingerprint(db))
    return results, prints


@pytest.mark.parametrize("figure", sorted(FIGURES))
@pytest.mark.parametrize("run", sorted(RUNS) + ["paged-indexed"])
def test_a_hit_runs_without_mutating_what_it_shares(run, figure, tmp_path):
    sql = FIGURES[figure]
    paged = run == "paged-indexed"
    options = {"optimize": True} if paged else dict(RUNS[run])
    db = stock_database(str(tmp_path / "memoised") if paged else None)
    options["deliver_results"] = True
    results, prints = twice(db, sql, forget=False, **options)
    assert prints[0] == prints[1] and prints[0][0]
    if options.get("optimize") and not (options.get("adaptive") or options.get("reoptimize")):
        assert prints[0][1]  # the decision was memoised and served
    fresh = stock_database(str(tmp_path / "fresh") if paged else None)
    assert results == twice(fresh, sql, forget=True, **options)[0]
    db.close()
    fresh.close()


def stock_cluster() -> DistributedDatabase:
    """The 25-company stock tables on four sites, ``StockQuotes`` in four shards."""
    memory = StockWorkload(company_count=25, seed=1999).build()
    cluster = ClusterConfig(
        sites=[SiteConfig(f"site{index}", site_network(name=f"site{index}")) for index in range(4)],
        sharding=[ShardingSpec(table="StockQuotes", column="Name", shards=4)],
    )
    db = DistributedDatabase(cluster)
    for name in ("StockQuotes", "Estimations"):
        source = memory.catalog.table(name)
        db.create_table(
            name,
            [(column.name, column.dtype) for column in source.schema.columns],
            rows=[list(row) for row in source.rows],
        )
    for definition in memory.udfs:
        db.udfs.register(definition)
    return db


@pytest.mark.parametrize("figure", sorted(FIGURES))
@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimize"])
def test_a_sharded_hit_runs_without_mutating_what_it_shares(figure, optimize):
    sql = FIGURES[figure]
    results, prints = twice(stock_cluster(), sql, forget=False, optimize=optimize)
    assert prints[0] == prints[1] and len(prints[0][0]) == 1
    assert results == twice(stock_cluster(), sql, forget=True, optimize=optimize)[0]
