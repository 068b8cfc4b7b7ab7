"""The front-end memos never serve a stale answer, and a hit changes nothing they share.

A :class:`~repro.server.engine.Database` binds a repeated SQL text once (the
statement memo) and makes a repeated decision once (the decision memo).  A
bound statement holds while the catalog's and the UDF registry's generations
are the ones it was bound under: binding reads no statistics, so a
statistics change re-decides without re-binding.  A decision holds while
every base table still answers with the statistics object it was priced
from and every statistics read it made still gets the same answer, and it
is served with the caller's own runtime state.  Each test below changes one
of those inputs between two executes of one text and compares what the
database plans with afterwards against a database built fresh in the
changed state; the last ones run every kind of query twice and check that
the second run, a hit, leaves what the memos share as it found it.
"""

from __future__ import annotations

import gc
import inspect
from contextlib import contextmanager
from types import FunctionType, MethodType, ModuleType
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple

import pytest

from decision_digest import plan_record
from plan_tree_digest import _build
from repro.adaptive import (
    BatchControllerBank,
    BatchSizeController,
    OverlapWindowController,
    ReOptimizer,
    StatisticsStore,
)
from repro.core.optimizer import CostSettings, OptimizationDecision, Optimizer
from repro.core.strategies import ExecutionStrategy
from repro.distribution import ClusterConfig, DistributedDatabase, ShardingSpec, SiteConfig
from repro.relational.types import FLOAT, INTEGER, STRING
from repro.server.engine import Database, StatisticsReads
from repro.tenancy import MultiTenantEngine, QuerySpec, SessionWorkload
from repro.workloads.sharding import site_network
from repro.workloads.stock import StockWorkload
from repro.sql.binder import Binder
from test_optimizer_budget import counted_front_end, counted_work, paged_stock_database

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
        assert served(db, held) == served(db)  # a held query is priced as a fresh bind
    db.close()
    fresh.close()


def test_a_statistics_change_re_decides_without_re_binding(tmp_path):
    """A paged insert moves the table's statistics between two executes of
    one text: the second execute decides again from the bound statement it
    already holds, parsed once."""
    db = quotes_database(str(tmp_path))
    paged_insert = CHANGES["paged-insert"][2]
    with counted_front_end() as counts:
        executed(db)
        paged_insert(db)
        executed(db)
    assert (counts["parse"], counts["optimize"]) == (1, 2)
    db.close()


@pytest.mark.parametrize("paged", [False, True], ids=["memory", "paged"])
def test_binding_reads_no_statistics(paged, tmp_path):
    db = quotes_database(str(tmp_path) if paged else None)
    with counted_work() as counts:
        bound = Binder(db.catalog, db.udfs).bind_sql(SQL)
    assert len(bound.predicates) == 3 and counts["statistics"] == 0
    db.close()


# ---------------------------------------------------------------------------
# Runtime state is never memoised, and never served to another call
# ---------------------------------------------------------------------------


class Decided(NamedTuple):
    """One ``_decide`` call: what it returned, whether ``Optimizer.optimize``
    ran for it, the arguments it was called with, and a decision made afresh
    from those arguments at the same moment (with that decision's reads)."""

    decision: OptimizationDecision
    ran: bool
    arguments: Dict[str, Any]
    fresh: Optional[OptimizationDecision]
    fresh_reads: Tuple[tuple, ...]


def fresh_decision(db: Database, arguments: Dict[str, Any]) -> tuple:
    """``Optimizer(...).optimize`` of what ``_decide`` was asked, through a
    read log when a store calibrates it: the decision and its reads."""
    store = arguments["statistics"] if arguments["statistics"] is not None else db.statistics
    reads = StatisticsReads(store) if arguments["calibrated"] and store.queries_observed else None
    decision = Optimizer(
        db.network, default_config=arguments["config"], settings=db.cost_settings, statistics=reads
    ).optimize(arguments["bound"])
    return decision, tuple(reads.log) if reads is not None else ()


@contextmanager
def recorded_decisions(db: Database) -> Iterator[List[Decided]]:
    """A :class:`Decided` for each ``_decide`` call on ``db``."""
    calls: List[Decided] = []
    decide, optimize = db._decide, Optimizer.optimize
    signature = inspect.signature(decide)
    ran = []

    def counting_optimize(self, *arguments, **keywords):
        ran.append(True)
        return optimize(self, *arguments, **keywords)

    def recording(*arguments, **keywords):
        ran.clear()
        decision = decide(*arguments, **keywords)
        made = bool(ran)
        bound = signature.bind(*arguments, **keywords)
        bound.apply_defaults()
        fresh, reads = (
            fresh_decision(db, bound.arguments) if bound.arguments["optimize"] else (None, ())
        )
        calls.append(Decided(decision, made, dict(bound.arguments), fresh, reads))
        return decision

    db._decide = recording
    Optimizer.optimize = counting_optimize
    try:
        yield calls
    finally:
        del db._decide
        Optimizer.optimize = optimize


def runtime_state(config) -> tuple:
    return (
        config.batch_controller, config.overlap_controller, config.reoptimizer, config.statistics
    )


def carries_callers_state(call: Decided) -> bool:
    """Are the decision's runtime fields the very objects its caller passed?"""
    mine = runtime_state(call.decision.strategy_config)
    return all(own is given for own, given in zip(mine, runtime_state(call.arguments["config"])))


def same_decision(one: OptimizationDecision, other: OptimizationDecision) -> bool:
    """The same plan (every estimate in hex), batch size and strategy."""
    return (
        plan_record(one.plan) == plan_record(other.plan)
        and one.batch_size == other.batch_size
        and one.strategy_config.strategy == other.strategy_config.strategy
        and one.strategy_config == other.strategy_config
    )


RUNTIME_TYPES = (
    BatchControllerBank, BatchSizeController, OverlapWindowController, ReOptimizer,
    StatisticsStore, StatisticsReads,
)  # fmt: skip


def runtime_held(db: Database) -> List[object]:
    """Every controller, re-optimizer, store or read log a decision memo key
    or entry reaches (through containers and objects, not through classes,
    modules or functions)."""
    found, seen, stack = [], set(), [list(db._decisions.items())]
    while stack:
        held = stack.pop()
        if id(held) in seen or isinstance(held, (type, ModuleType, FunctionType, MethodType)):
            continue
        seen.add(id(held))
        if isinstance(held, RUNTIME_TYPES):
            found.append(held)
        else:
            stack.extend(gc.get_referents(held))
    return found


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
        for _ in range(3):
            db.execute(SQL, optimize=True, **options)
        db.execute(SQL, optimize=True)
    *runs, plain = calls
    assert any(not run.ran for run in runs)  # a decision was served
    for run in runs:
        assert same_decision(run.decision, run.fresh) and carries_callers_state(run)
    assert runtime_held(db) == []
    assert not plain.ran
    assert runtime_state(plain.decision.strategy_config) == (None, None, None, None)
    last = runtime_state(runs[-1].decision.strategy_config)
    assert any(state is not None for state in last) == (options != {"calibrated": True})


def test_a_tenant_store_never_rides_a_served_decision():
    """Under per-tenant statistics a switching query carries its tenant's
    store, served or not; a plain one is served without any store."""
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
    plain_calls = [c for c in calls if c.decision.strategy_config.switch_policy is None]
    switch_calls = [c for c in calls if c.decision.strategy_config.switch_policy is not None]
    assert len(plain_calls) == 4 and len(switch_calls) == 2
    assert [c.ran for c in plain_calls] == [True, False, False, False]
    assert [c.ran for c in switch_calls] == [True, False]  # the second tenant's is served
    for call in switch_calls:
        assert carries_callers_state(call)
        assert call.decision.strategy_config.statistics is call.arguments["statistics"]
    stores = {id(c.decision.strategy_config.statistics) for c in switch_calls}
    tenants = {id(engine.tenant_statistics.for_tenant(tenant)) for tenant in ("a", "b")}
    assert stores == tenants and id(db.statistics) not in stores
    for call in plain_calls:
        assert runtime_state(call.decision.strategy_config) == (None, None, None, None)
    assert runtime_held(db) == []


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
        [(sorted(p.columns), p.udf_names) for p in bound.predicates],
        [
            (call.name, call.udf.cost_per_call_seconds, call.udf.selectivity, call.argument_columns,
             call.used_in_predicate, call.used_in_output)
            for call in bound.client_udf_calls
        ],
        str(bound.combined_schema), bound.distinct, list(bound.order_by), bound.limit, bound.offset,
    )


def memo_fingerprint(db) -> tuple:
    statements = [
        (sql, stamp, bound_fingerprint(bound))
        for sql, (stamp, bound) in db._statements.items()
    ]
    # A recipe by identity: a hit instantiates the one kept, it plans none.
    decisions = [
        (key[1:], plan_record(plan), batch_size, strategy, reads, {k: id(r) for k, r in recipes.items()})
        for key, (_bound, _snapshot, plan, batch_size, strategy, reads, recipes) in getattr(
            db, "_decisions", {}
        ).items()
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


def twice(db, sql: str, forget: bool, warm_up: bool = False, **options) -> tuple:
    """Two executes of ``sql`` (after a third with ``warm_up``); with
    ``forget`` the memos are emptied first each time, which is what a
    database without them would run."""
    if warm_up:
        db.execute(sql, **options)
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
    # The first calibrated run adds its entry: compare two runs after it.
    options["warm_up"] = run in ("adaptive", "reoptimize")
    with recorded_decisions(db) as calls:
        results, prints = twice(db, sql, forget=False, **options)
    assert prints[0] == prints[1] and prints[0][0]
    if options.get("optimize") or options.get("reoptimize"):
        assert prints[0][1] and not calls[-1].ran  # the decision was memoised and served
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
