"""A decision is planned once and instantiated per run.

``server.planner.build_plan`` turns a decision into a plan recipe — the
planning pass, which builds no operator — and instantiates fresh operators
from it; the decision keeps the recipe, and a decision the database serves
from its memo shares its memo entry's.  These tests hold a plan built from
a kept recipe to one built with nothing kept, check that two runs from one
recipe share no operator and no per-run state, that a change the decision
memo answers to replaces the recipe when the decision made afresh has a new
shape or template, and that tenants sharing a recipe get the rows a
sequential run gets.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from enum import Enum
from typing import Any, Dict, Iterator, List

import pytest

import repro.distribution.engine as distribution_engine
import repro.server.executor as executor_module
from repro.client.udf import UdfDefinition
from repro.core.execution.adaptive import MigrationPredicate, MigrationStage
from repro.core.execution.context import RemoteExecutionContext
from repro.core.optimizer import OptimizationDecision
from repro.core.optimizer.plans import AccessPath
from repro.network.topology import NetworkConfig
from repro.relational.expressions import Expression
from repro.relational.schema import Column, Schema
from repro.relational.table import Table
from repro.relational.types import DataType, INTEGER
from repro.server import planner
from repro.server.planner import PlanBuildResult, build_plan, plan_shape
from repro.storage.index import KeyInterval
from repro.tenancy import MultiTenantEngine, QuerySpec, SessionWorkload
from repro.workloads.stock import StockWorkload
from test_front_end_memo import CHANGES, SQL, executed, quotes_database, stock_cluster

#: plan_small's queries: Figure 1 (a threshold), 11 and 13.
FIGURES = {
    "figure1": StockWorkload.figure1_query(threshold=500.0),
    "figure11": StockWorkload.figure11_query(),
    "figure13": StockWorkload.figure13_query(),
}
#: plan_small's two kinds per figure, and mid-query re-optimization, whose
#: migration operator owns the whole UDF chain.
RUNS: Dict[str, dict] = {
    "opt": {"optimize": True},
    "opt_adaptive": {"optimize": True, "adaptive": True},
    "reoptimize": {"reoptimize": True},
    "switching": {"optimize": True, "switch_strategies": True},
}


@contextmanager
def planning_passes() -> Iterator[List[int]]:
    """One entry per planning pass run inside the block."""
    passes: List[int] = []
    plan = planner._Planner.plan

    def counting(self):
        passes.append(1)
        return plan(self)

    planner._Planner.plan = counting
    try:
        yield passes
    finally:
        planner._Planner.plan = plan


@contextmanager
def captured_builds(module: Any) -> Iterator[List[dict]]:
    """Each ``build_plan`` call made through ``module``: its arguments, its
    plan and the planning passes it ran."""
    builds: List[dict] = []
    original = module.build_plan

    def capturing(query, context, **options):
        with planning_passes() as passes:
            built = original(query, context, **options)
        builds.append({"query": query, "options": options, "built": built, "planned": len(passes)})
        return built

    module.build_plan = capturing
    try:
        yield builds
    finally:
        module.build_plan = original


def shape(built: PlanBuildResult) -> tuple:
    """What a plan is: its text, operator classes, output schema and remote operators."""
    return (
        built.explain(),
        [type(operator) for operator in built.root.walk()],
        [(column.qualified_name, column.dtype.name) for column in built.root.output_schema()],
        [type(operator) for operator in built.remote_operators],
    )


def planned_schema(build: dict) -> Schema:
    """The output schema the planning pass derived for ``build``'s plan."""
    decision = build["options"]["decision"]
    config = build["options"].get("config") or decision.strategy_config
    return planner.plan_recipe(build["query"], config, decision).root.schema


def rebuilt_fresh(build: dict, context) -> PlanBuildResult:
    """``build``'s plan built again from an equal decision that keeps no recipe."""
    options = dict(build["options"])
    kept = options["decision"]
    options["decision"] = OptimizationDecision(kept.plan, kept.strategy_config)
    return build_plan(build["query"], context, **options)


#: Values two runs may share: immutable, or the database's own catalog and
#: registry objects, which every run reads and none writes.
SHAREABLE = (
    str, int, float, bool, type(None), tuple, frozenset, Enum,
    Schema, Column, DataType, Expression, KeyInterval, AccessPath,
    MigrationStage, MigrationPredicate, Table, UdfDefinition,
)


def shared_state(first: PlanBuildResult, second: PlanBuildResult) -> List[str]:
    """Operators, and attribute values that are not :data:`SHAREABLE`, that two
    plans hold by identity (``functions``, the database's server-function
    mapping, is what the caller passes each build)."""
    mine = list(first.root.walk())
    theirs = list(second.root.walk())
    found = [type(op).__name__ for op in mine if any(op is other for other in theirs)]
    for one, other in zip(mine, theirs):
        for name, value in vars(one).items():
            if name == "functions" or isinstance(value, SHAREABLE) or type(value).__name__.endswith("Index"):
                continue
            if vars(other).get(name) is value:
                found.append(f"{type(one).__name__}.{name}: {type(value).__name__}")
    return found


def two_hits(db, sql: str, options: dict) -> List[dict]:
    """The captured builds of two executes of ``sql`` served one decision
    from the memo, and so one kept recipe.  A calibrated run may re-decide
    while its first observations still move what the decision read."""
    with captured_builds(executor_module) as builds:
        for _ in range(6):
            db.execute(sql, deliver_results=True, **options)
    pairs = [
        (one, other)
        for one, other in zip(builds, builds[1:])
        if one["options"]["decision"].recipes is other["options"]["decision"].recipes
    ]
    assert pairs and all(other["planned"] == 0 for _, other in pairs)
    return list(pairs[-1])


@pytest.mark.parametrize("run", sorted(RUNS))
@pytest.mark.parametrize("figure", sorted(FIGURES))
def test_a_kept_recipe_builds_the_plan_a_fresh_one_builds(figure, run):
    db = StockWorkload().build()
    served, again = two_hits(db, FIGURES[figure], RUNS[run])
    fresh = rebuilt_fresh(served, db.session.new_context())
    assert shape(served["built"]) == shape(fresh)
    assert planned_schema(served) == served["built"].root.output_schema()
    if run == "reoptimize":
        assert "PlanMigrationOperator" in fresh.explain()
    assert shared_state(served["built"], again["built"]) == []


# ---------------------------------------------------------------------------
# Paged access paths, and scatter's per-shard plans
# ---------------------------------------------------------------------------


def orders_database(directory: str):
    """``Quotes`` (B-trees on ``Price`` and ``Id``) and ``Orders`` naming a quote each."""
    db = quotes_database(directory)
    db.create_index("quotes_id_btree", "Quotes", "Id")
    db.create_table("Orders", [("OId", INTEGER), ("QuoteId", INTEGER)], rows=[(i, 7 * i) for i in range(40)])
    db.analyze("Orders")
    return db


SCAN_PATH = AccessPath(
    "Q", "index_scan", "quotes_price_btree", "btree", "Price",
    predicate_keys=("Q.Price >= 10", "Q.Price < 20"),
)
JOIN_SQL = "SELECT O.OId, Q.Price FROM Orders O, Quotes Q WHERE O.QuoteId = Q.Id AND Score(Q.Price) > 30"
JOIN_PATH = AccessPath(
    "Q", "index_join", "quotes_id_btree", "btree", "Id",
    predicate_keys=("O.QuoteId = Q.Id",), join_column="O.QuoteId",
)
PINNED = {
    "index_scan": (SQL, {"access_paths": {"Q": SCAN_PATH}}, "IndexScan"),
    "index_join": (JOIN_SQL, {"table_order": ("O", "Q"), "access_paths": {"Q": JOIN_PATH}}, "IndexNestedLoopJoin"),
}


@pytest.mark.parametrize("path", sorted(PINNED))
def test_a_kept_recipe_realises_a_paged_access_path(path, tmp_path):
    sql, pins, operator = PINNED[path]
    db = orders_database(str(tmp_path / "db"))
    bound = db.bind(sql)
    decision = OptimizationDecision.pinned(bound, db.default_config, **pins)

    def build(decision):  # each build its own context, config and function mapping
        return build_plan(
            bound, db.session.new_context(), config=replace(db.default_config),
            server_functions=db._server_functions(), decision=decision,
        )

    first = build(decision)
    with planning_passes() as passes:
        kept = build(decision)
    assert passes == [] and operator in kept.explain()
    fresh = OptimizationDecision.pinned(bound, db.default_config, **pins)
    assert shape(kept) == shape(first) == shape(build(fresh))
    assert shared_state(first, kept) == []
    db.close()


def test_a_dropped_index_fails_the_kept_recipe_by_name(tmp_path):
    """The index is live state: the kept recipe is checked against it each time."""
    db = orders_database(str(tmp_path / "db"))
    bound = db.bind(SQL)
    decision = OptimizationDecision.pinned(bound, db.default_config, access_paths={"Q": SCAN_PATH})
    build_plan(bound, db.session.new_context(), decision=decision)
    db.drop_index("quotes_price_btree")
    with pytest.raises(planner.PlanError, match="quotes_price_btree.*gone or incomplete"):
        build_plan(bound, db.session.new_context(), decision=decision)
    db.close()


@pytest.mark.parametrize("figure", sorted(FIGURES))
def test_a_kept_recipe_builds_each_shard_plan_a_fresh_one_builds(figure):
    cluster = stock_cluster()
    with captured_builds(distribution_engine) as builds:
        for _ in range(2):
            cluster.execute(FIGURES[figure], optimize=True)
    # Each execute prices its tasks afresh; the merged stream's schema is the
    # first task's recipe's, which that task's shard build instantiates.
    assert sum(build["planned"] for build in builds) == len(builds) - 2
    context = RemoteExecutionContext.create(NetworkConfig.paper_symmetric(), registry=cluster.udfs)
    for build in builds:
        assert build["options"]["defer_output_shaping"] is True
        assert shape(build["built"]) == shape(rebuilt_fresh(build, context))
        assert planned_schema(build) == build["built"].root.output_schema()


# ---------------------------------------------------------------------------
# Every change the decision memo answers to replaces the recipe
# ---------------------------------------------------------------------------


#: change -> whether the decision made afresh after it is planned afresh: a
#: dropped index or new statistics (``ANALYZE``) change the chain's shape,
#: a replaced UDF is a new registry generation and so a new template, and
#: the inserts move estimates only — the template's recipe plans that shape.
REPLANNED = {
    "paged-drop-index": True,
    "paged-analyze": True,
    "paged-insert": False,
    "memory-insert": False,
    "replace-udf-cost": True,
}


@pytest.mark.parametrize("change", sorted(REPLANNED))
def test_a_change_between_two_executes_replans_a_new_shape_or_template(change, tmp_path):
    paged, options, apply = CHANGES[change]

    def build(name: str):
        return quotes_database(str(tmp_path / name) if paged else None, **options)

    def decided(db):
        bound = db.bind(SQL)
        return bound, db._decide(bound, db.default_config, optimize=True)

    db, fresh = build("memoised"), build("fresh")
    with planning_passes() as passes:
        executed(db)
        executed(db)
    assert len(passes) == 1
    first, before = decided(db)
    apply(db)
    with planning_passes() as passes:
        after = executed(db)
        executed(db)
    assert len(passes) == REPLANNED[change]  # planned afresh at most once, then kept again
    bound, decision = decided(db)
    assert (decision.recipes is before.recipes) is not REPLANNED[change]
    if bound.template == first.template:  # a table change: the shape decides
        assert (plan_shape(bound, decision.plan) == plan_shape(first, before.plan)) is not REPLANNED[change]
    kept = build_plan(bound, db.session.new_context(), decision=decision)
    planned = build_plan(
        bound, db.session.new_context(), decision=OptimizationDecision(decision.plan, decision.strategy_config)
    )
    assert shape(kept) == shape(planned)
    apply(fresh)
    assert after == executed(fresh)
    db.close()
    fresh.close()


# ---------------------------------------------------------------------------
# Tenants share a recipe, never its operators
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("run", ["opt", "opt_adaptive"])
def test_tenants_sharing_a_recipe_get_the_rows_of_a_sequential_run(run):
    options = RUNS[run]
    specs = [QuerySpec(sql, options=dict(options)) for _, sql in sorted(FIGURES.items())]
    db = StockWorkload().build()
    rows: Dict[str, List[list]] = {}
    execute = db.execute

    def recording(sql, **keywords):
        result = execute(sql, **keywords)
        rows.setdefault(sql, []).append(sorted(result.rows))
        return result

    db.execute = recording
    engine = MultiTenantEngine(db)
    workloads = [SessionWorkload(tenant_id=tenant, queries=specs, repeat=2) for tenant in ("a", "b")]
    with captured_builds(executor_module) as builds:
        report = engine.run(workloads)
    assert report.error_count == 0
    # One planning pass per decision the database made (calibrated ones
    # re-decide while observations move them); every other build
    # instantiated that decision's kept recipe.
    decisions = {id(build["options"]["decision"].recipes) for build in builds}
    assert sum(build["planned"] for build in builds) == len(decisions) < len(builds)
    sequential = StockWorkload().build()
    for sql, seen in rows.items():
        expected = sorted(sequential.execute(sql, **options).rows)
        assert len(seen) == 4 and all(answer == expected for answer in seen)
