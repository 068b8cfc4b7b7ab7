"""A finished query is read once: what its operators booked on the context.

Operators book what they count (input rows, window peaks and stalls, index
probes) and decide (one :class:`~repro.adaptive.segmented.Adaptation` per
segmented operator) on their execution context as they run.  The metrics'
switching and re-optimization figures are views of the booked verdicts, the
context's counters are complete when the plan finishes, and the experiment
harness reads the same counters.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.adaptive import SWITCHING_POLICY, ReOptimizer
from repro.core.execution.context import ExecutionCounters, RemoteExecutionContext
from repro.core.optimizer import OptimizationDecision
from repro.core.optimizer.plans import AccessPath
from repro.core.strategies import ExecutionStrategy, StrategyConfig
from repro.network.topology import NetworkConfig
from repro.relational.types import FLOAT, INTEGER
from repro.server.engine import Database
from repro.server.executor import Executor
from repro.server.planner import build_plan
from repro.workloads.experiments import run_workload_point
from repro.workloads.misestimation import MisorderedUdfScenario
from repro.workloads.synthetic import SyntheticWorkload

SCENARIO = MisorderedUdfScenario()
ONE_UDF = "SELECT T.K FROM T WHERE ProbeA(T.V) <= 569"
TWO_UDFS = SCENARIO.sql


def _armed(mode: str) -> StrategyConfig:
    config = StrategyConfig.semi_join(batch_size=8)
    if mode in ("switch", "both"):
        config = config.with_switch_policy(
            replace(SWITCHING_POLICY, initial_segment_rows=16, evidence_floor=16)
        )
    if mode in ("reoptimize", "both"):
        config = config.with_reoptimizer(ReOptimizer(SCENARIO.replan_policy()))
    return config


def _run(db: Database, sql: str, config: StrategyConfig):
    context = db.session.new_context()
    plan = build_plan(db.bind(sql), context, config=config)
    return plan, Executor(context).execute_plan(plan)


# ---------------------------------------------------------------------------
# Verdicts: metrics.adaptations is what each controller decided
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sql", [ONE_UDF, TWO_UDFS], ids=["one_udf", "two_udfs"])
@pytest.mark.parametrize("mode", ["switch", "reoptimize", "both"])
def test_adaptations_are_each_controllers_verdicts(mode, sql):
    plan, result = _run(SCENARIO.build_database(), sql, _armed(mode))
    metrics = result.metrics
    controllers = [operator.controller for operator in plan.remote_operators]
    per_udf = mode == "switch" and sql == TWO_UDFS
    assert len(metrics.adaptations) == len(controllers) == (2 if per_udf else 1)
    for adaptation, controller in zip(metrics.adaptations, controllers):
        assert adaptation.plan_wide is controller.plan_wide is (mode != "switch")
        assert adaptation.changes == controller.change_count
        assert len(adaptation.decisions) == controller.attempt_count >= 1
        assert tuple(dict.fromkeys(adaptation.shapes)) == controller.shapes_used
        verdicts = controller.describe().splitlines()[1:]
        assert len(verdicts) == len(adaptation.decisions)
        for line, decision in zip(verdicts, adaptation.decisions):
            assert line.endswith(f"] {decision.shape.describe()}: {decision.reason}")

    switchers = [c for c in controllers if not c.plan_wide]
    replanners = [c for c in controllers if c.plan_wide]
    assert metrics.strategy_switches == sum(c.change_count for c in switchers)
    assert metrics.replan_attempts == sum(c.attempt_count for c in replanners)
    assert metrics.plan_migrations == sum(c.change_count for c in replanners)
    assert metrics.strategies_used == tuple(
        dict.fromkeys(s for c in controllers for s in c.strategies_used)
    )
    if replanners:
        assert metrics.shapes_used == tuple(
            shape.describe() for shape in replanners[0].shapes_used
        )
    else:
        assert metrics.shapes_used is metrics.udf_orders_used is None


def test_a_reused_reoptimizer_leaves_the_first_result_alone():
    """The verdicts are detached at booking: re-binding the controller for
    the next query on the same config changes nothing already reported."""
    db = SCENARIO.build_database()
    config = _armed("reoptimize")
    _, first = _run(db, TWO_UDFS, config)
    reasons = [d.reason for a in first.metrics.adaptations for d in a.decisions]
    shapes = first.metrics.shapes_used
    assert first.metrics.plan_migrations == 1 and len(shapes) == 2

    _, second = _run(db, ONE_UDF, config)
    assert second.metrics.shapes_used != shapes
    assert [d.reason for a in first.metrics.adaptations for d in a.decisions] == reasons
    assert first.metrics.shapes_used == shapes


# ---------------------------------------------------------------------------
# Counters: booked per operation, they add up to the query's
# ---------------------------------------------------------------------------


def test_per_operation_deltas_add_up_to_the_query(tmp_path, monkeypatch):
    """Readings of ``context.counters()`` around every remote operation split
    the query into intervals whose deltas sum to its stall, index-probe and
    index-page totals: the index scan books its probe before the first
    operation, the operations book every stall, nothing is left for the
    executor to add afterwards."""
    db = Database(
        network=NetworkConfig.symmetric(20_000.0, latency=0.05, name="slow"),
        storage_dir=str(tmp_path / "db"),
    )
    db.create_table("Q", [("Id", INTEGER), ("V", FLOAT)], rows=[[i, float(i)] for i in range(300)])
    db.create_index("q_id", "Q", "Id")
    db.register_client_udf("ScoreA", lambda v: v)
    db.register_client_udf("ScoreB", lambda v: v / 2.0)
    sql = "SELECT Q.Id FROM Q WHERE Q.Id < 200 AND ScoreA(Q.V) > 10 AND ScoreB(Q.V) > 20"
    path = AccessPath("Q", "index_scan", "q_id", "btree", "Id", predicate_keys=("Q.Id < 200",))
    config = StrategyConfig.naive(batch_size=8).with_overlap_window(2)

    readings = []
    run_remote = RemoteExecutionContext.run_remote

    def reading(context, coordinator, name="remote-operation"):
        readings.append(context.counters())
        try:
            return run_remote(context, coordinator, name=name)
        finally:
            readings.append(context.counters())

    monkeypatch.setattr(RemoteExecutionContext, "run_remote", reading)
    bound = db.bind(sql)
    result = Executor(db.session.new_context()).execute_query(
        bound, decision=OptimizationDecision.pinned(bound, config, access_paths={"Q": path})
    )
    db.close()
    query = result.metrics.counters
    assert len(readings) == 4 and "IndexScan" in result.plan_text
    assert query.index_lookups == 1 and query.index_pages_read > 0
    assert query.send_stall_seconds > 0 and query.input_rows == 200

    marks = [ExecutionCounters(), *readings, query]
    deltas = [later - earlier for earlier, later in zip(marks, marks[1:])]
    operations = deltas[1::2]
    assert sum(d.index_lookups for d in deltas) == query.index_lookups
    assert sum(d.index_pages_read for d in deltas) == query.index_pages_read
    assert sum(d.send_stall_seconds for d in deltas) == pytest.approx(query.send_stall_seconds)
    assert sum(d.send_stall_seconds for d in operations) == pytest.approx(query.send_stall_seconds)
    assert all(d.index_lookups == 0 for d in operations)
    assert deltas[0].index_lookups == 1
    assert max(d.peak_in_flight_batches for d in deltas) == query.peak_in_flight_batches


@pytest.mark.parametrize("strategy", list(ExecutionStrategy))
def test_an_experiment_point_reports_what_its_operators_booked(strategy):
    """``run_workload_point`` reads the context alone, so its counters hold
    only what the operators booked there: every input row and the window's
    peak, at every strategy."""
    point = run_workload_point(
        SyntheticWorkload(row_count=200),
        NetworkConfig.paper_asymmetric(asymmetry=100.0),
        StrategyConfig(strategy=strategy, batch_size=8).with_overlap_window(4),
    )
    assert point.counters.input_rows == 200
    assert 1 <= point.counters.peak_in_flight_batches <= 4
    assert point.adaptations == () and point.strategy_switches == 0


# ---------------------------------------------------------------------------
# Public entry points no other test drives
# ---------------------------------------------------------------------------


def test_a_with_block_closes_a_durable_database_and_reopening_warm_starts(tmp_path):
    directory = str(tmp_path / "db")
    sql = "SELECT T.K FROM T WHERE Score(T.V) > 10"
    with Database(storage_dir=directory) as db:
        db.create_table("T", [("K", INTEGER), ("V", FLOAT)], rows=[[k, float(k)] for k in range(40)])
        db.register_client_udf("Score", lambda v: v)
        first = db.execute(sql)
        handles = list(db.storage.files._handles.values())
    assert handles and all(handle.closed for handle in handles)

    reopened = Database(storage_dir=directory)
    reopened.register_client_udf("Score", lambda v: v)
    again = reopened.execute(sql)
    assert again.row_set() == first.row_set()
    # The first run's observation came back from statistics.json.
    assert reopened.statistics.queries_observed == 2
    reopened.close()


def test_distributed_explain_prints_the_plan_execute_runs():
    from repro.workloads.sharding import FILTER_SQL, make_sharded_setup

    _, dist = make_sharded_setup(sites=2, shards=2, rows=12, series_points=6)
    text = dist.explain(FILTER_SQL, optimize=True)
    cluster, plan = text[: len(dist.cluster.describe())], text[len(dist.cluster.describe()) + 1 :]
    assert cluster == dist.cluster.describe()
    assert plan.startswith("cluster plan over Trades: 2 tasks")
    executed = dist.execute(FILTER_SQL, optimize=True)
    assert executed.plan_text.startswith(plan + "\n")
