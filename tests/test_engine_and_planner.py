"""End-to-end tests of the Database engine, planner, executor and metrics."""

import pytest

from repro.adaptive import ReOptimizationPolicy, SwitchPolicy
from repro.errors import BindError, CatalogError, OptimizerError
from repro.core.optimizer import OptimizationDecision
from repro.core.strategies import ExecutionStrategy, StrategyConfig
from repro.network.topology import NetworkConfig
from repro.relational.types import FLOAT, INTEGER, STRING, TIME_SERIES, TimeSeries
from repro.server.engine import Database, resolve_keywords
from repro.server.planner import build_plan, find_remote_operators
from repro.workloads.stock import StockWorkload

FAST = NetworkConfig.symmetric(2_000_000.0, latency=0.0005, name="fast")


@pytest.fixture
def db():
    database = Database(network=FAST)
    database.create_table(
        "StockQuotes",
        [("Name", STRING), ("Quotes", TIME_SERIES), ("Change", FLOAT), ("Close", FLOAT)],
        rows=[
            ["Alpha", TimeSeries([10, 12, 15]), 3.0, 15.0],
            ["Beta", TimeSeries([30, 28, 27]), -1.0, 27.0],
            ["Gamma", TimeSeries([5, 9, 14]), 5.0, 14.0],
            ["Delta", TimeSeries([100, 101, 99]), -2.0, 99.0],
        ],
    )
    database.create_table(
        "Estimations",
        [("CompanyName", STRING), ("Rating", INTEGER)],
        rows=[["Alpha", 4], ["Beta", 2], ["Gamma", 4], ["Gamma", 1]],
    )
    database.register_client_udf(
        "Score",
        lambda quotes: sum(quotes) / len(quotes),
        result_dtype=FLOAT,
        result_size_bytes=8,
        selectivity=0.5,
    )
    database.register_client_udf(
        "Stars",
        lambda quotes: min(5, max(1, int(quotes[-1] // 10) + 1)),
        result_dtype=INTEGER,
        result_size_bytes=4,
        selectivity=0.3,
    )
    database.register_server_udf("Half", lambda x: x / 2.0, result_dtype=FLOAT)
    return database


class TestBasicSql:
    def test_projection_and_filter_without_udfs(self, db):
        result = db.execute("SELECT S.Name FROM StockQuotes S WHERE S.Close > 20")
        assert sorted(result.column("Name")) == ["Beta", "Delta"]
        assert result.metrics.udf_invocations == 0

    def test_join_query(self, db):
        result = db.execute(
            "SELECT S.Name, E.Rating FROM StockQuotes S, Estimations E "
            "WHERE S.Name = E.CompanyName AND E.Rating > 3"
        )
        assert sorted(result.column("Name")) == ["Alpha", "Gamma"]

    @pytest.mark.parametrize("where, names", [("1 = 1", 2), ("2 < 1", 0)])
    def test_a_predicate_over_no_table_is_a_server_filter(self, db, where, names):
        """Neither a single-table nor a join predicate: it is applied once the
        join tree stands (``_apply_udf_free_residuals``), optimized or not."""
        sql = f"SELECT S.Name FROM StockQuotes S WHERE S.Close > 20 AND {where}"
        for optimize in (False, True):
            result = db.execute(sql, optimize=optimize)
            assert len(result.rows) == names
            assert f"Filter({where})" in result.plan_text

    def test_order_by_distinct_limit(self, db):
        result = db.execute(
            "SELECT DISTINCT E.CompanyName FROM Estimations E ORDER BY E.CompanyName LIMIT 2"
        )
        assert result.column("CompanyName") == ["Alpha", "Beta"]

    def test_arithmetic_and_server_udf(self, db):
        result = db.execute("SELECT S.Name, Half(S.Close) AS HalfClose FROM StockQuotes S WHERE S.Name = 'Alpha'")
        assert result.rows[0][1] == pytest.approx(7.5)

    def test_result_helpers(self, db):
        result = db.execute("SELECT S.Name, S.Close FROM StockQuotes S ORDER BY S.Close")
        assert result.column_names() == ["Name", "Close"]
        assert len(result.to_dicts()) == 4
        table_text = result.format_table()
        assert "Name" in table_text and "Alpha" in table_text

    def test_errors(self, db):
        with pytest.raises(BindError):
            db.execute("SELECT Missing FROM StockQuotes S")
        with pytest.raises(CatalogError):
            db.create_table("StockQuotes", [("x", INTEGER)])


class TestClientUdfQueries:
    QUERY = "SELECT S.Name, Score(S.Quotes) AS s FROM StockQuotes S WHERE Score(S.Quotes) > 12"

    def test_strategies_agree_on_rows(self, db):
        results = db.compare_strategies(self.QUERY)
        row_sets = [result.row_set() for result in results.values()]
        assert row_sets[0] == row_sets[1] == row_sets[2]
        assert len(row_sets[0]) == 3  # Alpha (12.3), Beta (28.3) and Delta (100)

    def test_metrics_are_populated(self, db):
        result = db.execute(self.QUERY, config=StrategyConfig.semi_join())
        metrics = result.metrics
        assert metrics.strategy is ExecutionStrategy.SEMI_JOIN
        assert metrics.downlink_bytes > 0 and metrics.uplink_bytes > 0
        assert metrics.udf_invocations == 4
        assert metrics.elapsed_seconds > 0
        assert "semi_join" in metrics.summary()

    def test_udf_in_select_only(self, db):
        result = db.execute("SELECT S.Name, Stars(S.Quotes) AS r FROM StockQuotes S")
        assert len(result) == 4
        assert all(isinstance(row[1], int) for row in result)

    def test_two_udfs_in_one_query(self, db):
        result = db.execute(
            "SELECT S.Name, Score(S.Quotes) AS s, Stars(S.Quotes) AS r "
            "FROM StockQuotes S WHERE Stars(S.Quotes) >= 2"
        )
        assert len(result) >= 1
        assert result.metrics.remote_operations >= 2

    def test_udf_join_with_rating(self, db):
        query = (
            "SELECT S.Name, E.Rating FROM StockQuotes S, Estimations E "
            "WHERE S.Name = E.CompanyName AND Stars(S.Quotes) = E.Rating"
        )
        results = db.compare_strategies(query)
        row_sets = [result.row_set() for result in results.values()]
        assert row_sets[0] == row_sets[1] == row_sets[2]

    def test_deliver_results_adds_downlink_traffic(self, db):
        plain = db.execute(self.QUERY, config=StrategyConfig.semi_join())
        delivered = db.execute(self.QUERY, config=StrategyConfig.semi_join(), deliver_results=True)
        assert delivered.metrics.downlink_bytes > plain.metrics.downlink_bytes
        assert delivered.row_set() == plain.row_set()

    def test_explain_shows_plan(self, db):
        text = db.explain(self.QUERY, config=StrategyConfig.client_site_join())
        assert "ClientSiteJoinOperator" in text
        assert "TableScan(StockQuotes" in text

    def test_udf_order_override(self, db):
        query = (
            "SELECT S.Name FROM StockQuotes S "
            "WHERE Score(S.Quotes) > 12 AND Stars(S.Quotes) >= 2"
        )
        first = db.execute(query, udf_order=["Score", "Stars"])
        second = db.execute(query, udf_order=["Stars", "Score"])
        assert first.row_set() == second.row_set()

    def test_sandboxed_source_udf_end_to_end(self, db):
        db.register_client_udf_source(
            "Momentum",
            "def Momentum(quotes):\n    return quotes[-1] - quotes[0]\n",
            result_dtype=FLOAT,
            result_size_bytes=8,
        )
        result = db.execute("SELECT S.Name FROM StockQuotes S WHERE Momentum(S.Quotes) > 0")
        assert sorted(result.column("Name")) == ["Alpha", "Gamma"]


class TestPlannerDetails:
    def test_remote_operator_discovery_and_strategy_override(self, db):
        bound = db.bind(
            "SELECT S.Name, Score(S.Quotes) AS s, Stars(S.Quotes) AS r FROM StockQuotes S"
        )
        context = db.session.new_context()
        decision = OptimizationDecision.pinned(
            StrategyConfig.semi_join(),
            udf_strategies={"Stars": ExecutionStrategy.CLIENT_SITE_JOIN},
        )
        plan = build_plan(bound, context, decision=decision)
        operators = find_remote_operators(plan.root)
        assert len(operators) == 2
        names = {type(op).__name__ for op in operators}
        assert names == {"SemiJoinUdfOperator", "ClientSiteJoinOperator"}

    def test_single_table_predicates_applied_before_udf(self, db):
        bound = db.bind(
            "SELECT S.Name FROM StockQuotes S WHERE S.Close > 20 AND Score(S.Quotes) > 12"
        )
        context = db.session.new_context()
        plan = build_plan(bound, context, config=StrategyConfig.semi_join())
        text = plan.explain()
        # The server-evaluable filter sits below the remote UDF operator.
        assert text.index("SemiJoinUdfOperator") < text.index("Filter(S.Close > 20")

    def test_table_order_override(self, db):
        bound = db.bind(
            "SELECT S.Name, E.Rating FROM StockQuotes S, Estimations E "
            "WHERE S.Name = E.CompanyName"
        )
        context = db.session.new_context()
        decision = OptimizationDecision.pinned(StrategyConfig(), table_order=("E", "S"))
        plan = build_plan(bound, context, decision=decision)
        text = plan.explain()
        assert text.index("TableScan(Estimations") < text.index("TableScan(StockQuotes")


# -- the priced plan is the executed plan ---------------------------------------------------
#
# Two inputs whose decision differs from what a FROM-order, one-strategy plan
# would do: (a) two UDFs with different strategies, (b) a join order that is
# not the FROM order, over same-named join columns.

STRATEGY_OF_OPERATOR = {
    "NaiveUdfOperator": "naive",
    "SemiJoinUdfOperator": "semi_join",
    "ClientSiteJoinOperator": "client_site_join",
}


def plan_shape(text):
    """``(scans, joins, udfs)`` of an explain text, each bottom-up.

    ``scans`` are the table aliases in join order, ``joins`` the join
    operator classes, ``udfs`` the ``(name, strategy)`` pairs in application
    order — read off the remote operators, or off a migration operator's
    initial shape (``f[semi_join] -> g[client_site_join]``).
    """
    scans, joins, udfs = [], [], []
    for line in (line.strip() for line in text.splitlines()):
        head = line.partition("(")[0]
        if head == "TableScan":
            scans.append(line[len("TableScan("):-1].split(" AS ")[-1])
        elif head in ("HashJoin", "NestedLoopJoin", "IndexNestedLoopJoin"):
            joins.insert(0, head)
        elif head in STRATEGY_OF_OPERATOR:
            name = line.partition("(")[2].partition(" on ")[0]
            udfs.insert(0, (name.lower(), STRATEGY_OF_OPERATOR[head]))
        elif head == "PlanMigrationOperator":
            initial = line[len("PlanMigrationOperator("):-1].split(" => ")[0]
            udfs = [
                (stage.partition("[")[0], stage.partition("[")[2].rstrip("]"))
                for stage in initial.split(" -> ")
            ]
    return scans, joins, udfs


def decision_shape(decision, joins):
    return (
        list(decision.table_order),
        joins,
        [(name.lower(), decision.udf_strategies[name].value) for name in decision.udf_order],
    )


def two_strategy_input(database):
    """(a): the decision gives F a semi-join and G a client-site join."""
    database.create_table(
        "T",
        [("Id", INTEGER), ("K", STRING), ("Big", STRING), ("V", FLOAT)],
        rows=[(i, "k%d" % (i % 2), "x" * 10 + str(i), float(i)) for i in range(400)],
    )
    database.register_client_udf("F", lambda k: float(len(k)), selectivity=0.9)
    database.register_client_udf("G", lambda big, v: v, selectivity=0.02)
    return database


TWO_STRATEGY_SQL = "SELECT T.Id FROM T T WHERE F(T.K) > 0 AND G(T.Big, T.V) < 8.0"
TWO_STRATEGY_ORACLE = sorted((i,) for i in range(400) if float(i) < 8.0)


def reordered_join_input(database):
    """(b): the decision joins C, B, A; A.X = B.X and B.Y = C.Y share bare names."""
    database.create_table("A", [("X", INTEGER)], rows=[(i % 5,) for i in range(300)])
    database.create_table(
        "B", [("X", INTEGER), ("Y", INTEGER)], rows=[(i % 5, i) for i in range(300)]
    )
    database.create_table("C", [("Y", INTEGER)], rows=[(i,) for i in range(3)])
    database.register_client_udf("F", lambda y: float(y))
    return database


def reordered_join_sql(from_clause="A A, B B, C C"):
    return (
        f"SELECT A.X FROM {from_clause} "
        "WHERE A.X = B.X AND B.Y = C.Y AND F(C.Y) >= 0"
    )


REORDERED_JOIN_ORACLE = sorted(
    (a % 5,)
    for a in range(300)
    for b in range(300)
    if a % 5 == b % 5 and b < 3 and float(b) >= 0
)

PRICED_INPUTS = [
    pytest.param(
        lambda: NetworkConfig.paper_asymmetric(asymmetry=10.0),
        two_strategy_input,
        TWO_STRATEGY_SQL,
        (["T"], [], [("f", "semi_join"), ("g", "client_site_join")]),
        TWO_STRATEGY_ORACLE,
        id="two-strategies",
    ),
    pytest.param(
        NetworkConfig.paper_symmetric,
        reordered_join_input,
        reordered_join_sql(),
        (["C", "B", "A"], ["HashJoin", "HashJoin"], [("f", "client_site_join")]),
        REORDERED_JOIN_ORACLE,
        id="reordered-join",
    ),
]


@pytest.mark.parametrize("network, install, sql, expected, oracle", PRICED_INPUTS)
class TestPricedPlanIsExecutedPlan:
    def test_decision_is_the_expected_one(self, network, install, sql, expected, oracle):
        db = install(Database(network=network()))
        decision = db._decide(db.bind(sql), db.default_config, optimize=True)
        assert decision_shape(decision, expected[1]) == expected

    def test_execute_runs_the_decision(self, network, install, sql, expected, oracle):
        result = install(Database(network=network())).execute(sql, optimize=True)
        assert plan_shape(result.plan_text) == expected
        assert sorted(tuple(row) for row in result.rows) == oracle

    def test_explain_prints_the_plan_execute_runs(self, network, install, sql, expected, oracle):
        db = install(Database(network=network()))
        text = db.explain(sql, optimize=True)
        assert plan_shape(text) == expected
        executed = install(Database(network=network())).execute(sql, optimize=True)
        assert text.endswith(executed.plan_text)

    def test_reoptimize_starts_from_the_decision(self, network, install, sql, expected, oracle):
        result = install(Database(network=network())).execute(sql, reoptimize=True)
        assert plan_shape(result.plan_text) == expected
        assert sorted(tuple(row) for row in result.rows) == oracle

    def test_one_site_cluster_runs_the_decision(
        self, network, install, sql, expected, oracle, monkeypatch
    ):
        from repro.distribution import ClusterConfig, DistributedDatabase, SiteConfig
        from repro.distribution import engine as distribution_engine

        built = []
        real_build_plan = distribution_engine.build_plan

        def recording_build_plan(*args, **kwargs):
            built.append(real_build_plan(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(distribution_engine, "build_plan", recording_build_plan)
        dist = install(DistributedDatabase(ClusterConfig([SiteConfig("only", network())])))
        result = dist.execute(sql, optimize=True)
        # The schema probe and the one shard task: both the decision's plan.
        assert [plan_shape(plan.explain()) for plan in built] == [expected, expected]
        assert sorted(tuple(row) for row in result.rows) == oracle


class TestSameNamedJoinColumns:
    """A qualified column is never covered by another qualifier's column."""

    @pytest.mark.parametrize("optimize", [False, True])
    @pytest.mark.parametrize("from_clause", ["A A, B B, C C", "C C, B B, A A", "B B, C C, A A"])
    def test_every_from_order_returns_the_join_not_a_cross_product(self, from_clause, optimize):
        db = reordered_join_input(Database())
        result = db.execute(reordered_join_sql(from_clause), optimize=optimize)
        assert sorted(tuple(row) for row in result.rows) == REORDERED_JOIN_ORACLE
        assert len(result.rows) == 180
        assert plan_shape(result.plan_text)[1] == ["HashJoin", "HashJoin"]

    def test_same_named_equi_join_is_a_hash_join(self):
        db = Database()
        db.create_table("L", [("K", INTEGER), ("P", INTEGER)], rows=[(i % 4, i) for i in range(12)])
        db.create_table("R", [("K", INTEGER), ("Q", INTEGER)], rows=[(i, i * 10) for i in range(4)])
        result = db.execute("SELECT L.P, R.Q FROM L L, R R WHERE L.K = R.K")
        assert plan_shape(result.plan_text)[1] == ["HashJoin"]
        assert sorted(tuple(row) for row in result.rows) == sorted(
            (i, (i % 4) * 10) for i in range(12)
        )


class TestKeywordResolution:
    """One rule each: the implications and the one conflict of ``execute``'s keywords."""

    def test_switch_policy_arms_switching(self):
        policy = SwitchPolicy()
        resolved = resolve_keywords(StrategyConfig(), switch_policy=policy)
        assert resolved.config.switch_policy is policy
        assert resolve_keywords(StrategyConfig()).config.switch_policy is None
        assert resolve_keywords(StrategyConfig(), switch_strategies=True).config.switch_policy

    def test_replan_policy_arms_reoptimization_which_implies_optimize(self):
        resolved = resolve_keywords(StrategyConfig(), replan_policy=ReOptimizationPolicy())
        assert resolved.reoptimize and resolved.optimize
        resolved = resolve_keywords(StrategyConfig(), reoptimize=True)
        assert resolved.reoptimize and resolved.optimize
        assert not resolve_keywords(StrategyConfig(), optimize=True).reoptimize

    def test_calibrated_follows_adaptive_unless_forced(self):
        assert resolve_keywords(StrategyConfig(), adaptive=True).calibrated is True
        assert resolve_keywords(StrategyConfig()).calibrated is False
        assert resolve_keywords(StrategyConfig(), adaptive=True, calibrated=False).calibrated is False
        assert resolve_keywords(StrategyConfig(), calibrated=True).calibrated is True

    def test_migration_policy_arms_migration(self):
        from repro.distribution import MigrationPolicy

        assert resolve_keywords(StrategyConfig(), migration_policy=MigrationPolicy()).migrate
        assert resolve_keywords(StrategyConfig(), migrate=True).migrate
        assert not resolve_keywords(StrategyConfig()).migrate

    def test_config_then_strategy_then_window(self):
        default = StrategyConfig.naive()
        assert resolve_keywords(default).config is default
        given = StrategyConfig.semi_join(batch_size=4)
        resolved = resolve_keywords(
            default, config=given, strategy=ExecutionStrategy.CLIENT_SITE_JOIN, overlap_window=3
        )
        assert resolved.config == given.with_strategy(
            ExecutionStrategy.CLIENT_SITE_JOIN
        ).with_overlap_window(3)

    @pytest.mark.parametrize(
        "keywords",
        [{"optimize": True}, {"reoptimize": True}, {"replan_policy": ReOptimizationPolicy()}],
    )
    def test_pinned_udf_order_conflicts_with_the_optimizer(self, db, keywords):
        sql = "SELECT S.Name, Score(S.Quotes) AS s, Stars(S.Quotes) AS r FROM StockQuotes S"
        with pytest.raises(OptimizerError, match="udf_order"):
            db.execute(sql, udf_order=["Stars", "Score"], **keywords)
        pinned = db.execute(sql, udf_order=["Stars", "Score"])
        assert [name for name, _ in plan_shape(pinned.plan_text)[2]] == ["stars", "score"]

    def test_distributed_execute_resolves_through_the_same_step(self):
        from repro.distribution import ClusterConfig, DistributedDatabase, SiteConfig

        dist = two_strategy_input(DistributedDatabase(ClusterConfig([SiteConfig("only", FAST)])))
        result = dist.execute(
            TWO_STRATEGY_SQL,
            config=StrategyConfig.naive(batch_size=8),
            strategy=ExecutionStrategy.SEMI_JOIN,
        )
        assert result.metrics.strategy is ExecutionStrategy.SEMI_JOIN
        assert sorted(tuple(row) for row in result.rows) == TWO_STRATEGY_ORACLE


class TestStockWorkloadQueries:
    def test_figure1_query_all_strategies(self, stock_db):
        results = stock_db.compare_strategies(StockWorkload.figure1_query())
        row_sets = [result.row_set() for result in results.values()]
        assert row_sets[0] == row_sets[1] == row_sets[2]
        assert len(row_sets[0]) > 0

    def test_figure11_query_all_strategies(self, stock_db):
        results = stock_db.compare_strategies(StockWorkload.figure11_query())
        row_sets = [result.row_set() for result in results.values()]
        assert row_sets[0] == row_sets[1] == row_sets[2]

    def test_figure13_query_executes(self, stock_db):
        result = stock_db.execute(StockWorkload.figure13_query(), config=StrategyConfig.semi_join())
        assert result.column_names() == ["Name", "BrokerName", "Vol"]
        assert all(row[2] >= 0 for row in result)
