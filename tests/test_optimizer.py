"""Tests for the extended System-R optimizer and its baselines."""

import pytest

from repro.core.optimizer import (
    CostEstimator,
    OptimizationDecision,
    Optimizer,
    PlanSite,
    RankOrderOptimizer,
    SystemREnumerator,
    heuristic_plan,
    HEURISTIC_UDFS_FIRST,
    HEURISTIC_UDFS_LAST,
    operations_for_query,
)
from repro.core.strategies import ExecutionStrategy, StrategyConfig
from repro.network.topology import NetworkConfig
from repro.workloads.stock import StockWorkload


@pytest.fixture(scope="module")
def stock():
    workload = StockWorkload(company_count=25, seed=11)
    db = workload.build()
    return db


@pytest.fixture(scope="module")
def figure11_bound(stock):
    return stock.bind(StockWorkload.figure11_query())


@pytest.fixture(scope="module")
def figure13_bound(stock):
    return stock.bind(StockWorkload.figure13_query())


class TestOperations:
    def test_operations_cover_tables_and_udfs(self, figure11_bound):
        tables, udfs = operations_for_query(figure11_bound)
        assert {op.alias for op in tables} == {"S", "E"}
        assert [op.name for op in udfs] == ["ClientRating"]
        assert 0 < udfs[0].predicate_selectivity <= 1.0

    def test_figure13_has_two_udfs(self, figure13_bound):
        _, udfs = operations_for_query(figure13_bound)
        assert {op.name for op in udfs} == {"ClientRating", "Volatility"}


class TestEnumerator:
    def test_best_plan_covers_all_operations(self, stock, figure11_bound):
        optimizer = Optimizer(stock.network)
        best = optimizer.enumerator(figure11_bound).best_plan()
        assert {"table:s", "table:e", "udf:clientrating"} <= best.operations
        assert best.cost > 0
        assert best.steps[-1].kind == "final"
        # After result delivery the plan's data is at the client.
        assert best.properties.site is PlanSite.CLIENT

    def test_plan_space_contains_udf_before_and_after_join(self, stock, figure11_bound):
        plans = Optimizer(stock.network).plan_space(figure11_bound)
        assert len(plans) >= 2
        positions = set()
        for plan in plans:
            names = [step.name for step in plan.steps if step.kind in ("udf", "join")]
            positions.add(tuple(names))
        assert len(positions) >= 2  # both orderings survive as property classes

    def test_optimizer_never_worse_than_baselines(self, stock, figure11_bound, figure13_bound):
        optimizer = Optimizer(stock.network)
        for bound in (figure11_bound, figure13_bound):
            decision = optimizer.optimize(bound, include_baselines=True)
            assert decision.alternatives
            for name, alternative in decision.alternatives.items():
                assert decision.estimated_cost <= alternative.cost + 1e-9, name

    def test_rank_order_baseline_is_naive_and_expensive(self, stock, figure11_bound):
        optimizer = Optimizer(stock.network)
        baselines = optimizer.baseline_plans(figure11_bound)
        rank = baselines["rank-order (naive execution)"]
        assert all(
            step.strategy is ExecutionStrategy.NAIVE
            for step in rank.steps
            if step.kind == "udf"
        )
        best = optimizer.optimize(figure11_bound).estimated_cost
        assert rank.cost > best

    def test_property_ablation_prunes_more(self, stock, figure13_bound):
        exhaustive = Optimizer(stock.network, exhaustive_properties=True)
        reduced = Optimizer(stock.network, exhaustive_properties=False)
        full_plans = exhaustive.plan_space(figure13_bound)
        pruned_plans = reduced.plan_space(figure13_bound)
        assert len(pruned_plans) <= len(full_plans)
        # The reduced property set can never find a *cheaper* plan.
        assert pruned_plans[0].cost >= full_plans[0].cost - 1e-9

    def test_decision_round_trips_into_execution(self, stock):
        query = StockWorkload.figure11_query()
        optimized = stock.execute(query, optimize=True)
        direct = stock.execute(query, config=StrategyConfig.semi_join())
        assert optimized.row_set() == direct.row_set()

    def test_decision_reads_its_shape_off_the_plan(self, stock, figure13_bound):
        """One value: the decision's shape *is* its plan's, not a copy of it."""
        decision = Optimizer(stock.network).optimize(figure13_bound)
        plan = decision.plan
        assert decision.table_order is plan.table_order
        assert decision.udf_order is plan.udf_order
        assert decision.udf_strategies is plan.udf_strategies
        assert decision.access_paths is plan.access_paths
        assert decision.estimated_cost == plan.cost
        assert decision.strategy_config.batch_size == decision.batch_size

    def test_pinned_decision_is_the_same_kind_of_value(self):
        config = StrategyConfig.semi_join(batch_size=4)
        pinned = OptimizationDecision.pinned(config, udf_order=("B", "A"))
        assert pinned.udf_order == ("B", "A") and pinned.strategy_config is config
        assert pinned.table_order == () and not pinned.udf_strategies and not pinned.access_paths
        assert pinned.batch_size == 4

    def test_decision_describe_mentions_strategies(self, stock, figure11_bound):
        decision = Optimizer(stock.network).optimize(figure11_bound, include_baselines=True)
        text = decision.describe()
        assert "UDF ClientRating" in text
        assert "baselines" in text

    def test_asymmetric_network_changes_costs(self, stock, figure11_bound):
        symmetric = Optimizer(NetworkConfig.paper_symmetric()).optimize(figure11_bound)
        asymmetric = Optimizer(NetworkConfig.paper_asymmetric(asymmetry=100.0)).optimize(figure11_bound)
        assert symmetric.estimated_cost != asymmetric.estimated_cost


class TestHeuristics:
    def test_heuristic_placements_differ_in_cost(self, stock, figure11_bound):
        estimator = CostEstimator(stock.network, figure11_bound)
        tables, udfs = operations_for_query(figure11_bound)
        first = heuristic_plan(estimator, tables, udfs, HEURISTIC_UDFS_FIRST,
                               strategy=ExecutionStrategy.SEMI_JOIN)
        last = heuristic_plan(estimator, tables, udfs, HEURISTIC_UDFS_LAST,
                              strategy=ExecutionStrategy.SEMI_JOIN)
        assert first.cost > 0 and last.cost > 0
        assert first.udf_order and last.udf_order

    def test_unknown_placement_rejected(self, stock, figure11_bound):
        estimator = CostEstimator(stock.network, figure11_bound)
        tables, udfs = operations_for_query(figure11_bound)
        with pytest.raises(Exception):
            heuristic_plan(estimator, tables, udfs, "udfs-sometimes")


class TestSemiJoinColumnLocation:
    def test_shared_argument_columns_make_second_udf_cheaper(self, stock, figure13_bound):
        """Figure 16: a UDF whose arguments are already at the client is cheaper."""
        estimator = CostEstimator(stock.network, figure13_bound)
        tables, udfs = operations_for_query(figure13_bound)
        quotes_table = next(op for op in tables if op.alias == "S")
        volatility = next(op for op in udfs if op.name == "Volatility")
        rating = next(op for op in udfs if op.name == "ClientRating")

        base = estimator.scan(quotes_table)
        # Apply Volatility first: its semi-join leaves S.Quotes (and
        # S.FuturePrices) resident at the client ...
        after_volatility = next(
            plan
            for plan in estimator.udf_variants(base, volatility)
            if plan.udf_strategies["Volatility"] is ExecutionStrategy.SEMI_JOIN
        )
        assert "S.Quotes" in after_volatility.properties.client_columns

        # ... so a following ClientRating semi-join ships nothing down and is
        # cheaper than the same step applied to a plan without resident columns.
        resident = next(
            plan
            for plan in estimator.udf_variants(after_volatility, rating)
            if plan.udf_strategies["ClientRating"] is ExecutionStrategy.SEMI_JOIN
        )
        resident_step = resident.steps[-1]
        assert "resident" in resident_step.detail

        fresh = next(
            plan
            for plan in estimator.udf_variants(base, rating)
            if plan.udf_strategies["ClientRating"] is ExecutionStrategy.SEMI_JOIN
        )
        fresh_step = fresh.steps[-1]
        assert resident_step.cost < fresh_step.cost

    def test_plan_space_is_ordered_by_cost(self, stock, figure13_bound):
        plans = Optimizer(stock.network).plan_space(figure13_bound)
        costs = [plan.cost for plan in plans]
        assert costs == sorted(costs)
        assert len(plans) >= 2
