"""Tests for mid-query strategy switching (controller, executor, engine).

Strategy switching is re-optimization with the UDF order held: a one-stage
segmented operator driven by the one :class:`~repro.adaptive.ReOptimizer`,
whose only candidates are its UDF's strategies.
"""

import math
from dataclasses import replace

import pytest

from repro.adaptive import (
    SWITCHING_POLICY,
    PlanShape,
    PredicateSpec,
    ReOptimizer,
    SegmentObservation,
)
from repro.core.execution import PlanMigrationOperator
from repro.core.optimizer.cost import RemainingStage, remaining_plan_cost
from repro.core.strategies import ExecutionStrategy, StrategyConfig
from repro.network.topology import NetworkConfig
from repro.relational.types import FLOAT, INTEGER
from repro.server.engine import Database
from repro.server.metrics import ExecutionMetrics
from repro.workloads.experiments import run_workload_point
from repro.workloads.misestimation import (
    MisestimatedSelectivityScenario,
    MisorderedUdfScenario,
    overestimated_selectivity_scenario,
    underestimated_selectivity_scenario,
)
from repro.workloads.synthetic import SyntheticWorkload


#: The asymmetric N=100 setting the misestimation scenarios use: observed
#: effective bandwidths there match the configured ones, so switcher unit
#: tests can hand-build observations from the same numbers.
NETWORK = NetworkConfig.paper_asymmetric(asymmetry=100.0)


#: The one UDF (and its one predicate) the hand-fed switchers below adapt.
UDF = "analyze"
PREDICATE = "Analyze_result < 1"


def switching(**changes):
    """The switching policy with ``changes`` applied."""
    return replace(SWITCHING_POLICY, **changes)


def make_switcher(policy=None, initial_strategy=ExecutionStrategy.SEMI_JOIN, declared_selectivity=1.0):
    """A switch-armed controller bound the way a one-stage segmented operator binds it."""
    switcher = ReOptimizer(policy if policy is not None else SWITCHING_POLICY, plan_wide=False)
    switcher.bind(
        PlanShape.of([UDF], {UDF: initial_strategy}),
        [PredicateSpec(PREDICATE, frozenset({UDF}), declared_selectivity)],
    )
    return switcher


def one_stage_operator(scenario, config):
    """The scenario's UDF over its table, as ``build_operator`` builds it
    under ``config``, on a fresh context."""
    from repro.client.runtime import ClientRuntime
    from repro.core.execution.context import RemoteExecutionContext
    from repro.core.execution.rewrite import build_operator
    from repro.relational.expressions import ColumnRef, Comparison, Literal
    from repro.relational.operators.scan import TableScan
    from repro.relational.types import DataObject

    workload = scenario.workload()
    registry = workload.build_registry()
    context = RemoteExecutionContext.create(
        scenario.network, client=ClientRuntime(registry=registry)
    )
    predicate = Comparison(
        "<",
        ColumnRef(workload.result_column_name),
        Literal(DataObject(workload.result_bytes, seed=workload.selectivity_threshold_seed)),
    )
    operator = build_operator(
        child=TableScan(workload.build_table()),
        udf=registry.get(workload.udf_name),
        argument_columns=[f"{workload.relation_name}.Argument"],
        context=context,
        config=config,
        pushable_predicate=predicate,
        output_columns=[f"{workload.relation_name}.NonArgument", workload.result_column_name],
    )
    return operator, context


class Feed:
    """Hand-built boundary observations for one switcher on the N=100 network.

    Observations carry *cumulative* predicate counts (the segmented operator
    accumulates them), so the feed adds each call's segment onto its totals.
    """

    def __init__(self, switcher):
        self.switcher = switcher
        self.processed = 0
        self.surviving = 0

    def __call__(
        self,
        processed=24,
        surviving=None,
        remaining=376,
        selectivity=0.1,
        record_bytes=1000.0,
        argument_bytes=500.0,
        result_bytes=1000.0,
        returned_row_bytes=1500.0,
    ):
        """Fold one more segment in; returns the next segment's strategy."""
        if surviving is None:
            surviving = int(round(processed * selectivity))
        self.processed += processed
        self.surviving += surviving
        self.switcher.consider(
            SegmentObservation(
                rows_processed=self.processed,
                remaining_rows=remaining,
                remaining_record_bytes=record_bytes,
                predicate_counts={PREDICATE: (self.surviving, self.processed)},
                stage_argument_bytes={UDF: argument_bytes},
                stage_result_bytes={UDF: result_bytes},
                stage_distinct_fraction={UDF: 1.0},
                stage_seconds_per_call={UDF: 0.001},
                downlink_bandwidth=NETWORK.downlink_bandwidth,
                uplink_bandwidth=NETWORK.uplink_bandwidth,
                latency=NETWORK.latency,
                batch_size=8.0,
                returned_row_bytes=returned_row_bytes,
            )
        )
        return self.switcher.current_shape.strategy_of(UDF)


# ---------------------------------------------------------------------------
# Remaining-rows re-costing: a one-stage remaining_plan_cost prices one UDF
# ---------------------------------------------------------------------------


class TestRemainingStrategyCost:
    def cost(self, strategy, rows, batch_size=8.0, **overrides):
        values = dict(
            argument_bytes=500.0,
            result_bytes=1000.0,
            returned_row_bytes=1500.0,
            selectivity=0.5,
            udf_seconds_per_call=0.001,
        )
        values.update(overrides)
        return remaining_plan_cost(
            [RemainingStage(strategy, **values)],
            rows,
            record_bytes=1000.0,
            downlink_bandwidth=NETWORK.downlink_bandwidth,
            uplink_bandwidth=NETWORK.uplink_bandwidth,
            latency=NETWORK.latency,
            batch_size=batch_size,
        )

    def test_zero_rows_cost_nothing(self):
        for strategy in ExecutionStrategy:
            assert self.cost(strategy, 0) == 0.0

    def test_csj_cost_monotone_in_selectivity(self):
        costs = [
            self.cost(ExecutionStrategy.CLIENT_SITE_JOIN, 400, selectivity=s)
            for s in (0.1, 0.5, 0.9)
        ]
        assert costs[0] <= costs[1] <= costs[2]

    def test_semi_join_cost_independent_of_selectivity(self):
        low = self.cost(ExecutionStrategy.SEMI_JOIN, 400, selectivity=0.1)
        high = self.cost(ExecutionStrategy.SEMI_JOIN, 400, selectivity=0.9)
        assert low == high

    def test_naive_never_beats_semi_join(self):
        """Same bytes, but serialized and with per-trip latency."""
        for rows in (10, 100, 1000):
            naive = self.cost(ExecutionStrategy.NAIVE, rows)
            semi = self.cost(ExecutionStrategy.SEMI_JOIN, rows)
            assert naive >= semi

    def test_batching_amortises_per_message_overhead(self):
        small = self.cost(ExecutionStrategy.SEMI_JOIN, 400, batch_size=1.0)
        large = self.cost(ExecutionStrategy.SEMI_JOIN, 400, batch_size=64.0)
        assert large < small

    def test_duplicates_shrink_shipped_work(self):
        dense = self.cost(ExecutionStrategy.SEMI_JOIN, 400, distinct_fraction=1.0)
        sparse = self.cost(ExecutionStrategy.SEMI_JOIN, 400, distinct_fraction=0.25)
        assert sparse < dense

    def test_projection_aware_return_width_prices_the_client_site_join(self):
        """The returned bytes are the client-site join's uplink payload;
        ``None`` prices the whole extended record (record + result)."""
        projected = self.cost(ExecutionStrategy.CLIENT_SITE_JOIN, 400, returned_row_bytes=100.0)
        whole = self.cost(ExecutionStrategy.CLIENT_SITE_JOIN, 400, returned_row_bytes=None)
        assert projected < whole == self.cost(
            ExecutionStrategy.CLIENT_SITE_JOIN, 400, returned_row_bytes=2000.0
        )
        for strategy in (ExecutionStrategy.NAIVE, ExecutionStrategy.SEMI_JOIN):
            assert self.cost(strategy, 400, returned_row_bytes=100.0) == self.cost(
                strategy, 400, returned_row_bytes=None
            )

    def test_selectivity_flips_the_winner_on_asymmetric_network(self):
        """The paper's crossover: low S favours CSJ, high S the semi-join."""

        def winner(selectivity):
            return min(
                (ExecutionStrategy.SEMI_JOIN, ExecutionStrategy.CLIENT_SITE_JOIN),
                key=lambda strategy: self.cost(strategy, 400, selectivity=selectivity),
            )

        assert winner(0.1) is ExecutionStrategy.CLIENT_SITE_JOIN
        assert winner(0.9) is ExecutionStrategy.SEMI_JOIN


# ---------------------------------------------------------------------------
# The switching policy and the switch-armed controller, hand-fed
# ---------------------------------------------------------------------------


class TestSwitchPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            switching(initial_segment_rows=0)
        with pytest.raises(ValueError):
            switching(segment_growth=0.5)
        with pytest.raises(ValueError):
            switching(evidence_floor=-1)
        with pytest.raises(ValueError):
            switching(initial_segment_rows=32, max_segment_rows=16)
        with pytest.raises(ValueError):
            switching(hysteresis=-0.1)
        with pytest.raises(ValueError):
            switching(change_budget=-1)
        with pytest.raises(ValueError):
            switching(confirmation_boundaries=-1)
        with pytest.raises(ValueError):
            switching(candidate_strategies=())

    def test_policy_is_hashable_config(self):
        assert hash(switching()) == hash(switching())
        assert StrategyConfig(switch_policy=switching()) == StrategyConfig(
            switch_policy=switching()
        )

    def test_segment_rows_grow_geometrically_and_cap(self):
        policy = switching(initial_segment_rows=8, segment_growth=2.0, max_segment_rows=64)
        sizes = [policy.next_segment_rows(i) for i in range(6)]
        assert sizes == [8, 16, 32, 64, 64, 64]

    def test_segment_rows_stay_constant_without_growth(self):
        policy = switching(initial_segment_rows=8, segment_growth=1.0)
        assert [policy.next_segment_rows(i) for i in range(4)] == [8, 8, 8, 8]


class TestStrategySwitcher:
    def test_switches_when_observed_selectivity_contradicts_declared(self):
        """Declared 0.9 commits the semi-join; observed 0.1 demands the CSJ."""
        switcher = make_switcher(
            switching(evidence_floor=16),
            initial_strategy=ExecutionStrategy.SEMI_JOIN,
            declared_selectivity=0.9,
        )
        result = Feed(switcher)(selectivity=0.1)
        assert result is ExecutionStrategy.CLIENT_SITE_JOIN
        assert switcher.change_count == 1
        decision = switcher.decisions[-1]
        assert decision.changed
        assert decision.observed_selectivities[PREDICATE] == pytest.approx(0.125, abs=0.05)

    def test_no_switch_when_declaration_was_right(self):
        switcher = make_switcher(
            switching(evidence_floor=16),
            initial_strategy=ExecutionStrategy.CLIENT_SITE_JOIN,
            declared_selectivity=0.1,
        )
        feed = Feed(switcher)
        for _ in range(6):
            result = feed(selectivity=0.1)
        assert result is ExecutionStrategy.CLIENT_SITE_JOIN
        assert switcher.change_count == 0
        assert switcher.strategies_used == (ExecutionStrategy.CLIENT_SITE_JOIN,)

    def test_evidence_floor_blocks_early_switch(self):
        switcher = make_switcher(
            switching(evidence_floor=64),
            initial_strategy=ExecutionStrategy.SEMI_JOIN,
            declared_selectivity=0.9,
        )
        feed = Feed(switcher)
        feed(processed=24, selectivity=0.1)
        assert switcher.change_count == 0
        assert "evidence floor" in switcher.decisions[-1].reason
        # Once enough rows accumulate, the same signal does switch.
        feed(processed=48, selectivity=0.1)
        assert switcher.change_count == 1

    def test_hysteresis_prevents_ping_pong_under_noisy_observations(self):
        """Observed selectivity oscillating around the crossover must not
        oscillate the strategy: the margin, the cooldown, and the switch
        budget together keep the executor from thrashing."""
        switcher = make_switcher(
            switching(evidence_floor=16, hysteresis=0.25, cooldown_segments=1),
            initial_strategy=ExecutionStrategy.SEMI_JOIN,
            declared_selectivity=0.9,
        )
        # The N=100 crossover for these byte shapes sits near S ~ 0.65
        # (semi-join ships 1000 B/row up, CSJ ships S * 1500 B/row up):
        # alternate observations just above and below it.
        feed = Feed(switcher)
        strategies = [switcher.current_shape.strategy_of(UDF)]
        for index in range(12):
            noisy = 0.55 if index % 2 == 0 else 0.75
            strategies.append(feed(selectivity=noisy))
        transitions = sum(
            1 for before, after in zip(strategies, strategies[1:]) if before is not after
        )
        # Near-crossover noise never clears the 25% margin: no switch at all.
        assert transitions == 0

    def test_switch_budget_bounds_total_switches(self):
        switcher = make_switcher(
            switching(
                evidence_floor=1,
                hysteresis=0.0,
                cooldown_segments=0,
                change_budget=2,
            ),
            initial_strategy=ExecutionStrategy.SEMI_JOIN,
            declared_selectivity=0.9,
        )
        # A violently alternating cost landscape (the CSJ return payload
        # flips between tiny and huge) with zero margin required: only the
        # budget keeps the executor from thrashing.
        feed = Feed(switcher)
        for index in range(20):
            feed(selectivity=0.5, returned_row_bytes=100.0 if index % 2 else 100_000.0)
        assert switcher.change_count == 2
        assert any("budget" in decision.reason for decision in switcher.decisions)

    def test_cooldown_spaces_out_switches(self):
        switcher = make_switcher(
            switching(
                evidence_floor=1,
                hysteresis=0.0,
                cooldown_segments=3,
                change_budget=10,
            ),
            initial_strategy=ExecutionStrategy.SEMI_JOIN,
            declared_selectivity=0.9,
        )
        feed = Feed(switcher)
        feed(selectivity=0.02)
        assert switcher.change_count == 1
        for _ in range(3):
            feed(selectivity=0.98)
            assert switcher.change_count == 1  # still cooling down
        feed(selectivity=0.98)
        assert switcher.change_count == 2

    def test_describe_mentions_the_switch(self):
        switcher = make_switcher(
            switching(evidence_floor=16),
            initial_strategy=ExecutionStrategy.SEMI_JOIN,
            declared_selectivity=0.9,
        )
        Feed(switcher)(selectivity=0.1)
        text = switcher.describe()
        assert "[CHANGE] analyze[semi_join]" in text
        assert "analyze[semi_join] => analyze[client_site_join]" in text

    def test_an_empty_tail_or_a_free_incumbent_keeps_the_shape(self):
        """Hand-fed edge boundaries: no rows left, or an incumbent priced at
        zero (unbounded links, no latency, free calls) to compare against."""
        switcher = make_switcher(
            switching(evidence_floor=0), initial_strategy=ExecutionStrategy.NAIVE
        )

        def observation(remaining, bandwidth):
            return SegmentObservation(
                rows_processed=24,
                remaining_rows=remaining,
                remaining_record_bytes=100.0,
                predicate_counts={PREDICATE: (2, 24)},
                stage_argument_bytes={UDF: 8.0},
                stage_result_bytes={UDF: 8.0},
                stage_distinct_fraction={UDF: 1.0},
                stage_seconds_per_call={UDF: 0.0},
                downlink_bandwidth=bandwidth,
                uplink_bandwidth=bandwidth,
            )

        assert switcher.consider(observation(0, 1e6)).reason == "no rows remaining"
        free = switcher.consider(observation(100, math.inf))
        assert free.reason == "incumbent not re-costable"
        assert switcher.change_count == 0


# ---------------------------------------------------------------------------
# The adaptive executor, end to end
# ---------------------------------------------------------------------------


class TestAdaptiveStrategyOperator:
    """The one-stage, switcher-driven case of the segmented operator."""

    def run_switched(self, scenario: MisestimatedSelectivityScenario, **config_kwargs):
        config = StrategyConfig(
            strategy=scenario.committed_strategy, batch_size=8, **config_kwargs
        ).with_switch_policy(scenario.switch_policy())
        return run_workload_point(scenario.workload(), scenario.network, config)

    @pytest.mark.parametrize(
        "make_scenario",
        [overestimated_selectivity_scenario, underestimated_selectivity_scenario],
        ids=["overestimated", "underestimated"],
    )
    def test_switch_fires_and_results_match_static(self, make_scenario):
        scenario = make_scenario(row_count=200)
        static = run_workload_point(
            scenario.workload(),
            scenario.network,
            StrategyConfig(strategy=scenario.committed_strategy, batch_size=8),
        )
        switched = self.run_switched(scenario)
        assert switched.strategy_switches >= 1
        assert switched.strategies_used[0] is scenario.committed_strategy
        assert switched.strategies_used[-1] is scenario.oracle_strategy
        assert switched.result_rows == static.result_rows
        assert switched.elapsed_seconds < static.elapsed_seconds

    def test_no_switch_when_estimate_was_right(self):
        scenario = overestimated_selectivity_scenario(row_count=200)
        workload = scenario.workload()
        workload.declared_selectivity = workload.selectivity  # truth-telling UDF
        static = run_workload_point(
            workload,
            scenario.network,
            StrategyConfig(strategy=scenario.oracle_strategy, batch_size=8),
        )
        switched = run_workload_point(
            workload,
            scenario.network,
            StrategyConfig(
                strategy=scenario.oracle_strategy, batch_size=8
            ).with_switch_policy(scenario.switch_policy()),
        )
        assert switched.strategy_switches == 0
        assert switched.strategies_used == (scenario.oracle_strategy,)
        assert switched.result_rows == static.result_rows

    def test_client_cache_carries_over_across_segments_and_switch(self):
        """Duplicate arguments invoke the UDF once, even across a switch."""
        scenario = overestimated_selectivity_scenario(
            row_count=200, distinct_fraction=0.5
        )
        switched = self.run_switched(scenario)
        assert switched.strategy_switches >= 1
        # 200 rows, 100 distinct arguments: the client result cache answers
        # every repeat, whichever strategy (or segment) ships it.
        assert switched.udf_invocations == 100

    def test_segments_cover_input_exactly_once(self):
        scenario = overestimated_selectivity_scenario(row_count=200)
        workload = scenario.workload()
        operator, _ = one_stage_operator(
            scenario,
            StrategyConfig(
                strategy=scenario.committed_strategy, batch_size=8
            ).with_switch_policy(scenario.switch_policy()),
        )
        assert isinstance(operator, PlanMigrationOperator)
        assert isinstance(operator.controller, ReOptimizer)
        assert not operator.controller.plan_wide  # armed by switch_policy
        rows = operator.run()
        assert sum(count for _, count in operator.segments) == workload.row_count
        assert operator.input_row_count == workload.row_count
        assert operator.output_row_count == len(rows)
        (view,) = operator.stage_views
        assert view.distinct_argument_count == workload.row_count
        # Every segment after the switch ran the oracle strategy.
        strategies = [shape.strategy_of(workload.udf_name) for shape, _ in operator.segments]
        switched_at = strategies.index(scenario.oracle_strategy)
        assert all(
            strategy is scenario.oracle_strategy for strategy in strategies[switched_at:]
        )

    def test_every_initial_strategy_converges_to_same_rows(self, asymmetric_network):
        workload = SyntheticWorkload(
            row_count=60, input_record_bytes=200, result_bytes=100, interleaved=True
        )
        policy = switching(initial_segment_rows=8, evidence_floor=8)
        outcomes = []
        for strategy in ExecutionStrategy:
            point = run_workload_point(
                SyntheticWorkload(
                    row_count=60, input_record_bytes=200, result_bytes=100, interleaved=True
                ),
                asymmetric_network,
                StrategyConfig(strategy=strategy, batch_size=4).with_switch_policy(policy),
            )
            outcomes.append(point.result_rows)
        assert outcomes[0] == outcomes[1] == outcomes[2]


class TestMisestimationScenarios:
    def test_a_scenario_describes_the_choice_its_misestimate_flips(self):
        scenario = overestimated_selectivity_scenario()
        assert scenario.plan_is_wrong
        assert scenario.describe() == (
            "declared S=0.9 -> commits semi_join; actual S=0.1 -> oracle "
            "client_site_join (9x misestimate, paper-asymmetric-N100)"
        )
        assert MisorderedUdfScenario().describe() == (
            "ProbeA declared S=0.05 actual 0.95, ProbeB declared S=0.95 actual "
            "0.05: committed order ['probea', 'probeb'], oracle ['probeb', "
            "'probea'] (paper-symmetric)"
        )


class TestSwitchingIsReoptimizationWithTheOrderHeld:
    """A one-UDF query armed by ``switch_policy=P`` and one whose config
    carries a re-optimizer under ``P`` run the same controller over the same
    one-stage operator: only the metric the changes count toward differs."""

    def run(self, config):
        scenario = overestimated_selectivity_scenario(row_count=200)
        operator, context = one_stage_operator(
            scenario, config.with_strategy(scenario.committed_strategy)
        )
        return operator, context, operator.run()

    def test_a_switch_policy_and_a_reoptimizer_under_it_decide_alike(self):
        policy = overestimated_selectivity_scenario(row_count=200).switch_policy()
        config = StrategyConfig(batch_size=8)
        switched, switched_context, switched_rows = self.run(config.with_switch_policy(policy))
        replanned, replanned_context, replanned_rows = self.run(
            config.with_reoptimizer(ReOptimizer(policy))
        )

        assert switched.segments == replanned.segments
        assert len({shape for shape, _ in switched.segments}) == 2  # a switch ran
        verdicts = [
            [(d.shape, d.next_shape, d.costs, d.reason) for d in operator.controller.decisions]
            for operator in (switched, replanned)
        ]
        assert verdicts[0] == verdicts[1]
        assert switched_context.elapsed_seconds == replanned_context.elapsed_seconds
        assert switched_rows == replanned_rows

        # Which config field armed the controller books the changes.
        switch_metrics, replan_metrics = (
            ExecutionMetrics(adaptations=tuple(context.adaptations))
            for context in (switched_context, replanned_context)
        )
        assert switch_metrics.strategy_switches == replan_metrics.plan_migrations == 1
        assert switch_metrics.plan_migrations == replan_metrics.strategy_switches == 0
        assert switch_metrics.replan_attempts == 0
        assert replan_metrics.replan_attempts == len(replanned.controller.decisions)


# ---------------------------------------------------------------------------
# Engine wiring
# ---------------------------------------------------------------------------


class TestEngineSwitching:
    def make_db(self):
        db = Database(network=NetworkConfig.paper_asymmetric(asymmetry=100.0))
        db.create_table(
            "T", [("K", INTEGER), ("V", FLOAT)], rows=[[i, float(i)] for i in range(120)]
        )
        # Declared selectivity 0.9, actual 0.25 (V * 2 >= 180 passes for V >= 90).
        db.register_client_udf("Score", lambda v: v * 2.0, selectivity=0.9)
        return db

    SQL = "SELECT T.K FROM T WHERE Score(T.V) >= 180"

    def test_switch_strategies_keyword_arms_switching(self):
        db = self.make_db()
        static = db.execute(self.SQL, config=StrategyConfig.semi_join())
        switched = db.execute(
            self.SQL,
            config=StrategyConfig.semi_join(),
            switch_strategies=True,
            switch_policy=switching(initial_segment_rows=16, evidence_floor=16),
        )
        assert switched.row_set() == static.row_set()
        assert switched.metrics.strategies_used is not None
        assert switched.metrics.strategies_used[0] is ExecutionStrategy.SEMI_JOIN

    def test_switch_metrics_surface_in_summary(self):
        db = self.make_db()
        result = db.execute(
            self.SQL,
            config=StrategyConfig.semi_join(),
            switch_policy=switching(initial_segment_rows=16, evidence_floor=16),
        )
        if result.metrics.strategy_switches:
            assert "mid-query switch" in result.metrics.summary()
            assert "->" in result.metrics.summary()

    def test_switching_composes_with_adaptive_batching(self):
        db = self.make_db()
        static = db.execute(self.SQL, config=StrategyConfig.semi_join())
        both = db.execute(
            self.SQL,
            config=StrategyConfig.semi_join(),
            adaptive=True,
            switch_strategies=True,
        )
        assert both.row_set() == static.row_set()
        assert both.metrics.converged_batch_size is not None

    def test_observation_sees_switched_operator_selectivity(self):
        db = self.make_db()
        result = db.execute(
            self.SQL,
            config=StrategyConfig.semi_join(),
            switch_policy=switching(initial_segment_rows=16, evidence_floor=16),
        )
        observation = result.observation
        assert observation is not None
        udf = observation.udfs["Score"]
        # The adaptive operator owns the pushable predicate, so its
        # output/input ratio is an observed selectivity whatever strategies ran.
        assert udf.filtered
        assert udf.observed_selectivity == pytest.approx(0.25, abs=0.02)
