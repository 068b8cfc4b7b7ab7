"""Tests for mid-query re-optimization and the correctness gaps it exposed.

Covers the re-optimizer (candidate shapes, hysteresis, re-plan budget),
the plan-migration executor, and the two ROADMAP bugs fixed alongside:
application-order-dependent (UDF, predicate) selectivity keys, and semi-join
duplicate-elimination state dropped at segment boundaries.
"""

import re

import pytest

from dataclasses import replace

from repro.adaptive import (
    SWITCHING_POLICY,
    AdaptationPolicy,
    SegmentObservation,
    PlanShape,
    PredicateSpec,
    ReOptimizer,
    StatisticsStore,
    canonical_predicate_key,
)
from repro.adaptive.observer import QueryObservation, UdfObservation
from repro.client.runtime import ClientRuntime
from repro.core.execution import PlanMigrationOperator
from repro.core.execution.context import RemoteExecutionContext
from repro.core.execution.rewrite import build_operator
from repro.core.optimizer.cost import RemainingStage, remaining_plan_cost
from repro.core.strategies import ExecutionStrategy, StrategyConfig
from repro.network.topology import NetworkConfig
from repro.relational.expressions import BooleanOp, ColumnRef, Comparison, Literal, conjoin
from repro.relational.operators.scan import TableScan
from repro.relational.types import INTEGER, DataObject
from repro.server.engine import Database
from repro.workloads.misestimation import (
    MisorderedUdfScenario,
    overestimated_selectivity_scenario,
)


NETWORK = NetworkConfig.paper_asymmetric(asymmetry=100.0)


# ---------------------------------------------------------------------------
# Canonical predicate identity keys (the observation-key divergence bugfix)
# ---------------------------------------------------------------------------


def _compare(column, operator, value):
    return Comparison(operator, ColumnRef(column), Literal(value))


class TestCanonicalPredicateKeys:
    """Identity is worked out on the expression tree: independent of the
    order, the nesting and the parenthesisation the predicate was written
    with.  A plain string is a key already."""

    A = _compare("A_result", ">=", 1)
    B = _compare("B_result", "<=", 2)
    C = _compare("C", "=", 3)

    def test_single_predicate_is_its_own_key(self):
        assert canonical_predicate_key(_compare("Score_result", ">=", 100)) == "Score_result >= 100"
        assert canonical_predicate_key("Score_result >= 100") == "Score_result >= 100"
        assert canonical_predicate_key(None) == ""
        assert canonical_predicate_key("") == ""

    def test_conjunct_order_does_not_matter(self):
        left = canonical_predicate_key(BooleanOp("AND", [self.A, self.B]))
        right = canonical_predicate_key(BooleanOp("AND", [self.B, self.A]))
        assert left == right

    def test_conjunction_key_is_the_sorted_conjoin_rendering(self):
        """The format a ``statistics.json`` holds: ``conjoin``'s own text with
        the conjuncts sorted, whichever order they were conjoined in."""
        assert conjoin([self.B, self.A]).canonical_key == "(A_result >= 1 AND B_result <= 2)"
        assert str(conjoin([self.A, self.B])) == "(A_result >= 1 AND B_result <= 2)"

    def test_nested_conjunction_flattens(self):
        nested = BooleanOp("AND", [BooleanOp("AND", [self.B, self.A]), self.C])
        flat = BooleanOp("AND", [self.C, self.B, self.A])
        assert nested.canonical_key == flat.canonical_key
        assert flat.canonical_key == "(A_result >= 1 AND B_result <= 2 AND C = 3)"

    def test_parentheses_in_the_sql_text_do_not_matter(self):
        """The parser drops redundant parentheses, and nesting flattens: one
        key, however the WHERE clause groups its conjuncts."""
        db = Database(network=NETWORK)
        db.create_table("T", [("A", INTEGER), ("B", INTEGER), ("C", INTEGER)], rows=[[1, 2, 3]])
        keys = {
            conjoin([p.expression for p in db.bind(f"SELECT T.A FROM T WHERE {where}").predicates]).canonical_key
            for where in (
                "T.A >= 1 AND T.B <= 2 AND T.C = 3",
                "((T.A >= 1 AND T.B <= 2)) AND T.C = 3",
                "(T.C = 3) AND ((T.B <= 2) AND T.A >= 1)",
            )
        }
        assert keys == {"(T.A >= 1 AND T.B <= 2 AND T.C = 3)"}

    def test_a_single_conjunct_keeps_its_spelling(self):
        # No top-level AND: the key is the conjunct's own text, so every
        # single-predicate key ever written is unchanged.
        either = BooleanOp("OR", [self.A, self.B])
        assert either.canonical_key == "(A_result >= 1 OR B_result <= 2)"
        assert BooleanOp("NOT", [BooleanOp("AND", [self.A, self.B])]).canonical_key == (
            "NOT ((A_result >= 1 AND B_result <= 2))"
        )
        # A string is looked up as given — no re-parsing, no normalisation.
        assert canonical_predicate_key("(Score_result >= 100)") == "(Score_result >= 100)"
        assert canonical_predicate_key("(A) AND (B)") == "(A) AND (B)"

    def test_a_literal_holding_the_word_and_is_one_token(self):
        """The text re-parser split ``'a AND b'`` in two and scrambled it with
        its neighbours; the tree cannot."""
        tagged = _compare("Tag_result", "=", "a AND b")
        assert tagged.canonical_key == "Tag_result = 'a AND b'"
        both = BooleanOp("AND", [_compare("X_result", ">", 1), tagged])
        assert both.canonical_key == "(Tag_result = 'a AND b' AND X_result > 1)"

    def _observation_with(self, udf_name, predicate, selectivity):
        return QueryObservation(
            elapsed_seconds=1.0,
            udfs={
                udf_name: UdfObservation(
                    name=udf_name,
                    invocations=100,
                    compute_seconds=0.1,
                    input_rows=100,
                    output_rows=int(100 * selectivity),
                    distinct_arguments=100,
                    filtered=True,
                    predicate=predicate,
                )
            },
        )

    def test_reordered_plan_lookup_does_not_fall_back_to_declared(self):
        """The ROADMAP bug: a predicate spanning several UDFs is pushed at a
        different operator under a reordered plan, so the (UDF, predicate)
        observation key diverges from the key the estimator asks for.  The
        canonical predicate-identity fallback must answer anyway."""
        store = StatisticsStore()
        predicate = "(A_result >= 1 AND B_result <= 2)"
        # The reordered plan pushed the predicate at operator A...
        store.record(self._observation_with("A", predicate, selectivity=0.1))
        # ... but the estimator credits it to the lexically last UDF, B.
        looked_up = store.udf_selectivity("B", 0.9, predicate=predicate)
        assert looked_up == pytest.approx(0.1)

    def test_conjunct_permutation_still_matches(self):
        store = StatisticsStore()
        x, y = _compare("X", ">=", 1), _compare("Y", "<=", 2)
        store.record(
            self._observation_with("A", conjoin([x, y]).canonical_key, selectivity=0.2)
        )
        assert store.udf_selectivity(
            "B", 0.9, predicate=BooleanOp("AND", [y, x])
        ) == pytest.approx(0.2)

    def test_exact_udf_key_still_preferred(self):
        store = StatisticsStore()
        store.record(self._observation_with("A", "P >= 1", selectivity=0.2))
        store.record(self._observation_with("B", "P >= 1", selectivity=0.6))
        # Exact (UDF, predicate) observations win over the identity fallback.
        assert store.udf_selectivity("A", 0.9, predicate="P >= 1") == pytest.approx(0.2)
        assert store.udf_selectivity("B", 0.9, predicate="P >= 1") == pytest.approx(0.6)

    def test_different_predicates_stay_separate(self):
        store = StatisticsStore()
        store.record(self._observation_with("A", "P >= 1", selectivity=0.2))
        assert store.udf_selectivity("A", 0.9, predicate="P >= 99") == 0.9

    def test_selectivity_prior_distinguishes_unobserved(self):
        store = StatisticsStore()
        assert store.selectivity_prior("A", "P >= 1") is None
        store.record(self._observation_with("A", "P >= 1", selectivity=0.2))
        assert store.selectivity_prior("A", "P >= 1") == pytest.approx(0.2)
        # Identity fallback applies to priors too.
        assert store.selectivity_prior("B", "P >= 1") == pytest.approx(0.2)


# ---------------------------------------------------------------------------
# Semi-join duplicate-elimination state across segments
# ---------------------------------------------------------------------------


def _build_segmented_semijoin(scenario, policy, workload):
    """A one-stage switcher-driven segmented operator over the workload, plus its context."""
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
        config=StrategyConfig(
            strategy=ExecutionStrategy.SEMI_JOIN, batch_size=8
        ).with_switch_policy(policy),
        pushable_predicate=predicate,
        output_columns=[f"{workload.relation_name}.NonArgument", workload.result_column_name],
    )
    return operator, context


class TestSemiJoinSegmentState:
    def test_segmented_wire_rows_match_unswitched_run(self):
        """The ROADMAP bug: only the client result cache carried across
        segments, so a post-switch semi-join segment re-shipped argument
        values the pre-switch segment already eliminated.  With carried
        duplicate-elimination state, wire-row counts match an unswitched
        (single-operator) semi-join run exactly."""
        scenario = overestimated_selectivity_scenario(
            row_count=200, distinct_fraction=0.5
        )
        # Segment, but never switch: only semi-join is a candidate, so any
        # wire difference is pure segment-boundary duplication.
        policy = replace(
            SWITCHING_POLICY,
            initial_segment_rows=16,
            evidence_floor=16,
            candidate_strategies=(ExecutionStrategy.SEMI_JOIN,),
        )

        static_op, static_context = _build_segmented_semijoin(
            scenario, None, scenario.workload()
        )
        static_rows = static_op.run()
        segmented_op, segmented_context = _build_segmented_semijoin(
            scenario, policy, scenario.workload()
        )
        segmented_rows = segmented_op.run()

        assert sorted(map(repr, segmented_rows)) == sorted(map(repr, static_rows))
        static_stats = static_context.channel_stats
        segmented_stats = segmented_context.channel_stats
        # 200 rows, 100 distinct arguments: exactly 100 argument rows down
        # and 100 result rows up, segmented or not.
        assert segmented_stats.downlink.rows_transferred == (
            static_stats.downlink.rows_transferred
        )
        assert segmented_stats.uplink.rows_transferred == (
            static_stats.uplink.rows_transferred
        )
        assert static_stats.downlink.rows_transferred == 100

    def test_naive_segment_state_carries_into_semijoin_segments(self):
        """Cross-strategy carry: arguments a naive segment resolved must not
        be re-shipped by a later semi-join segment (the naive server cache
        and the semi-join dedup state are one shared object)."""
        scenario = overestimated_selectivity_scenario(
            row_count=200, distinct_fraction=0.5
        )
        workload = scenario.workload()
        registry = workload.build_registry()
        context = RemoteExecutionContext.create(
            scenario.network, client=ClientRuntime(registry=registry)
        )
        predicate = Comparison(
            "<",
            ColumnRef(workload.result_column_name),
            Literal(
                DataObject(workload.result_bytes, seed=workload.selectivity_threshold_seed)
            ),
        )
        # Start naive; the only challenger is the semi-join, which always
        # beats naive, so the switch fires at the first eligible boundary.
        operator = build_operator(
            child=TableScan(workload.build_table()),
            udf=registry.get(workload.udf_name),
            argument_columns=[f"{workload.relation_name}.Argument"],
            context=context,
            config=StrategyConfig(
                strategy=ExecutionStrategy.NAIVE, batch_size=8
            ).with_switch_policy(
                replace(
                    SWITCHING_POLICY,
                    initial_segment_rows=16,
                    evidence_floor=16,
                    hysteresis=0.0,
                    candidate_strategies=(
                        ExecutionStrategy.NAIVE,
                        ExecutionStrategy.SEMI_JOIN,
                    ),
                )
            ),
            pushable_predicate=predicate,
            output_columns=[
                f"{workload.relation_name}.NonArgument",
                workload.result_column_name,
            ],
        )
        operator.run()
        assert operator.controller.change_count >= 1
        # 100 distinct arguments: each shipped exactly once, whichever
        # strategy's segment first resolved it.
        assert context.channel_stats.downlink.rows_transferred == 100

    def test_post_switch_semijoin_reuses_pre_switch_results(self):
        """Across an actual strategy switch the carried state still answers:
        the client cache already prevented re-invocation; the carried server
        state prevents re-shipping."""
        scenario = overestimated_selectivity_scenario(
            row_count=200, distinct_fraction=0.5
        )
        operator, context = _build_segmented_semijoin(
            scenario, scenario.switch_policy(), scenario.workload()
        )
        operator.run()
        assert context.client.udf_invocations == 100


# ---------------------------------------------------------------------------
# Warm-started switching from statistics-store priors
# ---------------------------------------------------------------------------


class TestSwitcherWarmStart:
    def _operator(self, scenario, statistics):
        workload = scenario.workload()
        registry = workload.build_registry()
        context = RemoteExecutionContext.create(
            scenario.network, client=ClientRuntime(registry=registry)
        )
        predicate = Comparison(
            "<",
            ColumnRef(workload.result_column_name),
            Literal(
                DataObject(workload.result_bytes, seed=workload.selectivity_threshold_seed)
            ),
        )
        # A high evidence floor: a cold run needs several segments before it
        # may switch; a warm-started run may switch at the first boundary.
        policy = replace(
            SWITCHING_POLICY,
            initial_segment_rows=8, segment_growth=2.0, evidence_floor=48
        )
        config = StrategyConfig(
            strategy=scenario.committed_strategy, batch_size=8
        ).with_switch_policy(policy)
        if statistics is not None:
            config = config.with_statistics(statistics)
        operator = build_operator(
            child=TableScan(workload.build_table()),
            udf=registry.get(workload.udf_name),
            argument_columns=[f"{workload.relation_name}.Argument"],
            context=context,
            config=config,
            pushable_predicate=predicate,
            output_columns=[
                f"{workload.relation_name}.NonArgument",
                workload.result_column_name,
            ],
        )
        return operator

    def _first_switch_index(self, operator):
        operator.run()
        switched = [
            index
            for index, decision in enumerate(operator.controller.decisions)
            if decision.changed
        ]
        return switched[0] if switched else None

    def test_second_run_switches_in_an_earlier_segment(self):
        scenario = overestimated_selectivity_scenario(row_count=200)

        cold = self._operator(scenario, statistics=None)
        assert cold.controller.statistics is None
        cold_index = self._first_switch_index(cold)
        assert cold_index is not None and cold_index >= 1  # floor blocks boundary 0

        # A first run taught the store the actual selectivity under the very
        # predicate the operator pushes.
        store = StatisticsStore()
        store.record(
            QueryObservation(
                elapsed_seconds=1.0,
                udfs={
                    cold.stages[0].udf.name: UdfObservation(
                        name=cold.stages[0].udf.name,
                        invocations=200,
                        compute_seconds=0.2,
                        input_rows=200,
                        output_rows=int(200 * scenario.actual_selectivity),
                        distinct_arguments=200,
                        filtered=True,
                        predicate=str(cold.predicates[0].expression),
                    )
                },
            )
        )

        warm = self._operator(scenario, statistics=store)
        assert warm.controller.statistics is store
        prior = store.selectivity_prior(warm.stages[0].udf.name, warm.predicates[0].key)
        assert prior == pytest.approx(scenario.actual_selectivity, abs=0.01)
        warm_index = self._first_switch_index(warm)
        assert warm_index is not None
        assert warm_index < cold_index

    def test_engine_attaches_store_to_switching_runs(self):
        from repro.relational.types import FLOAT, INTEGER

        db = Database(network=NETWORK)
        db.create_table(
            "T", [("K", INTEGER), ("V", FLOAT)], rows=[[i, float(i)] for i in range(120)]
        )
        db.register_client_udf("Score", lambda v: v * 2.0, selectivity=0.9)
        sql = "SELECT T.K FROM T WHERE Score(T.V) >= 180"
        first = db.execute(
            sql,
            config=StrategyConfig.semi_join(),
            switch_policy=replace(SWITCHING_POLICY, initial_segment_rows=16, evidence_floor=16),
        )
        # The first run's observation landed in the store under the pushed
        # predicate, so a second run warm-starts from it.
        assert db.statistics.selectivity_prior("Score", "Score_result >= 180") is not None
        second = db.execute(
            sql,
            config=StrategyConfig.semi_join(),
            switch_policy=replace(SWITCHING_POLICY, initial_segment_rows=16, evidence_floor=16),
        )
        assert second.row_set() == first.row_set()


# ---------------------------------------------------------------------------
# remaining_plan_cost (the plan-shape re-costing surface)
# ---------------------------------------------------------------------------


class TestRemainingPlanCost:
    def kwargs(self):
        return dict(
            record_bytes=500.0,
            downlink_bandwidth=NETWORK.downlink_bandwidth,
            uplink_bandwidth=NETWORK.uplink_bandwidth,
            latency=NETWORK.latency,
            batch_size=8.0,
        )

    def stage(self, **overrides):
        values = dict(
            strategy=ExecutionStrategy.SEMI_JOIN,
            selectivity=1.0,
            distinct_fraction=1.0,
            udf_seconds_per_call=0.001,
            argument_bytes=8.0,
            result_bytes=8.0,
        )
        values.update(overrides)
        return RemainingStage(**values)

    def test_zero_rows_cost_nothing(self):
        assert remaining_plan_cost([self.stage()], 0, **self.kwargs()) == 0.0

    def test_selective_cheap_stage_first_is_cheaper(self):
        """The rank-ordering intuition the re-optimizer acts on: the filter
        that keeps 5% should run before the expensive one that keeps 95%."""
        selective = self.stage(selectivity=0.05, udf_seconds_per_call=0.0005)
        expensive = self.stage(selectivity=0.95, udf_seconds_per_call=0.002)
        good = remaining_plan_cost([selective, expensive], 400, **self.kwargs())
        bad = remaining_plan_cost([expensive, selective], 400, **self.kwargs())
        assert good < bad

    def test_later_stages_see_filtered_cardinality(self):
        open_stage = self.stage(selectivity=1.0)
        closed = self.stage(selectivity=0.0)
        # After a selectivity-0 stage, later stages are free.
        assert remaining_plan_cost(
            [closed, open_stage], 400, **self.kwargs()
        ) == remaining_plan_cost([closed], 400, **self.kwargs())


# ---------------------------------------------------------------------------
# ReOptimizer decision logic
# ---------------------------------------------------------------------------


def _two_stage_reoptimizer(policy=None, statistics=None):
    reoptimizer = ReOptimizer(policy=policy, statistics=statistics)
    shape = PlanShape.of(
        ["slim", "heavy"],
        {"slim": ExecutionStrategy.SEMI_JOIN, "heavy": ExecutionStrategy.SEMI_JOIN},
    )
    reoptimizer.bind(
        shape,
        [
            PredicateSpec(key="Slim_result <= 1", udf_names=frozenset({"slim"}),
                          declared_selectivity=0.05),
            PredicateSpec(key="Heavy_result <= 2", udf_names=frozenset({"heavy"}),
                          declared_selectivity=0.95),
        ],
    )
    return reoptimizer


def _observation(rows_processed=64, remaining=536, slim=(61, 64), heavy=(3, 61)):
    return SegmentObservation(
        rows_processed=rows_processed,
        remaining_rows=remaining,
        remaining_record_bytes=16.0,
        predicate_counts={"Slim_result <= 1": slim, "Heavy_result <= 2": heavy},
        stage_argument_bytes={"slim": 8.0, "heavy": 8.0},
        stage_result_bytes={"slim": 8.0, "heavy": 8.0},
        stage_distinct_fraction={"slim": 1.0, "heavy": 1.0},
        stage_seconds_per_call={"slim": 0.001, "heavy": 0.0005},
        downlink_bandwidth=NETWORK.downlink_bandwidth,
        uplink_bandwidth=NETWORK.uplink_bandwidth,
        latency=NETWORK.latency,
        batch_size=8.0,
    )


class TestReOptimizerDecisions:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AdaptationPolicy(initial_segment_rows=0)
        with pytest.raises(ValueError):
            AdaptationPolicy(segment_growth=0.5)
        with pytest.raises(ValueError):
            AdaptationPolicy(change_budget=-1)
        with pytest.raises(ValueError):
            AdaptationPolicy(hysteresis=-0.1)
        with pytest.raises(ValueError):
            AdaptationPolicy(candidate_strategies=())

    def test_migrates_when_observed_statistics_contradict_declared(self):
        """slim declared 0.05 / observed ~0.95, heavy declared 0.95 /
        observed ~0.05: the committed slim-first order must flip."""
        reoptimizer = _two_stage_reoptimizer()
        decision = reoptimizer.consider(_observation())
        assert decision.changed
        assert reoptimizer.current_shape.udf_order == ("heavy", "slim")
        assert reoptimizer.change_count == 1

    def test_no_migration_when_declarations_were_right(self):
        # Semi-join-only candidates isolate the *order* decision from the
        # (independent) per-stage strategy choice.
        reoptimizer = _two_stage_reoptimizer(
            policy=AdaptationPolicy(
                candidate_strategies=(ExecutionStrategy.SEMI_JOIN,)
            )
        )
        # Observed matches declared: slim keeps ~5%, heavy keeps ~95%.
        decision = reoptimizer.consider(
            _observation(slim=(3, 64), heavy=(3, 3))
        )
        assert not decision.changed
        assert "cheapest" in decision.reason

    def test_evidence_floor_blocks_early_migration(self):
        reoptimizer = _two_stage_reoptimizer(
            policy=AdaptationPolicy(evidence_floor=128)
        )
        decision = reoptimizer.consider(_observation(rows_processed=64))
        assert not decision.changed
        assert "evidence floor" in decision.reason

    def test_store_priors_waive_the_evidence_floor(self):
        store = StatisticsStore()
        for name, key, selectivity in (
            ("slim", "Slim_result <= 1", 0.95),
            ("heavy", "Heavy_result <= 2", 0.05),
        ):
            store.record(
                QueryObservation(
                    elapsed_seconds=1.0,
                    udfs={
                        name: UdfObservation(
                            name=name,
                            invocations=100,
                            compute_seconds=0.1,
                            input_rows=100,
                            output_rows=int(100 * selectivity),
                            distinct_arguments=100,
                            filtered=True,
                            predicate=key,
                        )
                    },
                )
            )
        reoptimizer = _two_stage_reoptimizer(
            policy=AdaptationPolicy(evidence_floor=128), statistics=store
        )
        decision = reoptimizer.consider(
            _observation(rows_processed=8, slim=(8, 8), heavy=(0, 8))
        )
        assert decision.changed  # priors pre-earned the floor

    def test_replan_budget_exhaustion(self):
        reoptimizer = _two_stage_reoptimizer(
            policy=AdaptationPolicy(change_budget=1, cooldown_segments=0)
        )
        first = reoptimizer.consider(_observation())
        assert first.changed
        # Feed the opposite signal: without a budget this would flip back.
        second = reoptimizer.consider(_observation(slim=(3, 64), heavy=(3, 3)))
        assert not second.changed
        assert "budget" in second.reason
        assert reoptimizer.change_count == 1

    def test_cooldown_spaces_out_migrations(self):
        reoptimizer = _two_stage_reoptimizer(
            policy=AdaptationPolicy(cooldown_segments=2, change_budget=5, hysteresis=0.0)
        )
        assert reoptimizer.consider(_observation()).changed
        blocked = reoptimizer.consider(_observation(slim=(3, 64), heavy=(3, 3)))
        assert not blocked.changed
        assert "cooldown" in blocked.reason

    def test_hysteresis_blocks_marginal_wins(self):
        reoptimizer = _two_stage_reoptimizer(
            policy=AdaptationPolicy(hysteresis=10.0)
        )
        decision = reoptimizer.consider(_observation())
        assert not decision.changed
        assert "hysteresis" in decision.reason

    def test_bind_resets_per_query_state(self):
        """A ReOptimizer attached to a reusable config must not carry a
        spent budget (or a settled verdict) into the next query: bind()
        starts fresh."""
        reoptimizer = _two_stage_reoptimizer(
            policy=AdaptationPolicy(change_budget=1)
        )
        assert reoptimizer.consider(_observation()).changed
        assert reoptimizer.settled

        shape = PlanShape.of(
            ["slim", "heavy"],
            {"slim": ExecutionStrategy.SEMI_JOIN, "heavy": ExecutionStrategy.SEMI_JOIN},
        )
        reoptimizer.bind(
            shape,
            [
                PredicateSpec(key="Slim_result <= 1", udf_names=frozenset({"slim"}),
                              declared_selectivity=0.05),
                PredicateSpec(key="Heavy_result <= 2", udf_names=frozenset({"heavy"}),
                              declared_selectivity=0.95),
            ],
        )
        assert not reoptimizer.settled
        assert reoptimizer.change_count == 0
        assert reoptimizer.decisions == []
        assert reoptimizer.consider(_observation()).changed

    def test_observed_selectivities_flip_the_misordered_chain(self):
        scenario = MisorderedUdfScenario()
        reoptimizer = ReOptimizer()
        shape = PlanShape.of(
            ["probea", "probeb"],
            {
                "probea": ExecutionStrategy.SEMI_JOIN,
                "probeb": ExecutionStrategy.SEMI_JOIN,
            },
        )
        threshold_a = scenario.actual_selectivity_a * scenario.row_count - 1
        threshold_b = scenario.actual_selectivity_b * scenario.row_count - 1
        key_a = f"ProbeA_result <= {threshold_a:g}"
        key_b = f"ProbeB_result <= {threshold_b:g}"
        reoptimizer.bind(
            shape,
            [
                PredicateSpec(key=key_a, udf_names=frozenset({"probea"}),
                              declared_selectivity=scenario.declared_selectivity_a),
                PredicateSpec(key=key_b, udf_names=frozenset({"probeb"}),
                              declared_selectivity=scenario.declared_selectivity_b),
            ],
        )
        observation = SegmentObservation(
            rows_processed=72,
            remaining_rows=scenario.row_count - 72,
            remaining_record_bytes=16.0,
            predicate_counts={key_a: (68, 72), key_b: (4, 68)},
            stage_argument_bytes={"probea": 8.0, "probeb": 8.0},
            stage_result_bytes={"probea": 8.0, "probeb": 8.0},
            stage_distinct_fraction={"probea": 1.0, "probeb": 1.0},
            stage_seconds_per_call={
                "probea": scenario.cost_a_seconds,
                "probeb": scenario.cost_b_seconds,
            },
            downlink_bandwidth=scenario.network.downlink_bandwidth,
            uplink_bandwidth=scenario.network.uplink_bandwidth,
            latency=scenario.network.latency,
            batch_size=8.0,
        )
        decision = reoptimizer.consider(observation)
        assert decision.changed
        assert reoptimizer.current_shape.udf_order == ("probeb", "probea")


# ---------------------------------------------------------------------------
# End to end: Database.execute(..., reoptimize=True)
# ---------------------------------------------------------------------------


class TestEngineReoptimization:
    def test_migrates_udf_order_and_beats_committed_shape(self):
        scenario = MisorderedUdfScenario()

        committed = scenario.build_database().execute(scenario.sql, optimize=True)
        reopt = scenario.build_database().execute(
            scenario.sql, reoptimize=True, replan_policy=scenario.replan_policy()
        )

        assert reopt.metrics.plan_migrations >= 1
        assert reopt.metrics.replan_attempts >= 1
        assert reopt.metrics.udf_orders_used is not None
        assert reopt.metrics.udf_orders_used[0] == scenario.committed_udf_order
        assert reopt.metrics.udf_orders_used[-1] == scenario.oracle_udf_order
        assert reopt.row_set() == committed.row_set()
        assert reopt.metrics.elapsed_seconds < committed.metrics.elapsed_seconds
        assert "plan migration" in reopt.metrics.summary()

    def test_no_replan_when_the_plan_was_right(self):
        scenario = MisorderedUdfScenario(
            declared_selectivity_a=0.95,
            declared_selectivity_b=0.05,
        )  # truthful declarations: committed order is already the oracle's
        db = scenario.build_database()
        result = db.execute(
            scenario.sql, reoptimize=True, replan_policy=scenario.replan_policy()
        )
        assert result.metrics.plan_migrations == 0
        assert result.metrics.udf_orders_used == (scenario.oracle_udf_order,)

    def test_replan_budget_zero_behaves_like_committed(self):
        scenario = MisorderedUdfScenario()
        from repro.adaptive import AdaptationPolicy

        committed = scenario.build_database().execute(scenario.sql, optimize=True)
        pinned = scenario.build_database().execute(
            scenario.sql,
            reoptimize=True,
            replan_policy=AdaptationPolicy(change_budget=0),
        )
        assert pinned.metrics.plan_migrations == 0
        assert pinned.metrics.replan_attempts == 0
        assert pinned.row_set() == committed.row_set()

    def test_reoptimized_observation_feeds_the_store(self):
        scenario = MisorderedUdfScenario()
        db = scenario.build_database()
        result = db.execute(
            scenario.sql, reoptimize=True, replan_policy=scenario.replan_policy()
        )
        assert result.observation is not None
        assert db.statistics.queries_observed == 1
        # The migrated run's observed selectivities landed under canonical
        # predicate-identity keys, usable by any later plan shape.
        threshold_b = scenario.actual_selectivity_b * scenario.row_count - 1
        prior = db.statistics.selectivity_prior(
            "ProbeB", f"ProbeB_result <= {threshold_b:g}"
        )
        assert prior is not None
        assert prior == pytest.approx(scenario.actual_selectivity_b, abs=0.05)

    def test_reoptimization_owns_the_chain_when_switching_is_armed_too(self):
        """One precedence rule: with both adaptations armed the re-optimizer
        drives the whole UDF chain and no per-UDF switcher is built, so the
        run is the ``reoptimize=True`` run, message for message."""
        scenario = MisorderedUdfScenario()
        alone = scenario.build_database().execute(
            scenario.sql, reoptimize=True, replan_policy=scenario.replan_policy()
        )
        both = scenario.build_database().execute(
            scenario.sql,
            switch_strategies=True,
            reoptimize=True,
            replan_policy=scenario.replan_policy(),
        )
        assert both.metrics.strategy_switches == 0
        assert both.metrics.plan_migrations == alone.metrics.plan_migrations >= 1
        assert both.metrics.elapsed_seconds == alone.metrics.elapsed_seconds
        assert both.metrics.shapes_used == alone.metrics.shapes_used
        assert both.rows == alone.rows

    @pytest.mark.xfail(
        strict=True,
        reason="PlanMigrationOperator prices candidate shapes with "
        "config.next_batch_size(None): the bank grows a controller under '' "
        "that never observes a batch, so every shape is priced at the initial "
        "batch size instead of a stage's current one.  Fixing it moves the "
        "stock/figure13/reoptimize+adaptive digest and ship_bulk's simulated "
        "metrics — it joins the estimate re-pin (ROADMAP item 5(c)).",
    )
    def test_reoptimizer_prices_with_a_real_stage_batch_size(self, monkeypatch):
        """Intended: with adaptive batching the batch size handed to the
        re-optimizer is the current size of one of the chain's own per-UDF
        controllers, and pricing creates no controller of its own."""
        scenario = MisorderedUdfScenario()
        db = scenario.build_database()
        bank = db.new_controller_bank()
        priced = []
        consider = ReOptimizer.consider

        def recording_consider(self, observation):
            priced.append(int(observation.batch_size))
            return consider(self, observation)

        monkeypatch.setattr(ReOptimizer, "consider", recording_consider)
        db.execute(
            scenario.sql,
            config=db.default_config.with_batch_controller(bank),
            reoptimize=True,
            replan_policy=scenario.replan_policy(),
        )
        assert priced and set(bank.controllers) >= {"probea", "probeb"}
        assert "" not in bank.controllers
        stage_sizes = {
            size
            for name in ("probea", "probeb")
            for size in bank.controllers[name].size_trace()
        }
        assert set(priced) <= stage_sizes

    def test_all_strategy_configs_converge_to_same_rows(self):
        scenario = MisorderedUdfScenario(row_count=120, stride=37)
        reference = None
        for strategy in ExecutionStrategy:
            db = scenario.build_database()
            result = db.execute(
                scenario.sql,
                config=StrategyConfig(strategy=strategy, batch_size=8),
                reoptimize=True,
                replan_policy=scenario.replan_policy(),
            )
            rows = result.row_set()
            if reference is None:
                reference = rows
            assert rows == reference


    @pytest.mark.parametrize(
        "strategy", [ExecutionStrategy.SEMI_JOIN, ExecutionStrategy.CLIENT_SITE_JOIN]
    )
    @pytest.mark.parametrize("network", ["paper_symmetric", "paper_asymmetric", "paper_modem"])
    def test_migrates_only_to_the_policys_strategies(self, network, strategy):
        """Every candidate shape comes from ``candidate_strategies``: a policy
        that names one strategy never migrates the tail to another."""
        scenario = MisorderedUdfScenario(network=getattr(NetworkConfig, network)())
        committed = scenario.build_database().execute(scenario.sql, optimize=True)
        result = scenario.build_database().execute(
            scenario.sql,
            reoptimize=True,
            replan_policy=AdaptationPolicy(candidate_strategies=(strategy,), change_budget=2),
        )
        for shape in result.metrics.shapes_used[1:]:
            assert set(re.findall(r"\[(\w+)\]", shape)) == {strategy.value}, shape
        assert sorted(result.rows) == sorted(committed.rows)


# ---------------------------------------------------------------------------
# shapes_used surfaced on QueryResult (PR 4 follow-up)
# ---------------------------------------------------------------------------


class TestShapesUsedSurface:
    def test_shapes_used_trace_on_query_result(self):
        scenario = MisorderedUdfScenario()
        result = scenario.build_database().execute(
            scenario.sql, reoptimize=True, replan_policy=scenario.replan_policy()
        )
        shapes = result.shapes_used
        assert shapes == result.metrics.shapes_used
        assert len(shapes) >= 2  # the committed shape plus the migration
        # Each entry renders the full shape: order plus per-UDF strategies.
        for shape in shapes:
            assert "->" in shape and "[" in shape
        assert shapes[0].startswith(scenario.committed_udf_order[0].lower())
        assert shapes[-1].startswith(scenario.oracle_udf_order[0].lower())

    def test_shapes_used_empty_without_reoptimization(self):
        scenario = MisorderedUdfScenario()
        result = scenario.build_database().execute(scenario.sql, optimize=True)
        assert result.shapes_used == ()
        assert result.metrics.shapes_used is None


# ---------------------------------------------------------------------------
# Pushable projections inside migrated chains (PR 4 follow-up)
# ---------------------------------------------------------------------------


class TestChainWithoutProjection:
    def _run(self, policy, threshold_a=None):
        """The misordered scenario's chain, built without a pushed projection."""
        from repro.core.execution.adaptive import MigrationPredicate, MigrationStage

        scenario = MisorderedUdfScenario()
        db = scenario.build_database()
        context = RemoteExecutionContext.create(
            scenario.network, client=ClientRuntime(registry=db.udfs)
        )
        names = ("ProbeA", "ProbeB")
        thresholds = (
            scenario.actual_selectivity_a * scenario.row_count - 1
            if threshold_a is None
            else threshold_a,
            scenario.actual_selectivity_b * scenario.row_count - 1,
        )
        operator = PlanMigrationOperator(
            TableScan(db.catalog.table("T")),
            [
                MigrationStage(
                    udf=db.udfs.get(name),
                    argument_columns=("T.V",),
                    result_column_name=f"{name}_result",
                    strategy=ExecutionStrategy.SEMI_JOIN,
                )
                for name in names
            ],
            context,
            config=StrategyConfig.semi_join(batch_size=8),
            predicates=[
                MigrationPredicate(
                    _compare(f"{name}_result", "<=", threshold),
                    frozenset({name.lower()}),
                    declared,
                )
                for name, threshold, declared in zip(
                    names,
                    thresholds,
                    (scenario.declared_selectivity_a, scenario.declared_selectivity_b),
                )
            ],
            controller=ReOptimizer(policy),
        )
        observations = []
        consider = operator.controller.consider

        def recorded(observation):
            observations.append(observation)
            return consider(observation)

        operator.controller.consider = recorded
        return operator, operator.run(), observations

    def test_a_reordered_segment_is_merged_in_the_declared_column_order(self):
        committed, committed_rows, _ = self._run(AdaptationPolicy(change_budget=0))
        migrated, migrated_rows, _ = self._run(MisorderedUdfScenario().replan_policy())
        assert committed.controller.change_count == 0
        assert migrated.controller.current_shape.udf_order == ("probeb", "probea")
        assert migrated.schema.qualified_names() == committed.schema.qualified_names()
        assert sorted(map(tuple, migrated_rows)) == sorted(map(tuple, committed_rows))

    def test_a_udf_no_row_reached_yet_is_priced_at_its_declared_cost(self):
        """ProbeA keeps no row, so ProbeB is never called: the boundaries
        price it at its declared per-call cost, and ProbeA at its measured one."""
        scenario = MisorderedUdfScenario()
        operator, rows, observations = self._run(AdaptationPolicy(), threshold_a=-1)
        assert rows == [] and observations
        for observation in observations:
            assert observation.stage_seconds_per_call == {
                "probea": pytest.approx(scenario.cost_a_seconds),
                "probeb": scenario.cost_b_seconds,
            }


def test_an_unmeasured_link_is_priced_at_its_configured_bandwidth():
    from repro.core.execution.adaptive import _bandwidth
    from repro.network.stats import TransferCounters

    assert _bandwidth(TransferCounters(), 5000.0) == 5000.0
    assert _bandwidth(TransferCounters(), None) == 1e9  # no network model: free


class TestChainProjectionPush:
    def _run_chain(self, output_columns):
        """A two-stage CSJ migration chain over wide records; the final
        output needs only the key and the second result column."""
        from repro.client.registry import UdfRegistry
        from repro.core.execution.adaptive import MigrationStage
        from repro.relational.schema import Schema
        from repro.relational.table import Table
        from repro.relational.types import FLOAT, INTEGER, STRING

        table = Table(
            "T",
            Schema.of(("K", INTEGER), ("Pad", STRING)),
            rows=[[i, "x" * 120] for i in range(48)],
        )
        registry = UdfRegistry()
        first = registry.register_function("FA", lambda k: float(k), result_dtype=FLOAT)
        second = registry.register_function(
            "FB", lambda k: float(k * 2), result_dtype=FLOAT
        )
        context = RemoteExecutionContext.create(
            NETWORK, client=ClientRuntime(registry=registry)
        )
        stages = [
            MigrationStage(
                udf=first,
                argument_columns=("T.K",),
                result_column_name="FA_result",
                strategy=ExecutionStrategy.CLIENT_SITE_JOIN,
            ),
            MigrationStage(
                udf=second,
                argument_columns=("T.K",),
                result_column_name="FB_result",
                strategy=ExecutionStrategy.CLIENT_SITE_JOIN,
            ),
        ]
        operator = PlanMigrationOperator(
            TableScan(table),
            stages,
            context,
            config=StrategyConfig(
                strategy=ExecutionStrategy.CLIENT_SITE_JOIN, batch_size=8
            ),
            output_columns=output_columns,
            controller=ReOptimizer(policy=AdaptationPolicy(change_budget=0)),
        )
        rows = operator.run()
        return rows, context

    def test_mid_chain_projection_cuts_uplink_bytes(self):
        projected_rows, projected_context = self._run_chain(["T.K", "FB_result"])
        full_rows, full_context = self._run_chain(None)
        # Same rows once the unprojected output is narrowed by hand.
        narrowed = sorted(
            (row[0], row[3]) for row in full_rows
        )
        assert sorted(tuple(row) for row in projected_rows) == narrowed
        # The pushed projection drops the 120-byte pad (and FA's result)
        # from every mid-chain and final CSJ uplink row.
        assert (
            projected_context.uplink_bytes < full_context.uplink_bytes / 2
        )


# ---------------------------------------------------------------------------
# One predicate, one key — whoever derives it (a literal holding " AND ")
# ---------------------------------------------------------------------------


class TestOneKeyPerPredicate:
    """The planner's operation, the observer's record, ``MigrationPredicate.key``
    and the re-optimizer's observed selectivities name a predicate alike — also when a
    literal contains ``' AND '``, which the text re-parser split (alone, it
    wrapped the key in parentheses; beside a second conjunct, it scrambled
    both)."""

    ALONE = "SELECT T.K FROM T WHERE Tag(T.K) = 'a AND b'"
    BESIDE = "SELECT T.K FROM T WHERE Tag(T.K) = 'a AND b' AND Tag(T.K) <> 'z'"
    KEYS = {
        ALONE: "Tag_result = 'a AND b'",
        BESIDE: "(Tag_result <> 'z' AND Tag_result = 'a AND b')",
    }

    @staticmethod
    def make_db(rows=400):
        db = Database(network=NETWORK)
        db.create_table("T", [("K", INTEGER)], rows=[[k] for k in range(rows)])
        # One row in four is tagged 'a AND b'; the declaration says nine in ten.
        db.register_client_udf(
            "Tag", lambda k: "a AND b" if k % 4 == 0 else "c", selectivity=0.9
        )
        return db

    @pytest.mark.parametrize("sql", [ALONE, BESIDE])
    def test_every_layer_derives_the_same_key(self, sql):
        from repro.core.optimizer import operations_for_query
        from repro.server.planner import build_plan

        db = self.make_db()
        bound = db.bind(sql)
        _, udfs = operations_for_query(bound)
        assert udfs[0].predicate_key == self.KEYS[sql]

        result = db.execute(sql, config=StrategyConfig.client_site_join(batch_size=16))
        assert result.observation.udfs["Tag"].predicate == self.KEYS[sql]

        plan = build_plan(
            bound,
            db.session.new_context(),
            StrategyConfig.client_site_join().with_reoptimizer(ReOptimizer()),
        )
        (chain,) = plan.remote_operators
        assert "Tag_result = 'a AND b'" in [predicate.key for predicate in chain.predicates]
        pushed = conjoin([predicate.expression for predicate in chain.predicates])
        assert pushed.canonical_key == self.KEYS[sql]

        # ... and across queries, through the store the run above fed.
        assert db.statistics.selectivity_prior("Tag", udfs[0].predicate_key) == pytest.approx(0.25)

    def test_a_reoptimizing_run_finds_what_it_just_observed(self):
        """At a segment boundary the re-optimizer prices with this run's
        observations, filed under the operation's key: it must find the
        observed 0.25, not the declared 0.9.  (One conjunct: a stage's counts
        are filed under the conjunction pushed there, the controller's specs
        per conjunct — ``docs/design.md``, "Names".)"""
        sql = self.ALONE
        result = self.make_db().execute(
            sql,
            reoptimize=True,
            replan_policy=AdaptationPolicy(initial_segment_rows=40, evidence_floor=40),
        )
        assert result.metrics.replan_attempts >= 1
        assert len(result.rows) == 100
        decisions = [
            decision
            for adaptation in result.metrics.adaptations
            for decision in adaptation.decisions
        ]
        assert decisions
        for decision in decisions:
            assert decision.observed_selectivities[self.KEYS[sql]] == pytest.approx(
                0.25, abs=0.05
            )
