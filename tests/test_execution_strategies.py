"""Tests for the three client-site UDF execution strategies."""

import pytest

from repro.errors import ExecutionError
from repro.client.registry import UdfRegistry
from repro.client.runtime import ClientRuntime
from repro.core.execution import (
    ClientSiteJoinOperator,
    NaiveUdfOperator,
    RemoteExecutionContext,
    SemiJoinUdfOperator,
    build_operator,
    replace_udf_calls_with_columns,
)
from repro.core.strategies import ExecutionStrategy, StrategyConfig
from repro.network.topology import NetworkConfig
from repro.relational.expressions import ColumnRef, Comparison, FunctionCall, Literal
from repro.relational.operators.scan import TableScan
from repro.relational.types import DataObject
from repro.workloads.experiments import run_workload_point
from repro.workloads.synthetic import (
    SyntheticWorkload,
    make_object_relation,
    register_identity_udf,
)

FAST = NetworkConfig.symmetric(1_000_000.0, latency=0.0005, name="fast")


def make_context(network=FAST, **runtime_kwargs):
    registry = UdfRegistry()
    udf = register_identity_udf(registry, name="Echo", result_size=64, cost_per_call_seconds=0.001)
    client = ClientRuntime(registry=registry, **runtime_kwargs)
    return RemoteExecutionContext.create(network, client=client), udf


def operator_for(strategy_config, context, udf, table):
    return build_operator(
        child=TableScan(table),
        udf=udf,
        argument_columns=["Relation.DataObject"],
        context=context,
        config=strategy_config,
    )


class TestRowEquivalence:
    @pytest.mark.parametrize("distinct_fraction", [1.0, 0.5, 0.2])
    def test_all_strategies_return_identical_rows(self, distinct_fraction):
        workload = SyntheticWorkload(
            row_count=15,
            input_record_bytes=200,
            argument_fraction=0.5,
            result_bytes=80,
            selectivity=0.4,
            distinct_fraction=distinct_fraction,
        )
        results = {}
        for config in (
            StrategyConfig.naive(),
            StrategyConfig.semi_join(),
            StrategyConfig.client_site_join(),
        ):
            table = workload.build_table()
            registry = workload.build_registry()
            context = RemoteExecutionContext.create(FAST, client=ClientRuntime(registry=registry))
            operator = build_operator(
                child=TableScan(table),
                udf=registry.get(workload.udf_name),
                argument_columns=["Relation.Argument"],
                context=context,
                config=config,
                pushable_predicate=Comparison(
                    "<",
                    ColumnRef(workload.result_column_name),
                    Literal(DataObject(workload.result_bytes, workload.selectivity_threshold_seed)),
                ),
                output_columns=["Relation.NonArgument", workload.result_column_name],
            )
            results[config.strategy] = sorted(tuple(row) for row in operator.run())
        assert results[ExecutionStrategy.NAIVE] == results[ExecutionStrategy.SEMI_JOIN]
        assert results[ExecutionStrategy.SEMI_JOIN] == results[ExecutionStrategy.CLIENT_SITE_JOIN]
        # The pushable predicate with selectivity 0.4 keeps roughly 40%.
        expected = int(round(0.4 * 15 * distinct_fraction)) if distinct_fraction < 1 else 6
        assert len(results[ExecutionStrategy.NAIVE]) > 0

    def test_schema_extension_and_result_values(self):
        context, udf = make_context()
        table = make_object_relation("Relation", 6, 32)
        operator = operator_for(StrategyConfig.semi_join(), context, udf, table)
        rows = operator.run()
        assert operator.output_schema().names()[-1] == "Echo_result"
        for row in rows:
            assert isinstance(row[-1], DataObject)
            assert row[-1].seed == row[0].seed  # result derived from the argument


class TestNaive:
    def test_one_round_trip_per_tuple(self):
        context, udf = make_context()
        table = make_object_relation("Relation", 8, 32)
        operator = NaiveUdfOperator(
            TableScan(table), udf, ["Relation.DataObject"], context, StrategyConfig.naive()
        )
        rows = operator.run()
        assert len(rows) == 8
        # 8 argument messages + 1 end-of-stream on the downlink.
        assert context.channel.downlink.stats.message_count == 9
        assert context.client.udf_invocations == 8

    def test_server_cache_suppresses_duplicate_round_trips(self):
        context, udf = make_context()
        table = make_object_relation("Relation", 10, 32, distinct_fraction=0.2)
        operator = NaiveUdfOperator(
            TableScan(table), udf, ["Relation.DataObject"], context,
            StrategyConfig.naive(server_result_cache=True),
        )
        rows = operator.run()
        assert len(rows) == 10
        # Only two distinct arguments cross the network (+ end of stream).
        assert context.channel.downlink.stats.message_count == 3

    def test_naive_is_slower_than_semi_join_on_high_latency_links(self):
        slow = NetworkConfig.symmetric(50_000.0, latency=0.2, name="high-latency")
        times = {}
        for config in (StrategyConfig.naive(), StrategyConfig.semi_join()):
            context, udf = make_context(network=slow)
            table = make_object_relation("Relation", 12, 64)
            operator = operator_for(config, context, udf, table)
            operator.run()
            times[config.strategy] = context.elapsed_seconds
        assert times[ExecutionStrategy.NAIVE] > 2 * times[ExecutionStrategy.SEMI_JOIN]


class TestSemiJoin:
    def test_duplicate_elimination_saves_bandwidth(self):
        def run(eliminate):
            context, udf = make_context()
            table = make_object_relation("Relation", 20, 128, distinct_fraction=0.25)
            operator = SemiJoinUdfOperator(
                TableScan(table), udf, ["Relation.DataObject"], context,
                StrategyConfig.semi_join(eliminate_duplicates=eliminate),
            )
            rows = operator.run()
            return len(rows), context.downlink_bytes, context.client.udf_invocations

        rows_with, bytes_with, invocations_with = run(True)
        rows_without, bytes_without, invocations_without = run(False)
        assert rows_with == rows_without == 20
        assert bytes_with < bytes_without
        assert invocations_with == 5  # 25% of 20 distinct arguments

    def test_concurrency_factor_bounds_in_flight_tuples(self):
        context, udf = make_context()
        table = make_object_relation("Relation", 10, 64)
        operator = SemiJoinUdfOperator(
            TableScan(table), udf, ["Relation.DataObject"], context,
            StrategyConfig.semi_join(concurrency_factor=3),
        )
        operator.run()
        assert operator.concurrency_factor_used == 3
        assert operator.peak_pipeline_occupancy <= 3

    def test_pipeline_peak_reaches_the_factor_when_it_binds(self):
        """The tuple pipeline is counted through the same window primitive as
        the batch window; a binding factor is reached exactly, and released
        slot for slot (an over-release would raise)."""
        slow = NetworkConfig.symmetric(10_000.0, latency=0.25, name="latency-heavy")
        context, udf = make_context(network=slow)
        table = make_object_relation("Relation", 12, 64)
        operator = SemiJoinUdfOperator(
            TableScan(table), udf, ["Relation.DataObject"], context,
            StrategyConfig.semi_join(concurrency_factor=4),
        )
        assert len(operator.run()) == 12
        assert operator.peak_pipeline_occupancy == 4

    def test_sorted_batch_by_arguments_groups_nulls_first_and_keeps_identity(self):
        from repro.relational.schema import Schema
        from repro.relational.table import Table
        from repro.relational.types import DATA_OBJECT, INTEGER

        context, udf = make_context()
        objects = [DataObject(8, seed=seed) for seed in (3, 1, 2)]
        rows = [[0, objects[0]], [1, None], [2, objects[1]], [3, objects[0]], [4, objects[2]], [5, None]]
        table = Table("Relation", Schema.of(("Id", INTEGER), ("DataObject", DATA_OBJECT)), rows=rows)
        operator = SemiJoinUdfOperator(
            TableScan(table), udf, ["Relation.DataObject"], context, StrategyConfig.semi_join()
        )
        from repro.relational.tuples import concat_batches

        batch = concat_batches(list(TableScan(table).execute_batches(16)), column_count=2)
        ordered, coded = operator.sorted_batch_by_arguments(batch)
        # NULLs first, then by argument, ties in input order (stable).
        assert [row[0] for row in ordered] == [1, 5, 2, 4, 0, 3]
        arguments = [(None,), (None,), (objects[1],), (objects[2],), (objects[0],), (objects[0],)]
        assert coded.tuples() == arguments
        # The codes follow the rows; the distinct tuples stay in first-appearance order.
        assert coded.codes == [1, 1, 2, 3, 0, 0]
        assert coded.keys == [(objects[0],), (None,), (objects[1],), (objects[2],)]
        # Already ordered input comes back as the very same batch.
        again, again_coded = operator.sorted_batch_by_arguments(ordered)
        assert again is ordered and again_coded.tuples() == arguments

    def test_higher_concurrency_hides_latency(self):
        def elapsed(factor):
            slow = NetworkConfig.symmetric(10_000.0, latency=0.25, name="latency-heavy")
            context, udf = make_context(network=slow)
            table = make_object_relation("Relation", 16, 64)
            operator = SemiJoinUdfOperator(
                TableScan(table), udf, ["Relation.DataObject"], context,
                StrategyConfig.semi_join(concurrency_factor=factor),
            )
            operator.run()
            return context.elapsed_seconds

        serial = elapsed(1)
        pipelined = elapsed(8)
        deeper = elapsed(16)
        assert pipelined < serial / 2
        assert deeper <= pipelined + 1e-6

    def test_auto_concurrency_uses_bt_analysis(self):
        context, udf = make_context(network=NetworkConfig.symmetric(3600.0, latency=0.4))
        table = make_object_relation("Relation", 6, 64)
        operator = SemiJoinUdfOperator(
            TableScan(table), udf, ["Relation.DataObject"], context, StrategyConfig.semi_join()
        )
        operator.run()
        assert operator.concurrency_factor_used >= 2

    def test_batched_sender(self):
        context, udf = make_context()
        table = make_object_relation("Relation", 9, 64)
        operator = SemiJoinUdfOperator(
            TableScan(table), udf, ["Relation.DataObject"], context,
            StrategyConfig.semi_join(batch_size=4),
        )
        rows = operator.run()
        assert len(rows) == 9
        # 9 arguments in batches of 4 -> 3 messages, plus end-of-stream.
        assert context.channel.downlink.stats.message_count == 4


class TestClientSiteJoin:
    def test_pushed_predicate_and_projection_reduce_uplink(self):
        workload = SyntheticWorkload(
            row_count=20, input_record_bytes=800, argument_fraction=0.5,
            result_bytes=100, selectivity=0.25,
        )
        pushed = run_workload_point(workload, FAST, StrategyConfig.client_site_join())
        unpushed = run_workload_point(
            workload, FAST,
            StrategyConfig.client_site_join(push_predicates=False, push_projections=False),
        )
        assert pushed.rows == unpushed.rows
        assert pushed.uplink_bytes < unpushed.uplink_bytes
        assert pushed.downlink_bytes == unpushed.downlink_bytes

    def test_client_join_ships_whole_records_downlink(self):
        workload = SyntheticWorkload(
            row_count=10, input_record_bytes=600, argument_fraction=0.5, result_bytes=50,
        )
        semi = run_workload_point(workload, FAST, StrategyConfig.semi_join())
        csj = run_workload_point(workload, FAST, StrategyConfig.client_site_join())
        assert csj.downlink_bytes > semi.downlink_bytes
        # Semi-join ships only argument columns (~half the record).
        assert semi.downlink_bytes < 0.7 * csj.downlink_bytes

    def test_output_columns_shape_schema(self):
        context, udf = make_context()
        table = make_object_relation("Relation", 5, 64)
        operator = ClientSiteJoinOperator(
            TableScan(table), udf, ["Relation.DataObject"], context,
            StrategyConfig.client_site_join(),
            output_columns=["Echo_result"],
        )
        rows = operator.run()
        assert operator.output_schema().names() == ["Echo_result"]
        assert all(len(row) == 1 for row in rows)


class TestEqualArgumentsOfUnequalSize:
    """``1 == 1.0 == True`` hash alike, so they are one argument *code* — at
    4, 8 and 1 bytes.  Sizing by code is right only for what ships once per
    code (the first occurrence, under duplicate elimination); every other row
    that ships is sized from its own values.  The byte counts are what the
    per-row, per-value sizing before codes put on the wire for this input."""

    ARGUMENTS = [1, 1.0, True, 1.0, None, True]

    def run(self, operator_class, config):
        from repro.relational.operators.base import CollectingOperator
        from repro.relational.schema import Schema
        from repro.relational.tuples import Row
        from repro.relational.types import FLOAT, INTEGER

        registry = UdfRegistry()
        udf = registry.register_function(
            "Twice", lambda value: None if value is None else value * 2.0, result_dtype=FLOAT
        )
        context = RemoteExecutionContext.create(FAST, client=ClientRuntime(registry=registry))
        # An untyped column: nothing validates what a collected batch holds,
        # and the strict typed-column builders leave mixed values as a list.
        schema = Schema.of(("Id", INTEGER), ("Arg", FLOAT), table="R")
        child = CollectingOperator(
            schema, [Row((index, value)) for index, value in enumerate(self.ARGUMENTS)]
        )
        rows = operator_class(child, udf, ["R.Arg"], context, config).run()
        assert sorted(row[0] for row in rows) == list(range(len(self.ARGUMENTS)))
        assert all(row[2] == (None if row[1] is None else 2.0) for row in rows)
        return context.channel_stats

    @pytest.mark.parametrize(
        "operator_class, config",
        [
            (SemiJoinUdfOperator, StrategyConfig.semi_join()),
            (SemiJoinUdfOperator, StrategyConfig.semi_join(sort_by_arguments=False)),
            (NaiveUdfOperator, StrategyConfig.naive()),
        ],
    )
    def test_each_distinct_argument_ships_once_at_its_first_occurrences_size(
        self, operator_class, config
    ):
        stats = self.run(operator_class, config)
        # The int 1 (4 bytes) stands for 1.0 and True; NULL is 1 byte.
        assert stats.downlink.rows_transferred == 2
        assert stats.downlink.payload_bytes == 4 + 1
        assert stats.downlink.total_bytes == 53  # two data messages and the end marker
        assert stats.uplink.total_bytes == 57  # 2.0 and NULL come back: 8 + 1

    @pytest.mark.parametrize(
        "operator_class, config",
        [
            (SemiJoinUdfOperator, StrategyConfig.semi_join(eliminate_duplicates=False)),
            (NaiveUdfOperator, StrategyConfig.naive(server_result_cache=False)),
        ],
    )
    def test_without_elimination_every_row_is_sized_from_its_own_values(
        self, operator_class, config
    ):
        stats = self.run(operator_class, config)
        assert stats.downlink.rows_transferred == 6
        assert stats.downlink.payload_bytes == 4 + 8 + 1 + 8 + 1 + 1
        assert stats.downlink.total_bytes == 135
        assert stats.uplink.total_bytes == 153

    def test_unhashable_arguments_ship_row_by_row(self):
        """Lists cannot be told apart by hashing: every row ships (nothing
        is eliminated), in the order the wrapper sort gives, and the client
        invokes each uncached."""
        from repro.relational.operators.base import CollectingOperator
        from repro.relational.schema import Schema
        from repro.relational.tuples import Row
        from repro.relational.types import DATA_OBJECT, INTEGER

        registry = UdfRegistry()
        udf = registry.register_function("Total", lambda values: sum(values), result_size_bytes=8)
        client = ClientRuntime(registry=registry)
        context = RemoteExecutionContext.create(FAST, client=client)
        schema = Schema.of(("Id", INTEGER), ("Arg", DATA_OBJECT), table="R")
        child = CollectingOperator(
            schema, [Row((0, [2, 1])), Row((1, [1, 2])), Row((2, [2, 1]))]
        )
        operator = SemiJoinUdfOperator(child, udf, ["R.Arg"], context, StrategyConfig.semi_join())
        assert [tuple(row) for row in operator.run()] == [
            (1, [1, 2], 3), (0, [2, 1], 3), (2, [2, 1], 3)
        ]
        assert operator.distinct_argument_count == 3
        assert context.channel_stats.downlink.rows_transferred == 3
        assert client.udf_invocations == 3 and client.cache_hits == 0


class TestFailureHandling:
    def test_client_failure_surfaces_as_execution_error(self):
        for config in (StrategyConfig.naive(), StrategyConfig.semi_join(), StrategyConfig.client_site_join()):
            context, udf = make_context(fail_on_invocation=3)
            table = make_object_relation("Relation", 6, 32)
            operator = operator_for(config, context, udf, table)
            with pytest.raises(ExecutionError):
                operator.run()

    def test_missing_argument_column_is_rejected_up_front(self):
        context, udf = make_context()
        table = make_object_relation("Relation", 3, 32)
        with pytest.raises(Exception):
            SemiJoinUdfOperator(
                TableScan(table), udf, ["Relation.Missing"], context, StrategyConfig.semi_join()
            )

    def test_empty_argument_columns_rejected(self):
        context, udf = make_context()
        table = make_object_relation("Relation", 3, 32)
        with pytest.raises(ExecutionError):
            SemiJoinUdfOperator(TableScan(table), udf, [], context, StrategyConfig.semi_join())

    def test_empty_input_relation(self):
        for config in (StrategyConfig.naive(), StrategyConfig.semi_join(), StrategyConfig.client_site_join()):
            context, udf = make_context()
            table = make_object_relation("Relation", 0, 32)
            operator = operator_for(config, context, udf, table)
            assert operator.run() == []


class TestRewrite:
    def test_udf_calls_replaced_by_result_columns(self):
        expression = Comparison(
            ">", FunctionCall("Analyze", [ColumnRef("S.Quotes")]), Literal(500)
        )
        rewritten = replace_udf_calls_with_columns(expression, {"analyze": "Analyze_result"})
        assert isinstance(rewritten.left, ColumnRef)
        assert rewritten.left.name == "Analyze_result"

    def test_unknown_calls_preserved(self):
        expression = FunctionCall("Other", [ColumnRef("x")])
        rewritten = replace_udf_calls_with_columns(expression, {"analyze": "Analyze_result"})
        assert isinstance(rewritten, FunctionCall)
        assert rewritten.name == "Other"
