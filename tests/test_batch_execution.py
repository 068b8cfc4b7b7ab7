"""Tests for batch-at-a-time operator execution and its instrumentation."""

import pytest

from repro.errors import OperatorError
from repro.relational.expressions import ColumnRef, Comparison, Literal
from repro.relational.operators import (
    Filter,
    HashJoin,
    Limit,
    Operator,
    Project,
    TableScan,
)
from repro.relational.schema import Schema
from repro.relational.table import Table
from repro.relational.tuples import DEFAULT_BATCH_SIZE, Row, RowBatch, batches_of
from repro.relational.types import FLOAT, INTEGER, STRING


def make_table(name, columns, rows):
    return Table(name, Schema.of(*columns), rows=rows)


@pytest.fixture
def numbers():
    return make_table(
        "numbers",
        (("n", INTEGER), ("bucket", STRING), ("v", FLOAT)),
        [[i, "even" if i % 2 == 0 else "odd", float(i) * 1.5] for i in range(10)],
    )


class TestRowBatch:
    def test_len_iter_and_indexing(self):
        batch = RowBatch([Row([1, "a"]), Row([2, "b"])])
        assert len(batch) == 2
        assert [tuple(row) for row in batch] == [(1, "a"), (2, "b")]
        assert tuple(batch[1]) == (2, "b")
        assert batch and not RowBatch([])

    def test_project_and_filter(self):
        batch = RowBatch([Row([1, "a"]), Row([2, "b"]), Row([3, "c"])])
        assert [tuple(row) for row in batch.project((1,))] == [("a",), ("b",), ("c",)]
        kept = batch.filter(lambda row: row[0] > 1)
        assert [row[0] for row in kept] == [2, 3]

    def test_batches_of_chunks_and_respects_size(self):
        rows = [Row([i]) for i in range(10)]
        batches = list(batches_of(iter(rows), 4))
        assert [len(batch) for batch in batches] == [4, 4, 2]
        assert [row[0] for batch in batches for row in batch] == list(range(10))

    def test_batches_of_rejects_bad_size(self):
        with pytest.raises(ValueError):
            list(batches_of(iter([]), 0))


class TestBatchProtocol:
    def test_execute_and_execute_batches_agree(self, numbers):
        for build in (
            lambda: TableScan(numbers),
            lambda: Filter(TableScan(numbers), Comparison(">", ColumnRef("n"), Literal(3))),
            lambda: Project(TableScan(numbers), ["bucket", "v"]),
        ):
            via_rows = [tuple(row) for row in build().execute()]
            via_batches = [
                tuple(row) for batch in build().execute_batches() for row in batch
            ]
            assert via_rows == via_batches

    def test_batch_size_bounds_scan_batches(self, numbers):
        scan = TableScan(numbers)
        batches = list(scan.execute_batches(batch_size=3))
        assert [len(batch) for batch in batches] == [3, 3, 3, 1]

    def test_operator_default_batch_size(self, numbers):
        assert TableScan(numbers).batch_size == DEFAULT_BATCH_SIZE

    def test_invalid_batch_size_rejected(self, numbers):
        with pytest.raises(OperatorError):
            list(TableScan(numbers).execute_batches(batch_size=0))

    def test_hash_join_batches_match_rows(self, numbers):
        buckets = make_table(
            "buckets", (("name", STRING), ("weight", FLOAT)), [["even", 1.0], ["odd", 2.0]]
        )
        join = HashJoin(TableScan(numbers), TableScan(buckets), ["numbers.bucket"], ["buckets.name"])
        rows = {tuple(row) for row in join.run()}
        join2 = HashJoin(TableScan(numbers), TableScan(buckets), ["numbers.bucket"], ["buckets.name"])
        batched = {tuple(row) for batch in join2.execute_batches(4) for row in batch}
        assert rows == batched and len(rows) == 10

    def test_empty_batches_are_suppressed(self, numbers):
        # A filter that drops everything yields no batches at all.
        filtered = Filter(TableScan(numbers), Comparison(">", ColumnRef("n"), Literal(99)))
        assert list(filtered.execute_batches(2)) == []


class TestInstrumentationSingleCount:
    def test_run_counts_rows_exactly_once(self, numbers):
        scan = TableScan(numbers)
        rows = scan.run()
        assert scan.rows_produced == len(rows) == 10
        assert scan.batches_produced >= 1

    def test_execute_paths_count_once(self, numbers):
        scan = TableScan(numbers)
        consumed = list(scan.execute())
        assert scan.rows_produced == len(consumed) == 10
        batched = TableScan(numbers)
        total = sum(len(batch) for batch in batched.execute_batches(3))
        assert batched.rows_produced == total == 10

    def test_executor_does_not_double_count(self, fast_network):
        """The executor's metrics path and Operator.run share one counter."""
        from repro.server.engine import Database
        from repro.relational.types import INTEGER as INT

        db = Database(network=fast_network)
        db.create_table("T", [("a", INT), ("b", INT)], rows=[[i, i * 2] for i in range(7)])
        from repro.server.executor import Executor
        from repro.server.planner import build_plan

        context = db.session.new_context()
        plan = build_plan(db.bind("SELECT T.a FROM T"), context)
        executor = Executor(context)
        result = executor.execute_plan(plan)
        assert plan.root.rows_produced == result.metrics.rows_returned == 7

    def test_rerunning_accumulates_per_run_not_double(self, numbers):
        scan = TableScan(numbers)
        scan.run()
        scan.run()
        assert scan.rows_produced == 20  # two executions, one count each

    def test_limit_propagates_batch_size_to_child(self, numbers):
        """A small LIMIT must not drag a whole default-sized child batch."""
        scan = TableScan(numbers)
        limit = Limit(scan, 2)
        rows = [row for batch in limit.execute_batches(batch_size=2) for row in batch]
        assert len(rows) == 2
        # The child was pulled at the requested batch size, not its default.
        assert scan.rows_produced == 2


class TestClientBatchInstrumentation:
    def test_client_observes_served_batches(self, fast_network):
        from repro.client.registry import UdfRegistry
        from repro.client.runtime import ClientRuntime
        from repro.core.execution.context import RemoteExecutionContext
        from repro.core.execution.semijoin import SemiJoinUdfOperator
        from repro.core.strategies import StrategyConfig
        from repro.workloads.synthetic import make_object_relation, register_identity_udf

        registry = UdfRegistry()
        udf = register_identity_udf(registry, name="Echo", result_size=16)
        client = ClientRuntime(registry=registry)
        context = RemoteExecutionContext.create(fast_network, client=client)
        operator = SemiJoinUdfOperator(
            TableScan(make_object_relation("Relation", 10, 32)),
            udf,
            ["Relation.DataObject"],
            context,
            StrategyConfig.semi_join(batch_size=4),
        )
        operator.run()
        # 10 arguments in batches of 4 -> 3 data batches, largest of 4 rows.
        assert client.batches_handled == 3
        assert client.largest_batch == 4
