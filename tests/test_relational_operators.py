"""Tests for the iterator-model physical operators."""

import pytest

from repro.errors import OperatorError
from repro.relational.expressions import ColumnRef, Comparison, Literal
from repro.relational.operators import (
    CollectingOperator,
    Distinct,
    Filter,
    HashJoin,
    Limit,
    NestedLoopJoin,
    Project,
    ProjectExpressions,
    RowSource,
    Sort,
    TableScan,
)
from repro.relational.schema import Schema
from repro.relational.table import Table
from repro.relational.tuples import Row
from repro.relational.types import FLOAT, INTEGER, STRING


def make_table(name, columns, rows):
    return Table(name, Schema.of(*columns), rows=rows)


@pytest.fixture
def orders():
    return make_table(
        "orders",
        (("id", INTEGER), ("customer", STRING), ("amount", FLOAT)),
        [
            [1, "ann", 10.0],
            [2, "bob", 25.0],
            [3, "ann", 5.0],
            [4, "cid", 25.0],
        ],
    )


@pytest.fixture
def customers():
    return make_table(
        "customers",
        (("name", STRING), ("city", STRING)),
        [["ann", "ithaca"], ["bob", "nyc"], ["dot", "boston"]],
    )


class TestScansAndFilters:
    def test_table_scan_schema_and_rows(self, orders):
        scan = TableScan(orders)
        assert scan.output_schema().qualified_names()[0] == "orders.id"
        assert len(scan.run()) == 4

    def test_table_scan_alias(self, orders):
        scan = TableScan(orders, alias="o")
        assert scan.output_schema().qualified_names()[0] == "o.id"

    def test_filter(self, orders):
        scan = TableScan(orders)
        filtered = Filter(scan, Comparison(">", ColumnRef("amount"), Literal(9.0)))
        assert len(filtered.run()) == 3

    def test_filter_drops_null_predicate_rows(self):
        table = make_table("t", (("v", INTEGER),), [[1], [None], [3]])
        filtered = Filter(TableScan(table), Comparison(">", ColumnRef("v"), Literal(0)))
        assert len(filtered.run()) == 2

    def test_row_source(self):
        schema = Schema.of(("x", INTEGER))
        source = RowSource(schema, lambda: [(1,), (2,)])
        assert [tuple(row) for row in source.run()] == [(1,), (2,)]

    def test_collecting_operator(self):
        schema = Schema.of(("x", INTEGER))
        op = CollectingOperator(schema, [Row([1]), Row([2])])
        assert len(op.run()) == 2
        assert "Collected" in op.describe()


class TestProjection:
    def test_project_by_name(self, orders):
        project = Project(TableScan(orders), ["customer", "amount"])
        assert project.output_schema().names() == ["customer", "amount"]
        assert tuple(project.run()[0]) == ("ann", 10.0)

    def test_project_expressions(self, orders):
        project = ProjectExpressions(
            TableScan(orders),
            [
                ("customer", ColumnRef("customer"), None),
                ("double_amount", Comparison(">", ColumnRef("amount"), Literal(9.0)), None),
            ],
        )
        rows = project.run()
        assert project.output_schema().names() == ["customer", "double_amount"]
        assert rows[0][1] is True


class TestSortDistinctLimit:
    def test_sort_ascending_descending(self, orders):
        ascending = Sort(TableScan(orders), ["amount"]).run()
        assert [row[2] for row in ascending] == [5.0, 10.0, 25.0, 25.0]
        descending = Sort(TableScan(orders), ["amount"], descending=True).run()
        assert [row[2] for row in descending] == [25.0, 25.0, 10.0, 5.0]

    def test_sort_nulls_first(self):
        table = make_table("t", (("v", INTEGER),), [[2], [None], [1]])
        values = [row[0] for row in Sort(TableScan(table), ["v"]).run()]
        assert values == [None, 1, 2]

    def test_multi_key_descending_sort_is_stable(self):
        table = make_table(
            "t",
            (("id", INTEGER), ("a", STRING), ("b", INTEGER)),
            [[0, "x", 1], [1, None, 2], [2, "x", 1], [3, "y", None], [4, None, 2], [5, "x", None]],
        )
        ascending = [row[0] for row in Sort(TableScan(table), ["a", "b"]).run()]
        assert ascending == [1, 4, 5, 0, 2, 3]
        descending = [row[0] for row in Sort(TableScan(table), ["a", "b"], descending=True).run()]
        assert descending == [3, 0, 2, 5, 1, 4]

    def test_mixed_direction_sort_orders_each_key_its_own_way(self):
        table = make_table(
            "t",
            (("id", INTEGER), ("a", INTEGER), ("b", INTEGER)),
            [[0, 1, 1], [1, 1, 2], [2, 2, 1], [3, 2, 2], [4, None, 2], [5, 2, None], [6, 1, 2]],
        )

        def ids(descending):
            return [row[0] for row in Sort(TableScan(table), ["a", "b"], descending).run()]

        # NULLs order lowest: first ascending, last descending; ties keep input order.
        assert ids([True, False]) == [5, 2, 3, 0, 1, 6, 4]
        assert ids([False, True]) == [4, 1, 6, 0, 3, 2, 5]
        assert ids([True, True]) == ids(True)
        assert ids([False, False]) == ids(False)
        sort = Sort(TableScan(table), ["a", "b"], [True, False])
        assert sort.describe() == "Sort(a DESC, b)"
        with pytest.raises(OperatorError):
            Sort(TableScan(table), ["a", "b"], [True])

    def test_distinct(self, orders):
        doubled = CollectingOperator(
            TableScan(orders).output_schema(), list(TableScan(orders).run()) * 2
        )
        assert len(Distinct(doubled).run()) == 4

    def test_limit_and_offset(self, orders):
        assert len(Limit(TableScan(orders), 2).run()) == 2
        offset = Limit(TableScan(orders), 10, offset=3).run()
        assert len(offset) == 1
        with pytest.raises(OperatorError):
            Limit(TableScan(orders), -1)


class TestJoins:
    def expected_join(self, orders, customers):
        result = set()
        for order in orders:
            for customer in customers:
                if order[1] == customer[0]:
                    result.add(tuple(order) + tuple(customer))
        return result

    def test_hash_join_matches_nested_loop(self, orders, customers):
        predicate = Comparison("=", ColumnRef("orders.customer"), ColumnRef("customers.name"))
        nested = NestedLoopJoin(TableScan(orders), TableScan(customers), predicate)
        hashed = HashJoin(
            TableScan(orders), TableScan(customers), ["orders.customer"], ["customers.name"]
        )
        expected = self.expected_join(orders.rows, customers.rows)
        assert {tuple(row) for row in nested.run()} == expected
        assert {tuple(row) for row in hashed.run()} == expected

    def test_cross_product(self, orders, customers):
        cross = NestedLoopJoin(TableScan(orders), TableScan(customers))
        assert len(cross.run()) == len(orders) * len(customers)

    def test_hash_join_null_keys_never_match(self):
        left = make_table("l", (("k", INTEGER),), [[1], [None]])
        right = make_table("r", (("k", INTEGER),), [[1], [None]])
        join = HashJoin(TableScan(left), TableScan(right), ["l.k"], ["r.k"])
        assert len(join.run()) == 1

    def test_key_validation(self, orders, customers):
        with pytest.raises(OperatorError):
            HashJoin(TableScan(orders), TableScan(customers), [], [])

    def test_duplicate_join_keys_produce_all_pairs(self):
        left = make_table("l", (("k", INTEGER),), [[1], [1]])
        right = make_table("r", (("k", INTEGER),), [[1], [1], [1]])
        hashed = HashJoin(TableScan(left), TableScan(right), ["l.k"], ["r.k"]).run()
        assert len(hashed) == 6


class TestExplain:
    def test_explain_renders_tree(self, orders, customers):
        join = HashJoin(
            TableScan(orders), TableScan(customers), ["orders.customer"], ["customers.name"]
        )
        text = Filter(join, Comparison(">", ColumnRef("amount"), Literal(1.0))).explain()
        assert "Filter" in text and "HashJoin" in text and "TableScan(orders)" in text
        assert text.count("\n") >= 2


class TestNullsFirstOrder:
    """Ordering rows by the rank of their distinct values must equal the
    stable sort through the NULLs-first key wrapper, whatever the keys."""

    @staticmethod
    def reference(keys, reverse=False):
        from repro.relational.keys import _NullsFirstKey

        return sorted(
            range(len(keys)), key=lambda index: _NullsFirstKey(keys[index]), reverse=reverse
        )

    @pytest.mark.parametrize("reverse", [False, True])
    def test_matches_the_wrapper_sort(self, reverse):
        import random

        from repro.relational.keys import nulls_first_order
        from repro.relational.types import TimeSeries

        rng = random.Random(5)
        series = [TimeSeries([rng.randrange(4), rng.randrange(4)]) for _ in range(12)]
        keys = [
            (rng.choice([None, 1, 2, 2.0, 3]), rng.choice([None] + series), rng.choice("abc"))
            for _ in range(400)
        ]
        assert nulls_first_order(keys, reverse=reverse) == self.reference(keys, reverse)

    def test_empty_and_single_column(self):
        from repro.relational.keys import nulls_first_order

        assert nulls_first_order([]) == []
        assert nulls_first_order([(3,), (None,), (1,), (3,)]) == [1, 2, 0, 3]

    def test_distinct_values_are_compared_not_rows(self):
        """12 800 rows over a handful of values must not cost a Python-level
        comparison per pair of rows."""
        from repro.relational.keys import nulls_first_order

        class Counted:
            comparisons = 0

            def __init__(self, value):
                self.value = value

            def __eq__(self, other):
                return self.value == other.value

            def __hash__(self):
                return hash(self.value)

            def __lt__(self, other):
                Counted.comparisons += 1
                return self.value < other.value

        values = [Counted(index % 7) for index in range(7)]
        keys = [(values[(index * 5) % 7],) for index in range(2000)]
        order = nulls_first_order(keys)
        assert [keys[index][0].value for index in order] == sorted(k[0].value for k in keys)
        assert Counted.comparisons < 50

    def test_unhashable_and_nan_keys_take_the_wrapper_path(self):
        from repro.relational.keys import _rank_keys, nulls_first_order

        unhashable = [([2],), ([1],), (None,), ([2],)]
        assert _rank_keys(unhashable) is None
        assert nulls_first_order(unhashable) == self.reference(unhashable) == [2, 1, 0, 3]
        nan = float("nan")
        with_nan = [(2.0,), (nan,), (1.0,), (None,)]
        assert _rank_keys(with_nan) is None
        assert nulls_first_order(with_nan) == self.reference(with_nan)

    def test_incomparable_values_still_raise(self):
        from repro.relational.keys import nulls_first_order

        with pytest.raises(TypeError):
            nulls_first_order([(1,), ("a",)])
