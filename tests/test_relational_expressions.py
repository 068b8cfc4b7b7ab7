"""Tests for expressions and predicate analysis."""

import pytest

from repro.errors import ExpressionError
from repro.relational.expressions import (
    Arithmetic,
    BooleanOp,
    ColumnRef,
    Comparison,
    FunctionCall,
    Literal,
    conjoin,
    conjuncts,
)
from repro.relational.operators import ProjectExpressions, TableScan
from repro.relational.predicates import (
    PredicateInfo,
    columns_covered,
    estimate_selectivity,
)
from repro.relational.schema import Schema
from repro.relational.statistics import compute_table_statistics
from repro.relational.table import Table
from repro.relational.types import FLOAT, INTEGER, STRING


@pytest.fixture
def schema():
    return Schema.of(("a", INTEGER), ("b", FLOAT), ("name", STRING), table="t")


@pytest.fixture
def row():
    return (4, 2.5, "ann")


class TestEvaluation:
    def test_literal_and_column(self, schema, row):
        assert Literal(7).evaluate(row, schema) == 7
        assert ColumnRef("t.a").evaluate(row, schema) == 4
        assert ColumnRef("b").evaluate(row, schema) == 2.5

    def test_comparison_operators(self, schema, row):
        assert Comparison("<", ColumnRef("a"), Literal(5)).evaluate(row, schema) is True
        assert Comparison(">=", ColumnRef("a"), Literal(5)).evaluate(row, schema) is False
        assert Comparison("<>", ColumnRef("name"), Literal("bob")).evaluate(row, schema) is True

    def test_comparison_with_null_is_null(self, schema):
        row = (None, 1.0, "x")
        assert Comparison("=", ColumnRef("a"), Literal(1)).evaluate(row, schema) is None

    def test_arithmetic(self, schema, row):
        expr = Arithmetic("/", ColumnRef("a"), ColumnRef("b"))
        assert expr.evaluate(row, schema) == pytest.approx(1.6)
        with pytest.raises(ExpressionError):
            Arithmetic("/", ColumnRef("a"), Literal(0)).evaluate(row, schema)

    def test_division_by_zero_raises_and_a_null_operand_gives_null(self):
        schema = Schema.of(("i", INTEGER), ("f", FLOAT), table="t")
        quotient = Arithmetic("/", ColumnRef("f"), ColumnRef("i"))
        bound = quotient.bind(schema)
        with pytest.raises(ExpressionError):
            [bound(row) for row in [(2, 4.0), (0, 1.0)]]
        # A zero divisor beside a NULL dividend is never divided by, and a
        # NULL divisor is NULL, not an error.
        assert [bound(row) for row in [(2, 4.0), (0, None), (None, 8.0)]] == [2.0, None, None]
        table = Table("t", schema, rows=[[2, 4.0], [None, 8.0], [0, 1.0]])
        with pytest.raises(ExpressionError):
            ProjectExpressions(TableScan(table), [("q", quotient, FLOAT)]).run()

    def test_boolean_three_valued_logic(self, schema):
        row = (None, 2.0, "x")
        null_comparison = Comparison("=", ColumnRef("a"), Literal(1))
        false_comparison = Comparison(">", ColumnRef("b"), Literal(5))
        true_comparison = Comparison("<", ColumnRef("b"), Literal(5))
        assert BooleanOp("AND", [null_comparison, false_comparison]).evaluate(row, schema) is False
        assert BooleanOp("AND", [null_comparison, true_comparison]).evaluate(row, schema) is None
        assert BooleanOp("OR", [null_comparison, true_comparison]).evaluate(row, schema) is True
        assert BooleanOp("OR", [null_comparison, false_comparison]).evaluate(row, schema) is None
        assert BooleanOp("NOT", [true_comparison]).evaluate(row, schema) is False

    def test_function_call_binding(self, schema, row):
        call = FunctionCall("double", [ColumnRef("a")])
        assert call.evaluate(row, schema, {"double": lambda x: 2 * x}) == 8
        with pytest.raises(ExpressionError):
            call.evaluate(row, schema, {})

    def test_invalid_operators_rejected(self):
        with pytest.raises(ExpressionError):
            Comparison("~", Literal(1), Literal(2))
        with pytest.raises(ExpressionError):
            Arithmetic("%", Literal(1), Literal(2))
        with pytest.raises(ExpressionError):
            BooleanOp("XOR", [Literal(True), Literal(False)])
        with pytest.raises(ExpressionError):
            BooleanOp("NOT", [Literal(True), Literal(False)])


class TestStructure:
    def test_columns_collects_all_references(self):
        expr = BooleanOp(
            "AND",
            [
                Comparison(">", ColumnRef("t.a"), Literal(1)),
                Comparison("=", FunctionCall("f", [ColumnRef("t.b")]), Literal(2)),
            ],
        )
        assert expr.columns() == frozenset({"t.a", "t.b"})

    def test_function_calls_depth_first(self):
        inner = FunctionCall("g", [ColumnRef("x")])
        outer = FunctionCall("f", [inner, ColumnRef("y")])
        names = [call.name for call in outer.function_calls()]
        assert names == ["f", "g"]

    def test_structural_equality_and_hash(self):
        first = Comparison("=", ColumnRef("a"), Literal(1))
        second = Comparison("=", ColumnRef("a"), Literal(1))
        assert first == second
        assert hash(first) == hash(second)
        assert first != Comparison("=", ColumnRef("a"), Literal(2))

    def test_conjuncts_and_conjoin_roundtrip(self):
        a = Comparison(">", ColumnRef("a"), Literal(1))
        b = Comparison("<", ColumnRef("b"), Literal(2))
        c = Comparison("=", ColumnRef("c"), Literal(3))
        combined = conjoin([a, BooleanOp("AND", [b, c])])
        assert conjuncts(combined) == [a, b, c]
        assert conjoin([]) is None
        assert conjoin([a]) is a
        assert conjuncts(None) == []

    def test_walk_visits_every_node(self):
        expr = Comparison("=", Arithmetic("+", ColumnRef("a"), Literal(1)), Literal(2))
        kinds = [type(node).__name__ for node in expr.walk()]
        assert kinds == ["Comparison", "Arithmetic", "ColumnRef", "Literal", "Literal"]

    def test_str_renders_sql_like_text(self):
        expr = Comparison(">", Arithmetic("/", ColumnRef("t.a"), ColumnRef("t.b")), Literal(0.2))
        assert str(expr) == "(t.a / t.b) > 0.2"


class TestSelectivity:
    def test_equality_uses_distinct_counts(self):
        schema = Schema.of(("k", INTEGER),)
        stats = compute_table_statistics(schema, [(i % 4,) for i in range(20)])
        expr = Comparison("=", ColumnRef("k"), Literal(1))
        assert estimate_selectivity(expr, stats) == pytest.approx(0.25)

    def test_range_default(self):
        expr = Comparison(">", ColumnRef("k"), Literal(1))
        assert estimate_selectivity(expr) == pytest.approx(1 / 3)

    def test_udf_selectivity_override(self):
        expr = Comparison(">", FunctionCall("Analyze", [ColumnRef("x")]), Literal(5))
        assert estimate_selectivity(expr, None, {"Analyze": 0.2}) == pytest.approx(0.2)

    def test_and_or_not_combinators(self):
        a = Comparison(">", ColumnRef("k"), Literal(1))
        assert estimate_selectivity(BooleanOp("AND", [a, a])) == pytest.approx((1 / 3) ** 2)
        assert estimate_selectivity(BooleanOp("OR", [a, a])) == pytest.approx(1 - (2 / 3) ** 2)
        assert estimate_selectivity(BooleanOp("NOT", [a])) == pytest.approx(2 / 3)

    def test_none_and_literal(self):
        assert estimate_selectivity(None) == 1.0
        assert estimate_selectivity(Literal(True)) == 1.0
        assert estimate_selectivity(Literal(False)) == 0.0


class TestPredicateAnalysis:
    def test_columns_covered_with_bare_names(self):
        assert columns_covered(frozenset({"S.Name"}), {"Name"})
        assert columns_covered(frozenset({"Name"}), {"S.Name"})
        assert not columns_covered(frozenset({"S.Other"}), {"S.Name"})

    def test_predicate_info_names_its_udfs_and_columns(self):
        expr = Comparison(">", FunctionCall("Analyze", [ColumnRef("S.Quotes")]), Literal(1))
        info = PredicateInfo.analyze(expr)
        assert info.references_udf
        assert info.udf_names == ("Analyze",)
        assert info.columns == frozenset({"S.Quotes"})
        assert 0 < info.selectivity <= 1
