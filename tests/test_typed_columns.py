"""Typed column buffers and vectorized kernels.

Three layers of coverage:

* :class:`TypedColumn` semantics — strict builders, NULL handling, pure
  Python scalars on every read path, column-wise operations;
* kernel equivalence — every compiled filter/expression kernel produces
  exactly what the scalar bound expression produces, NULLs and mixed-width
  schemas included;
* wire-trace invariance — running the same workload with typed buffers on
  and off (and therefore with and without vectorized kernels) produces
  byte-identical wire traces and identical results under all three
  execution strategies and across overlap windows.
"""

from __future__ import annotations

import pytest

from repro.client.registry import UdfRegistry
from repro.client.runtime import ClientRuntime
from repro.core.execution.context import RemoteExecutionContext
from repro.core.execution.rewrite import build_operator
from repro.core.strategies import StrategyConfig
from repro.errors import ExpressionError
from repro.network.topology import NetworkConfig
from repro.relational.columns import (
    HAVE_NUMPY,
    TypedColumn,
    build_typed_column,
    scalar_fallback,
)
from repro.relational.expressions import (
    Arithmetic,
    BooleanOp,
    ColumnRef,
    Comparison,
    Literal,
)
from repro.relational.kernels import compile_expression, compile_filter
from repro.relational.operators import Filter, ProjectExpressions, TableScan
from repro.relational.schema import Schema
from repro.relational.table import Table
from repro.relational.tuples import RowBatch, row_size
from repro.relational.types import BOOLEAN, FLOAT, INTEGER, DataObject, DATA_OBJECT


# ---------------------------------------------------------------------------
# TypedColumn semantics
# ---------------------------------------------------------------------------


needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="without NumPy every column is a plain list"
)


class TestTypedColumnSemantics:
    @needs_numpy
    def test_round_trip_and_python_scalars(self):
        column = build_typed_column([1, 2, 3], INTEGER)
        assert isinstance(column, TypedColumn)
        assert column.to_list() == [1, 2, 3]
        assert all(type(value) is int for value in column)
        assert column[1] == 2 and column[-1] == 3

        floats = build_typed_column([1.5, -2.0], FLOAT)
        assert floats.to_list() == [1.5, -2.0]
        assert all(type(value) is float for value in floats)

        flags = build_typed_column([True, False, True], BOOLEAN)
        assert flags.to_list() == [True, False, True]
        assert all(type(value) is bool for value in flags)

    @needs_numpy
    def test_widths_match_wire_sizes(self):
        assert build_typed_column([1], INTEGER).width == 4
        assert build_typed_column([1.0], FLOAT).width == 8
        assert build_typed_column([True], BOOLEAN).width == 1

    def test_builders_are_strict(self):
        # Wrong Python type (even when numerically convertible) stays scalar,
        # so value-based wire sizing can never drift.
        assert build_typed_column([1, 2.0], INTEGER) is None
        assert build_typed_column([1], FLOAT) is None
        assert build_typed_column([True], INTEGER) is None
        assert build_typed_column([1], BOOLEAN) is None
        assert build_typed_column([2**63], INTEGER) is None
        assert build_typed_column([-(2**63) - 1], INTEGER) is None
        assert build_typed_column([DataObject(8, seed=1)], DATA_OBJECT) is None

    @needs_numpy
    def test_nulls_round_trip(self):
        column = build_typed_column([1, None, 3, None], INTEGER)
        assert isinstance(column, TypedColumn)
        assert column.null_count == 2
        assert column.count(None) == 2
        assert column.to_list() == [1, None, 3, None]
        assert column[1] is None

    @needs_numpy
    def test_take_and_mask_and_slice(self):
        column = build_typed_column([10, None, 30, 40], INTEGER)
        assert column.take([3, 0]).to_list() == [40, 10]
        assert column.take([1, 2]).to_list() == [None, 30]
        assert column.take([0, 2]).null_count == 0
        assert column[1:3].to_list() == [None, 30]
        assert column[0:1].validity is None

    @needs_numpy
    def test_concat(self):
        left = build_typed_column([1, None], INTEGER)
        right = build_typed_column([3, 4], INTEGER)
        merged = TypedColumn.concat([left, right])
        assert merged.to_list() == [1, None, 3, 4]
        assert merged.null_count == 1

    @needs_numpy
    def test_scalar_fallback_disables_typing(self):
        with scalar_fallback():
            assert build_typed_column([1, 2], INTEGER) is None
        assert build_typed_column([1, 2], INTEGER) is not None

    @needs_numpy
    def test_ensure_typed_upgrades_fixed_columns_only(self):
        schema = Schema.of(
            ("a", INTEGER), ("b", FLOAT), ("o", DATA_OBJECT), table="t"
        )
        batch = RowBatch([(1, 1.0, DataObject(8, seed=0)), (2, 2.0, DataObject(8, seed=1))])
        batch.ensure_typed(schema)
        assert isinstance(batch.typed_column(0), TypedColumn)
        assert isinstance(batch.typed_column(1), TypedColumn)
        assert batch.typed_column(2) is None
        assert [tuple(row) for row in batch.rows] == [
            (1, 1.0, DataObject(8, seed=0)),
            (2, 2.0, DataObject(8, seed=1)),
        ]

    def test_size_memo_caches_schema_sizing(self):
        schema = Schema.of(("a", INTEGER), ("b", FLOAT), table="t")
        batch = RowBatch([(1, 1.0), (2, 2.0), (None, None)]).ensure_typed(schema)
        first = batch.size_bytes(schema)
        assert first == sum(row_size(row, schema) for row in [(1, 1.0), (2, 2.0), (None, None)])
        memo = batch._size_memo
        assert memo is not None
        assert batch.size_bytes(schema) == first
        assert batch._size_memo is memo


# ---------------------------------------------------------------------------
# Kernel equivalence (typed vs scalar) on mixed-width schemas with NULLs
# ---------------------------------------------------------------------------


MIXED_SCHEMA = Schema.of(
    ("i", INTEGER), ("f", FLOAT), ("b", BOOLEAN), ("o", DATA_OBJECT), table="t"
)

MIXED_ROWS = [
    (4, 0.5, True, DataObject(8, seed=0)),
    (None, 2.0, False, DataObject(8, seed=1)),
    (-3, None, True, DataObject(8, seed=2)),
    (0, -1.25, None, DataObject(8, seed=3)),
    (7, 7.0, False, None),
    (4, 4.0, True, DataObject(8, seed=4)),
]


def mixed_batch() -> RowBatch:
    return RowBatch(list(MIXED_ROWS)).ensure_typed(MIXED_SCHEMA)


FILTER_EXPRESSIONS = [
    Comparison("<", ColumnRef("i"), Literal(4)),
    Comparison("=", ColumnRef("i"), Literal(4)),
    Comparison("!=", ColumnRef("i"), Literal(4)),
    Comparison(">=", ColumnRef("f"), Literal(0.5)),
    Comparison("<", ColumnRef("i"), ColumnRef("f")),
    Comparison("=", ColumnRef("b"), Literal(True)),
    BooleanOp("NOT", [Comparison("<", ColumnRef("i"), Literal(1))]),
    BooleanOp(
        "AND",
        [
            Comparison(">", ColumnRef("i"), Literal(-5)),
            Comparison("<", ColumnRef("f"), Literal(5.0)),
        ],
    ),
    BooleanOp(
        "OR",
        [
            Comparison("<", ColumnRef("i"), Literal(0)),
            Comparison("=", ColumnRef("b"), Literal(False)),
        ],
    ),
    Comparison(">", Arithmetic("+", ColumnRef("i"), ColumnRef("f")), Literal(2.0)),
    Comparison(">=", Arithmetic("*", ColumnRef("i"), Literal(2)), ColumnRef("f")),
]


def scalar_kept_indexes(expression, schema, rows):
    bound = expression.bind(schema)
    return [index for index, row in enumerate(rows) if bound(row)]


@pytest.mark.parametrize("expression", FILTER_EXPRESSIONS, ids=str)
def test_filter_kernels_match_scalar_semantics(expression):
    batch = mixed_batch()
    kernel = compile_filter(expression, MIXED_SCHEMA)
    expected = scalar_kept_indexes(expression, MIXED_SCHEMA, MIXED_ROWS)
    if HAVE_NUMPY:
        assert kernel is not None, f"{expression} should vectorize"
        mask = kernel(batch)
        assert mask is not None
        assert mask.nonzero()[0].tolist() == expected
    else:
        assert kernel is None
    # The Filter operator agrees with per-row evaluation either way.
    table = Table("t", MIXED_SCHEMA, rows=[list(row) for row in MIXED_ROWS])
    kept = Filter(TableScan(table), expression).run()
    assert [tuple(row) for row in kept] == [MIXED_ROWS[i] for i in expected]


EXPRESSIONS = [
    Arithmetic("+", ColumnRef("i"), Literal(10)),
    Arithmetic("-", ColumnRef("f"), ColumnRef("i")),
    Arithmetic("*", ColumnRef("i"), ColumnRef("i")),
    Arithmetic("/", ColumnRef("f"), Literal(2.0)),
    Comparison("<", ColumnRef("i"), Literal(2)),
    BooleanOp(
        "AND",
        [
            Comparison("<", ColumnRef("i"), Literal(5)),
            Comparison("=", ColumnRef("b"), Literal(True)),
        ],
    ),
]


@pytest.mark.parametrize("expression", EXPRESSIONS, ids=str)
def test_expression_kernels_match_scalar_semantics(expression):
    batch = mixed_batch()
    kernel = compile_expression(expression, MIXED_SCHEMA)
    bound = expression.bind(MIXED_SCHEMA)
    expected = [bound(row) for row in MIXED_ROWS]
    if HAVE_NUMPY:
        assert kernel is not None, f"{expression} should vectorize"
        column = kernel(batch)
        assert column is not None
        values = column.to_list()
        assert values == expected
        for value, reference in zip(values, expected):
            assert type(value) is type(reference)
    else:
        assert kernel is None


def test_division_by_zero_raises_in_both_paths():
    expression = Arithmetic("/", ColumnRef("f"), ColumnRef("i"))
    schema = Schema.of(("i", INTEGER), ("f", FLOAT), table="t")
    rows = [(2, 4.0), (0, 1.0)]
    bound = expression.bind(schema)
    with pytest.raises(ExpressionError):
        [bound(row) for row in rows]
    if HAVE_NUMPY:
        kernel = compile_expression(expression, schema)
        assert kernel is not None
        with pytest.raises(ExpressionError):
            kernel(RowBatch(rows).ensure_typed(schema))


def test_division_skips_invalid_slots():
    # A zero divisor under a NULL is never *evaluated* by the scalar path;
    # the kernel must not raise for it either.
    expression = Arithmetic("/", ColumnRef("f"), ColumnRef("i"))
    schema = Schema.of(("i", INTEGER), ("f", FLOAT), table="t")
    rows = [(2, 4.0), (0, None), (None, 8.0)]
    bound = expression.bind(schema)
    expected = [bound(row) for row in rows]
    if HAVE_NUMPY:
        kernel = compile_expression(expression, schema)
        assert kernel is not None
        assert kernel(RowBatch(rows).ensure_typed(schema)).to_list() == expected


def test_kernels_reject_unsupported_shapes():
    schema = Schema.of(("i", INTEGER), ("o", DATA_OBJECT), table="t")
    # Opaque column reference: not vectorizable.
    assert compile_filter(Comparison("=", ColumnRef("o"), Literal(1)), schema) is None
    # Bool arithmetic diverges between Python and NumPy: rejected.
    bool_schema = Schema.of(("b", BOOLEAN), table="t")
    assert (
        compile_expression(Arithmetic("+", ColumnRef("b"), ColumnRef("b")), bool_schema)
        is None
    )


def test_operators_agree_typed_vs_scalar():
    """Filter + projection over mixed data: identical output both ways."""
    expression = BooleanOp(
        "OR",
        [
            Comparison(">", ColumnRef("i"), Literal(0)),
            Comparison("<", ColumnRef("f"), Literal(0.0)),
        ],
    )
    projection = [
        ("double", Arithmetic("*", ColumnRef("i"), Literal(2)), INTEGER),
        ("shifted", Arithmetic("+", ColumnRef("f"), Literal(1.0)), FLOAT),
    ]

    def run():
        table = Table("t", MIXED_SCHEMA, rows=[list(row) for row in MIXED_ROWS])
        operator = ProjectExpressions(Filter(TableScan(table), expression), projection)
        return [tuple(row) for row in operator.run()]

    typed = run()
    with scalar_fallback():
        scalar = run()
    assert typed == scalar
    assert [tuple(map(type, row)) for row in typed] == [
        tuple(map(type, row)) for row in scalar
    ]


# ---------------------------------------------------------------------------
# Wire-trace invariance: typed vs scalar across all three strategies
# ---------------------------------------------------------------------------


NETWORK = NetworkConfig.symmetric(1_000_000.0, latency=0.001, name="typed-test")

STRATEGY_MAKERS = {
    "naive": StrategyConfig.naive,
    "semi_join": StrategyConfig.semi_join,
    "client_site_join": StrategyConfig.client_site_join,
}


def run_typed_workload(config: StrategyConfig):
    """One UDF query over typed (INTEGER/FLOAT) columns; returns its trace.

    The trace captures everything the wire did — message counts, byte
    totals and row counts per direction — plus the result multiset, so two
    runs compare end to end.
    """
    schema = Schema.of(("key", INTEGER), ("payload", FLOAT), table="t")
    rows = [[index % 7, float(index) * 1.5] for index in range(40)]
    rows[5][0] = None  # a NULL argument rides along
    table = Table("t", schema, rows=rows)

    registry = UdfRegistry()
    registry.register_function(
        "twice",
        lambda value: None if value is None else value * 2,
        result_dtype=INTEGER,
        result_size_bytes=4,
        cost_per_call_seconds=0.0001,
    )
    udf = registry.get("twice")
    context = RemoteExecutionContext.create(
        NETWORK, client=ClientRuntime(registry=registry)
    )
    operator = build_operator(
        child=TableScan(table),
        udf=udf,
        argument_columns=["t.key"],
        context=context,
        config=config,
        pushable_predicate=Comparison("<", ColumnRef(udf.result_column_name), Literal(8)),
        output_columns=["t.payload", udf.result_column_name],
    )
    result = operator.run()
    stats = context.channel_stats
    return {
        "downlink_messages": stats.downlink.message_count,
        "uplink_messages": stats.uplink.message_count,
        "downlink_bytes": stats.downlink.total_bytes,
        "uplink_bytes": stats.uplink.total_bytes,
        "rows": sorted((tuple(row) for row in result), key=repr),
        "row_count": len(result),
        "invocations": context.client.udf_invocations,
    }


@pytest.mark.parametrize("strategy", sorted(STRATEGY_MAKERS))
@pytest.mark.parametrize("batch_size", [1, 5, 32])
@pytest.mark.parametrize("overlap_window", [None, 2])
def test_wire_trace_identical_typed_vs_scalar(strategy, batch_size, overlap_window):
    config = STRATEGY_MAKERS[strategy](batch_size=batch_size)
    if overlap_window is not None:
        config = config.with_overlap_window(overlap_window)
    typed = run_typed_workload(config)
    with scalar_fallback():
        scalar = run_typed_workload(config)
    assert typed == scalar
