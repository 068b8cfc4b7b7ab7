"""Predicate analysis: selectivity estimation and join detection.

This module provides the static analyses the optimizer needs:

* :func:`estimate_selectivity` — textbook selectivity estimation from column
  statistics (1/V(A) for equality, 1/3 for ranges, independence for AND/OR);
* :func:`equi_join_sides` / :func:`columns_covered` — which column of an
  equality each side of a join holds, and whether a set of available
  columns holds a predicate's columns;
* :class:`PredicateInfo` — per-conjunct metadata: referenced columns, UDF
  calls and estimated selectivity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Set, Tuple

from repro.relational.expressions import (
    BooleanOp,
    ColumnRef,
    Comparison,
    Expression,
    FunctionCall,
    Literal,
)
from repro.relational.schema import bare_name
from repro.relational.statistics import TableStatistics

#: Default selectivities used when statistics cannot answer.
DEFAULT_EQUALITY_SELECTIVITY = 0.1
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
DEFAULT_SELECTIVITY = 0.5


def estimate_selectivity(
    expression: Optional[Expression],
    statistics: Optional[TableStatistics] = None,
    udf_selectivities: Optional[Dict[str, float]] = None,
) -> float:
    """Estimate the fraction of rows satisfying ``expression``.

    ``udf_selectivities`` maps UDF names to externally supplied selectivities
    (the paper's experiments vary the selectivity of the pushable predicate
    ``UDF1`` explicitly).
    """
    if expression is None:
        return 1.0
    udf_selectivities = udf_selectivities or {}

    if isinstance(expression, BooleanOp):
        child = [
            estimate_selectivity(operand, statistics, udf_selectivities)
            for operand in expression.operands
        ]
        if expression.operator == "AND":
            product = 1.0
            for value in child:
                product *= value
            return product
        if expression.operator == "OR":
            complement = 1.0
            for value in child:
                complement *= 1.0 - value
            return 1.0 - complement
        return max(0.0, 1.0 - child[0])

    if isinstance(expression, Comparison):
        return _comparison_selectivity(expression, statistics, udf_selectivities)

    if isinstance(expression, FunctionCall):
        # A bare boolean UDF used as a predicate.
        return udf_selectivities.get(
            expression.name, udf_selectivities.get(expression.name.lower(), DEFAULT_SELECTIVITY)
        )

    if isinstance(expression, Literal):
        return 1.0 if expression.value else 0.0

    return DEFAULT_SELECTIVITY


def _comparison_selectivity(
    expression: Comparison,
    statistics: Optional[TableStatistics],
    udf_selectivities: Dict[str, float],
) -> float:
    calls = expression.function_calls()
    if calls:
        # Comparisons on a UDF result, e.g. ClientAnalysis(x) > 500: defer to
        # a per-UDF selectivity if given.
        for call in calls:
            if call.name in udf_selectivities:
                return udf_selectivities[call.name]
            if call.name.lower() in udf_selectivities:
                return udf_selectivities[call.name.lower()]
        return DEFAULT_SELECTIVITY

    if expression.operator in ("=",):
        column = _single_column_vs_literal(expression)
        if column and statistics is not None:
            distinct = statistics.column(column).distinct_count
            if distinct > 0:
                return 1.0 / distinct
        return DEFAULT_EQUALITY_SELECTIVITY
    if expression.operator in ("<>", "!="):
        return 1.0 - _comparison_selectivity(
            Comparison("=", expression.left, expression.right), statistics, udf_selectivities
        )
    if statistics is not None:
        estimate = _histogram_range_selectivity(expression, statistics)
        if estimate is not None:
            return estimate
    return DEFAULT_RANGE_SELECTIVITY


def _histogram_range_selectivity(
    expression: Comparison, statistics: TableStatistics
) -> Optional[float]:
    """Histogram-based selectivity of a column-vs-literal range comparison.

    Returns ``None`` when the comparison is not a single column against a
    numeric literal, or when the column's statistics carry no histogram —
    the flat :data:`DEFAULT_RANGE_SELECTIVITY` then applies, which keeps
    estimates without statistics exactly as before.
    """
    left, right = expression.left, expression.right
    if isinstance(left, ColumnRef) and isinstance(right, Literal):
        column, literal, operator = left.name, right.value, expression.operator
    elif isinstance(right, ColumnRef) and isinstance(left, Literal):
        # Flip ``literal OP column`` into ``column OP' literal``.
        flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
        column, literal = right.name, left.value
        operator = flipped.get(expression.operator, expression.operator)
    else:
        return None
    if isinstance(literal, bool) or not isinstance(literal, (int, float)):
        return None
    histogram = statistics.column(column).histogram
    if histogram is None or histogram.total <= 0:
        return None
    below = histogram.fraction_below(float(literal))
    if operator in ("<", "<="):
        estimate = below
    elif operator in (">", ">="):
        estimate = 1.0 - below
    else:
        return None
    return min(1.0, max(0.0, estimate))


def _single_column_vs_literal(expression: Comparison) -> Optional[str]:
    """Return the column name when the comparison is column-vs-literal."""
    left, right = expression.left, expression.right
    if isinstance(left, ColumnRef) and isinstance(right, Literal):
        return left.name
    if isinstance(right, ColumnRef) and isinstance(left, Literal):
        return right.name
    return None


@dataclass(frozen=True)
class IndexCondition:
    """A column-vs-literal comparison an index could serve.

    ``column`` is the name as written (possibly table-qualified),
    ``operator`` one of ``=``, ``<``, ``<=``, ``>``, ``>=`` with the column
    on the left (literal-op-column comparisons are flipped).
    """

    column: str
    operator: str
    value: object

    @property
    def is_equality(self) -> bool:
        return self.operator == "="


_INDEXABLE_OPERATORS = {"=", "<", "<=", ">", ">="}
_FLIPPED_OPERATORS = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}


def index_condition(expression: Expression) -> Optional[IndexCondition]:
    """The :class:`IndexCondition` of ``expression``, or None.

    Only UDF-free column-vs-literal comparisons with a non-NULL literal
    qualify (``col = NULL`` never matches under three-valued logic, and an
    index never stores NULL keys anyway).
    """
    if not isinstance(expression, Comparison):
        return None
    if expression.operator not in _INDEXABLE_OPERATORS:
        return None
    if expression.function_calls():
        return None
    left, right = expression.left, expression.right
    if isinstance(left, ColumnRef) and isinstance(right, Literal):
        column, operator, value = left.name, expression.operator, right.value
    elif isinstance(right, ColumnRef) and isinstance(left, Literal):
        column, operator, value = (
            right.name,
            _FLIPPED_OPERATORS[expression.operator],
            left.value,
        )
    else:
        return None
    if value is None:
        return None
    return IndexCondition(column=column, operator=operator, value=value)


def equi_join_sides(
    expression: Expression, left_columns: Set[str], right_columns: Set[str]
) -> Optional[Tuple[str, str]]:
    """``(left, right)``: the column names of a two-column equality, the one
    ``left_columns`` holds first, however it is written; None when it is no
    such equality or the two sides do not hold one column each."""
    if not isinstance(expression, Comparison) or expression.operator != "=":
        return None
    if expression.function_calls():
        return None
    left, right = expression.left, expression.right
    if not (isinstance(left, ColumnRef) and isinstance(right, ColumnRef)):
        return None
    for one, other in ((left.name, right.name), (right.name, left.name)):
        if _covered(one, left_columns) and _covered(other, right_columns):
            return one, other
    return None


def _covered(name: str, available: Set[str]) -> bool:
    """True when ``available`` holds the column ``name`` refers to.

    A qualified name is covered by itself or by an *unqualified* column of
    that bare name — never by another qualifier's column of the same name
    (``B.Y`` is not ``C.Y``); an unqualified name by any column so named.
    """
    if name in available:
        return True
    if "." in name:
        return bare_name(name) in available
    return any(bare_name(candidate) == name for candidate in available)


def columns_covered(required: FrozenSet[str], available: Set[str]) -> bool:
    """True when every column in ``required`` is present in ``available``."""
    return all(_covered(name, available) for name in required)


@dataclass
class PredicateInfo:
    """Metadata for a single conjunct of a WHERE clause."""

    expression: Expression
    columns: FrozenSet[str] = field(default_factory=frozenset)
    udf_names: Tuple[str, ...] = ()
    selectivity: float = DEFAULT_SELECTIVITY

    @classmethod
    def analyze(
        cls,
        expression: Expression,
        statistics: Optional[TableStatistics] = None,
        udf_selectivities: Optional[Dict[str, float]] = None,
    ) -> "PredicateInfo":
        return cls(
            expression=expression,
            columns=expression.columns(),
            udf_names=tuple(call.name for call in expression.function_calls()),
            selectivity=estimate_selectivity(expression, statistics, udf_selectivities),
        )

    @property
    def references_udf(self) -> bool:
        return bool(self.udf_names)

    def __str__(self) -> str:
        return str(self.expression)
