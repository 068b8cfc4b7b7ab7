"""Projection operators: by column name and by arbitrary expression."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.relational.expressions import ColumnRef, Expression, ScalarFunction
from repro.relational.operators.base import Operator
from repro.relational.schema import Column, Schema
from repro.relational.tuples import RowBatch
from repro.relational.types import DataType, FLOAT


class Project(Operator):
    """Projects the child's output onto the named columns, in order."""

    def __init__(self, child: Operator, column_names: Sequence[str]) -> None:
        super().__init__([child])
        child_schema = child.output_schema()
        self.column_names = list(column_names)
        self._positions = tuple(child_schema.index_of(name) for name in self.column_names)
        self.schema = child_schema.select_positions(self._positions)

    def _execute_batches(self, batch_size: int) -> Iterator[RowBatch]:
        positions = self._positions
        for batch in self.child().execute_batches(batch_size):
            yield batch.project(positions)

    def describe(self) -> str:
        return f"Project({', '.join(self.column_names)})"


class ProjectExpressions(Operator):
    """Projects the child's output onto arbitrary expressions.

    Each output column is ``(name, expression, dtype)``.  Plain column
    references keep their original type; computed expressions default to
    FLOAT unless a type is supplied.
    """

    def __init__(
        self,
        child: Operator,
        outputs: Sequence[Tuple[str, Expression, Optional[DataType]]],
        functions: Optional[Dict[str, ScalarFunction]] = None,
    ) -> None:
        super().__init__([child])
        self.outputs = list(outputs)
        self.functions = functions or {}
        child_schema = child.output_schema()
        columns: List[Column] = []
        for name, expression, dtype in self.outputs:
            if dtype is None:
                if isinstance(expression, ColumnRef):
                    dtype = child_schema.column(expression.name).dtype
                else:
                    dtype = FLOAT
            columns.append(Column(name, dtype))
        self.schema = Schema(columns)

    def _execute_batches(self, batch_size: int) -> Iterator[RowBatch]:
        # Per-output plans, resolved once: a plain column reference shares the
        # child's column list, anything else evaluates over plain value tuples.
        child_schema = self.child().output_schema()
        plans = []
        for _, expression, _ in self.outputs:
            if isinstance(expression, ColumnRef):
                plans.append((child_schema.index_of(expression.name), None))
            else:
                plans.append((None, expression))
        bound_cache: dict = {}
        for batch in self.child().execute_batches(batch_size):
            columns = []
            tuples = None
            for index, (position, expression) in enumerate(plans):
                if position is not None:
                    columns.append(batch.columns[position])
                    continue
                bound = bound_cache.get(index)
                if bound is None:
                    bound = bound_cache[index] = expression.bind(
                        child_schema, self.functions
                    )
                if tuples is None:
                    tuples = batch.key_tuples()
                columns.append([bound(values) for values in tuples])
            yield RowBatch.from_columns(columns, len(batch))

    def describe(self) -> str:
        parts = ", ".join(f"{expr} AS {name}" for name, expr, _ in self.outputs)
        return f"ProjectExpressions({parts})"
