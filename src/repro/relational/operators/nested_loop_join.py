"""Nested-loops join, with an arbitrary join predicate."""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional, Tuple

from repro.relational.expressions import Expression, ScalarFunction
from repro.relational.operators.base import Operator


class NestedLoopJoin(Operator):
    """Joins two inputs by materialising the inner and probing per outer row.

    With ``predicate=None`` this is a cross product.  The predicate is
    evaluated over the concatenated schema (outer columns then inner columns).
    """

    def __init__(
        self,
        outer: Operator,
        inner: Operator,
        predicate: Optional[Expression] = None,
        functions: Optional[Dict[str, ScalarFunction]] = None,
    ) -> None:
        super().__init__([outer, inner])
        self.predicate = predicate
        self.functions = functions or {}
        self.schema = outer.output_schema().concat(inner.output_schema())

    def _execute(self) -> Iterator[Tuple[Any, ...]]:
        outer, inner = self.children
        inner_rows = list(inner.execute())
        bound = (
            self.predicate.bind(self.schema, self.functions)
            if self.predicate is not None
            else None
        )
        for outer_row in outer.execute():
            for inner_row in inner_rows:
                joined = outer_row + inner_row
                if bound is None or bound(joined):
                    yield joined

    described = ("predicate",)

    def describe(self) -> str:
        return f"NestedLoopJoin({self.predicate if self.predicate else 'CROSS'})"
