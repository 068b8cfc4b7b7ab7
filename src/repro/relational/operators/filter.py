"""Selection (filter) operator."""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro.relational.expressions import Expression, ScalarFunction
from repro.relational.operators.base import Operator
from repro.relational.tuples import RowBatch


class Filter(Operator):
    """Passes through rows for which the predicate evaluates to true.

    SQL three-valued logic applies: rows where the predicate evaluates to
    NULL are dropped, as are rows where it is false.

    ``observe_selectivity=False`` marks a filter whose pass-through rate is
    not its predicate's base-table selectivity (a re-check above an index
    scan, a residual above an index nested-loop join), so the runtime
    observer does not record it as one.
    """

    def __init__(
        self,
        child: Operator,
        predicate: Expression,
        functions: Optional[Dict[str, ScalarFunction]] = None,
        observe_selectivity: bool = True,
    ) -> None:
        super().__init__([child])
        self.predicate = predicate
        self.functions = functions or {}
        self.observe_selectivity = observe_selectivity
        self.schema = child.output_schema()

    def _execute_batches(self, batch_size: int) -> Iterator[RowBatch]:
        bound = None
        for batch in self.child().execute_batches(batch_size):
            if bound is None:
                bound = self.predicate.bind(self.schema, self.functions)
            yield batch.filter(bound)

    described = ("predicate",)

    def describe(self) -> str:
        return f"Filter({self.predicate})"
