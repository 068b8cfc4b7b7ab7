"""Selection (filter) operator."""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro.relational.expressions import Expression, ScalarFunction
from repro.relational.kernels import compile_filter
from repro.relational.operators.base import Operator
from repro.relational.tuples import RowBatch


class Filter(Operator):
    """Passes through rows for which the predicate evaluates to true.

    SQL three-valued logic applies: rows where the predicate evaluates to
    NULL are dropped, as are rows where it is false.

    When the predicate compiles to a vectorized kernel, each batch is
    evaluated column-at-a-time and rows are kept by mask; batches whose
    columns are not typed (and predicates that cannot be vectorized) take
    the scalar row-at-a-time path with identical semantics.

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
        kernel = compile_filter(self.predicate, self.schema)
        bound = None
        for batch in self.child().execute_batches(batch_size):
            if kernel is not None:
                mask = kernel(batch)
                if mask is not None:
                    yield batch.take_mask(mask)
                    continue
            if bound is None:
                bound = self.predicate.bind(self.schema, self.functions)
            yield batch.filter(bound)

    def describe(self) -> str:
        return f"Filter({self.predicate})"
