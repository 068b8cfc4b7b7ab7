"""Duplicate elimination.

The paper distinguishes *tuple duplicates* (identical in all columns) from
*argument duplicates* (identical only in the UDF's argument columns).
:class:`Distinct` removes tuple duplicates; argument duplicates are the
semi-join sender's business (:meth:`~repro.relational.tuples.RowBatch.encode`).

The operator is batch-native and column-wise: keys come straight off the
batch's column lists (:meth:`~repro.relational.tuples.RowBatch.key_tuples`)
and surviving rows are selected by index
(:meth:`~repro.relational.tuples.RowBatch.take`) without materialising
:class:`~repro.relational.tuples.Row` objects.
"""

from __future__ import annotations

from typing import Iterator, List, Set, Tuple

from repro.relational.operators.base import Operator
from repro.relational.tuples import RowBatch


class Distinct(Operator):
    """Removes rows identical in every column, preserving first-seen order."""

    def __init__(self, child: Operator) -> None:
        super().__init__([child])
        self.schema = child.output_schema()

    def _execute_batches(self, batch_size: int) -> Iterator[RowBatch]:
        seen: Set[Tuple] = set()
        for batch in self.child().execute_batches(batch_size):
            kept: List[int] = []
            for index, key in enumerate(batch.key_tuples()):
                if key in seen:
                    continue
                seen.add(key)
                kept.append(index)
            if kept:
                yield batch.take(kept)

    def describe(self) -> str:
        return "Distinct"
