"""Sort operator (blocking)."""

from __future__ import annotations

from typing import Iterator, List, Sequence, Union

from repro.relational.keys import KeyCodes
from repro.relational.operators.base import Operator, OperatorError
from repro.relational.tuples import RowBatch, concat_batches


class Sort(Operator):
    """Sorts the child's output on the given columns.

    A column is given by name, or by its position in the child's schema —
    two outputs of a query may share a name, its ``ORDER BY`` keys are
    positions.  ``descending`` is one flag for the whole ordering or one per
    column (``ORDER BY a DESC, b ASC``).  NULLs order lowest: first
    ascending, last descending.
    """

    def __init__(
        self,
        child: Operator,
        columns: Sequence[Union[str, int]],
        descending: Union[bool, Sequence[bool]] = False,
    ) -> None:
        super().__init__([child])
        self.schema = child.output_schema()
        self._positions = tuple(
            column if isinstance(column, int) else self.schema.index_of(column)
            for column in columns
        )
        self.column_names = [
            self.schema[column].name if isinstance(column, int) else column for column in columns
        ]
        if isinstance(descending, bool):
            descending = [descending] * len(self.column_names)
        self.descending = [bool(flag) for flag in descending]
        if len(self.descending) != len(self.column_names):
            raise OperatorError("Sort needs one direction per column")

    def _execute_batches(self, batch_size: int) -> Iterator[RowBatch]:
        batch = concat_batches(
            list(self.child().execute_batches(batch_size)),
            column_count=len(self.schema),
        )
        if not len(batch):
            return
        order = self._sort_order(batch)
        result = batch.take(order)
        for start in range(0, len(result), batch_size):
            yield result.slice(start, start + batch_size)

    def _sort_order(self, batch: RowBatch) -> List[int]:
        """Row order after sorting, computed on key columns only.

        A stable sort with the NULLs-first key (:meth:`KeyCodes.order`): once
        over the whole key when every column runs the same way, else one
        stable pass per column from the last to the first.
        """
        positions = self._positions
        if not positions:
            return list(range(len(batch)))
        if len(set(self.descending)) > 1:
            order = list(range(len(batch)))
            for position, descending in reversed(list(zip(positions, self.descending))):
                values = list(map(batch.column(position).__getitem__, order))
                keys = KeyCodes.of_columns([values], len(values))
                order = [order[place] for place in keys.order(reverse=descending)]
            return order
        return batch.encode(positions).order(reverse=self.descending[0])

    def describe(self) -> str:
        keys = (
            name + (" DESC" if descending else "")
            for name, descending in zip(self.column_names, self.descending)
        )
        return f"Sort({', '.join(keys)})"
