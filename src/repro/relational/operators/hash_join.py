"""Hash equi-join."""

from __future__ import annotations

from collections import defaultdict
from itertools import repeat
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.errors import OperatorError
from repro.relational.operators.base import Operator
from repro.relational.tuples import RowBatch


def _has_null_keys(batch: RowBatch, positions: Sequence[int]) -> bool:
    """Whether any key column of the batch holds a NULL: asked once per
    column and batch, not once per row."""
    return any(batch.column(position).count(None) for position in positions)


class HashJoin(Operator):
    """Equi-join by building a hash table on the inner (right) input.

    ``left_keys`` and ``right_keys`` are parallel lists of column names from
    the respective inputs.  NULL keys never match (SQL semantics).
    """

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_keys: Sequence[str],
        right_keys: Sequence[str],
    ) -> None:
        super().__init__([left, right])
        if len(left_keys) != len(right_keys) or not left_keys:
            raise OperatorError("HashJoin requires matching, non-empty key lists")
        self.left_keys = list(left_keys)
        self.right_keys = list(right_keys)
        left_schema = left.output_schema()
        right_schema = right.output_schema()
        self._left_positions = tuple(left_schema.index_of(name) for name in self.left_keys)
        self._right_positions = tuple(right_schema.index_of(name) for name in self.right_keys)
        self.schema = left_schema.concat(right_schema)

    def _execute_batches(self, batch_size: int) -> Iterator[RowBatch]:
        left, right = self.children
        # Build side stores plain value tuples (no Row objects); the probe
        # side collects matching left indexes so the output's left half is a
        # column-wise take that keeps typed buffers typed.
        table: Dict[Tuple, List[Tuple]] = defaultdict(list)
        for batch in right.execute_batches(batch_size):
            pairs = zip(batch.key_tuples(self._right_positions), batch.key_tuples())
            if _has_null_keys(batch, self._right_positions):
                pairs = (pair for pair in pairs if not any(value is None for value in pair[0]))
            for key, values in pairs:
                table[key].append(values)
        # Probe one input batch at a time; an output batch holds the matches
        # of one probe batch (it may be smaller or larger than batch_size
        # depending on the join fan-out).  A NULL key finds nothing: the
        # build side holds none.
        find = table.get
        for batch in left.execute_batches(batch_size):
            left_indexes: List[int] = []
            right_rows: List[Tuple] = []
            keys = batch.key_tuples(self._left_positions)
            for index, matched in enumerate(map(find, keys)):
                if matched is not None:
                    left_indexes.extend(repeat(index, len(matched)))
                    right_rows.extend(matched)
            if not left_indexes:
                yield RowBatch([])
                continue
            left_part = batch.take(left_indexes)
            right_columns = [list(values) for values in zip(*right_rows)]
            yield RowBatch.from_columns(
                list(left_part.columns) + right_columns, len(left_indexes)
            )

    def describe(self) -> str:
        pairs = ", ".join(f"{l}={r}" for l, r in zip(self.left_keys, self.right_keys))
        return f"HashJoin({pairs})"
