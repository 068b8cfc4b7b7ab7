"""Hash equi-join."""

from __future__ import annotations

from collections import defaultdict
from itertools import repeat
from typing import Any, Callable, Dict, Iterator, List, Sequence

from repro.errors import OperatorError
from repro.relational.keys import column_codes, combine_codes, known_codes
from repro.relational.operators.base import Operator
from repro.relational.tuples import RowBatch, concat_batches


class HashJoin(Operator):
    """Equi-join by building a hash table on the inner (right) input.

    ``left_keys`` and ``right_keys`` are parallel lists of column names from
    the respective inputs.  NULL keys never match (SQL semantics).

    The table maps a key to its rows' indexes in the concatenated build side:
    a one-column key is the value; several combine each column's code among
    the build side's values (negative, so unmatched, where a probe value has
    none).  NULL is dropped from both.  Output: probe order, then build order.
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

    @staticmethod
    def _keys(batch: RowBatch, positions: Sequence[int], indexes: List[dict], code: Callable):
        """One key per row: the value, or combined ``code(values, index)`` per column."""
        if not batch:
            return []
        if len(positions) == 1:
            return batch.column(positions[0])
        return combine_codes([code(batch.column(p), i) for p, i in zip(positions, indexes)])

    def _execute_batches(self, batch_size: int) -> Iterator[RowBatch]:
        left, right = self.children
        build = concat_batches(list(right.execute_batches(batch_size)), len(right.output_schema()))
        indexes: List[Dict[Any, int]] = [{} for _ in self._right_positions]
        table: Dict[Any, List[int]] = defaultdict(list)
        for row, key in enumerate(self._keys(build, self._right_positions, indexes, column_codes)):
            table[key].append(row)
        for mapping in (table, *indexes):
            mapping.pop(None, None)
        # An output batch holds the matches of one probe batch.
        find = table.get
        for batch in left.execute_batches(batch_size):
            left_indexes, right_indexes = [], []
            probe = self._keys(batch, self._left_positions, indexes, known_codes)
            for index, matched in enumerate(map(find, probe)):
                if matched is not None:
                    left_indexes.extend(repeat(index, len(matched)))
                    right_indexes.extend(matched)
            if left_indexes:
                yield RowBatch.from_columns(
                    batch.take(left_indexes).columns + build.take(right_indexes).columns,
                    len(left_indexes),
                )

    def describe(self) -> str:
        pairs = ", ".join(f"{l}={r}" for l, r in zip(self.left_keys, self.right_keys))
        return f"HashJoin({pairs})"
