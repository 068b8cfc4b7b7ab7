"""Sort operator (blocking)."""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.relational import columns as typed_columns
from repro.relational.columns import vectorization_enabled
from repro.relational.operators.base import Operator
from repro.relational.tuples import RowBatch, concat_batches


class _NullsFirstKey:
    """Sort key wrapper ordering None before any value, per column."""

    __slots__ = ("values",)

    def __init__(self, values: Tuple) -> None:
        self.values = values

    def __lt__(self, other: "_NullsFirstKey") -> bool:
        for a, b in zip(self.values, other.values):
            if a is None and b is None:
                continue
            if a is None:
                return True
            if b is None:
                return False
            if a == b:
                continue
            return a < b
        return False


def _rank_keys(keys: Sequence[Tuple]) -> Optional[List]:
    """Per-row integer sort keys ordering like :class:`_NullsFirstKey`, or ``None``.

    Each key column's distinct values are sorted once (NULL ranks lowest) and
    every row gets the rank of its value; multi-column keys become tuples of
    ranks.  ``None`` when a value is unhashable or a NaN (not equal to
    itself, so its place depends on the comparisons a sort happens to make).
    """
    rank_columns = []
    for column in zip(*keys):
        try:
            distinct = set(column)
        except TypeError:
            return None
        distinct.discard(None)
        if any(value != value for value in distinct):
            return None
        rank = {value: position for position, value in enumerate(sorted(distinct), start=1)}
        rank[None] = 0
        rank_columns.append([rank[value] for value in column])
    if len(rank_columns) == 1:
        return rank_columns[0]
    return list(zip(*rank_columns))


def nulls_first_order(keys: Sequence[Tuple], reverse: bool = False) -> List[int]:
    """Stable row order of ``keys`` (one tuple per row), NULLs first.

    Equal to ``sorted(range(n), key=lambda i: _NullsFirstKey(keys[i]))``,
    which costs a Python-level ``__lt__`` per comparison of two *rows*; here
    only distinct *values* are compared, and the rows are ordered by integer
    rank.  Keys that cannot be ranked take the wrapper path.
    """
    ranks = _rank_keys(keys)
    if ranks is None:
        ranks = [_NullsFirstKey(key) for key in keys]
    return sorted(range(len(keys)), key=ranks.__getitem__, reverse=reverse)


class Sort(Operator):
    """Sorts the child's output on the named columns.

    ``descending`` flips the whole ordering (per-column direction mixing is
    not needed by the paper's plans and is intentionally omitted).
    """

    def __init__(self, child: Operator, column_names: Sequence[str], descending: bool = False) -> None:
        super().__init__([child])
        self.column_names = list(column_names)
        self.descending = descending
        self.schema = child.output_schema()
        self._positions = tuple(self.schema.index_of(name) for name in self.column_names)

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

        Single typed NULL-free ascending keys argsort in NumPy (stable, like
        ``list.sort``); everything else — multi-key, descending, NULLs,
        untyped columns, NaNs (whose ordering must match Python's) — uses the
        stable scalar sort with the NULLs-first key (:func:`nulls_first_order`).
        """
        positions = self._positions
        if not positions:
            return list(range(len(batch)))
        if len(positions) == 1 and not self.descending and vectorization_enabled():
            column = batch.typed_column(positions[0])
            if column is not None and column.null_count == 0:
                data = column.data
                np = typed_columns.np
                if column.dtype_name != "FLOAT" or not np.isnan(data).any():
                    return np.argsort(data, kind="stable").tolist()
        key_columns = [batch.column_values(position) for position in positions]
        return nulls_first_order(list(zip(*key_columns)), reverse=self.descending)

    def describe(self) -> str:
        direction = " DESC" if self.descending else ""
        return f"Sort({', '.join(self.column_names)}{direction})"
