"""Row batches and byte-accurate row sizing.

A row is a plain tuple aligned with some :class:`Schema`; all positional
access goes through schema lookups performed once per operator (not once per
row).

:class:`RowBatch` is the unit of the vectorized (batch-at-a-time) execution
protocol: an ordered run of rows, stored as its columns, that operators hand
to each other and that the execution strategies ship over the network in a
single message.  Batches carry no schema of their own — like rows, they are
aligned with the producing operator's schema.

Every column of a batch is a plain Python list of plain values: there is
one data plane, and the values an operator reads are the values SQL
semantics are defined on (Python ints never wrap, an int compares with a
float exactly).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.relational.keys import KeyCodes
from repro.relational.schema import Schema
from repro.relational.types import value_size, value_sizes

#: Default number of rows per batch in batch-at-a-time operator execution.
#: Large enough to amortise per-batch overhead, small enough that partially
#: consumed pipelines (LIMIT) do not overshoot badly.
DEFAULT_BATCH_SIZE = 1024

class RowBatch:
    """An ordered run of rows processed as one unit by batch operators.

    A batch is its columns: one plain Python list per column — so projection
    selects column references (O(columns), no per-row objects), predicates
    walk plain value tuples, and wire sizing prices fixed-width columns
    arithmetically.  Built from rows, the batch transposes them once; its
    rows are a tuple per row, built from the columns only when a consumer
    asks for them (a query's result rows, row-at-a-time operators) and
    cached.  Batches are immutable by convention: every operation builds a
    new batch, and column lists may be shared between batches, so callers
    must never mutate ``rows`` or ``columns``.
    """

    __slots__ = ("_rows", "_columns", "_length", "_size_memo")

    def __init__(self, rows: Iterable[Sequence[Any]]) -> None:
        materialised = rows if isinstance(rows, list) else list(rows)
        self._rows: Optional[List[Tuple[Any, ...]]] = None
        self._columns: List[List[Any]] = (
            columns_of(materialised, len(materialised[0])) if materialised else []
        )
        self._length = len(materialised)
        self._size_memo: Optional[Tuple[Schema, int]] = None

    @classmethod
    def from_columns(
        cls, columns: Sequence[Sequence[Any]], length: Optional[int] = None
    ) -> "RowBatch":
        """A batch over pre-built column lists (not copied — do not mutate)."""
        batch = cls.__new__(cls)
        column_list = [
            column if isinstance(column, list) else list(column) for column in columns
        ]
        batch._rows = None
        batch._columns = column_list
        batch._length = length if length is not None else (
            len(column_list[0]) if column_list else 0
        )
        batch._size_memo = None
        return batch

    # -- representations ---------------------------------------------------------

    @property
    def rows(self) -> List[Tuple[Any, ...]]:
        """The batch as one plain tuple per row, built lazily and cached."""
        rows = self._rows
        if rows is None:
            rows = self._rows = self.key_tuples()
        return rows

    @property
    def columns(self) -> List[List[Any]]:
        """The batch's column lists."""
        return self._columns

    def column(self, position: int) -> List[Any]:
        """One column's values, in row order."""
        return self._columns[position]

    # -- container protocol ------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        return iter(self.rows)

    def __bool__(self) -> bool:
        return self._length > 0

    def __getitem__(self, index):
        if isinstance(index, slice) or not self._columns:
            return self.rows[index]
        return tuple([column[index] for column in self._columns])

    # -- column-wise operations --------------------------------------------------

    def take(self, indexes: Sequence[int]) -> "RowBatch":
        """The batch restricted to the rows at ``indexes``, column-wise.

        ``indexes`` may select, drop, duplicate, or reorder rows; selecting
        every row in order returns the batch itself.
        """
        if len(indexes) == self._length and all(
            index == position for position, index in enumerate(indexes)
        ):
            return self
        return RowBatch.from_columns(
            [[column[index] for index in indexes] for column in self.columns], len(indexes)
        )

    def key_tuples(self, positions: Optional[Sequence[int]] = None) -> List[Tuple[Any, ...]]:
        """Per-row value tuples over ``positions`` (all columns when ``None``).

        For where a tuple per row is the product — duplicate elimination and
        the client's argument tuples (joins and key codes read the columns):
        values come straight off the column buffers as plain Python scalars,
        and a zero-width key yields one empty tuple per row.
        """
        if not self._length:
            return []
        columns = self.columns
        if positions is not None:
            columns = [columns[position] for position in positions]
        if not columns:
            return [()] * self._length
        return list(zip(*columns))

    def encode(self, positions: Optional[Sequence[int]] = None) -> KeyCodes:
        """The rows' keys over ``positions`` as dense integer codes.

        One hash pass per key column, no tuple per row; consumers that
        group, order, deduplicate or size by key then work on the codes and
        on the distinct keys only.
        """
        if not self._length:
            return KeyCodes([], [], [])
        columns = self.columns
        if positions is not None:
            columns = [columns[position] for position in positions]
        return KeyCodes.of_columns(columns, self._length)

    def project(self, positions: Sequence[int]) -> "RowBatch":
        """A new batch containing only the columns at ``positions``.

        Column-wise: the new batch shares the selected column buffers, so a
        mid-chain projection costs O(columns), not O(rows x columns).
        """
        if not self._length:
            return RowBatch([])
        columns = self.columns
        return RowBatch.from_columns(
            [columns[position] for position in positions], self._length
        )

    def filter(self, keep: Callable[[Sequence[Any]], Any]) -> "RowBatch":
        """A new batch containing only the rows for which ``keep`` is truthy.

        ``keep`` receives each row as a plain value tuple.
        """
        if not self._length:
            return RowBatch([])
        return self.take([index for index, row in enumerate(self.rows) if keep(row)])

    def slice(self, start: int, stop: int) -> "RowBatch":
        """The batch restricted to rows ``start:stop`` (column-wise).

        Each column list is sliced, so chunking a large batch for shipping
        never materialises rows.
        """
        length = max(0, min(stop, self._length) - max(0, start))
        return RowBatch.from_columns([column[start:stop] for column in self._columns], length)

    # -- sizing -------------------------------------------------------------------

    def _summed_sizes(self, sized_columns: Iterable[List[int]]) -> List[int]:
        """Per-row sums of per-column size lists (one size per row each)."""
        sizes = list(sized_columns)
        if not sizes:
            return [0] * self._length
        return sizes[0] if len(sizes) == 1 else list(map(sum, zip(*sizes)))

    def size_bytes(self, schema: Schema) -> int:
        """Total wire size of the batch's rows under ``schema``.

        Fixed-width columns are priced from the schema's cached size plan —
        ``width x non-NULL count`` plus one byte per NULL — in one arithmetic
        step per column; variable-width columns are sized in bulk
        (:meth:`DataType.serialized_sizes`).  The result is memoized per
        schema, so repeated costing of the same batch payload does not re-sum.
        """
        if not self._length:
            return 0
        memo = self._size_memo
        if memo is not None and memo[0] is schema:
            return memo[1]
        fixed, variable = schema.size_plan()
        columns = self.columns
        total = 0
        for position, width in fixed:
            column = columns[position]
            nulls = column.count(None)
            total += width * (len(column) - nulls) + nulls
        for position in variable:
            dtype = schema.columns[position].dtype
            total += sum(dtype.serialized_sizes(columns[position]))
        self._size_memo = (schema, total)
        return total

    def values_bytes(self) -> int:
        """Value-based wire size of the whole batch (``values_size`` row sum).

        Identical to ``sum(values_size(row) for row in batch)``, summed a
        column at a time instead of a row at a time.
        """
        return sum(sum(value_sizes(column)) for column in self.columns)

    def row_sizes(self, schema: Schema) -> List[int]:
        """Per-row wire sizes under ``schema`` (one int per row, in row order).

        Each entry equals ``row_size(row, schema)``, from one
        :meth:`DataType.serialized_sizes` call per column.
        """
        if not self._length:
            return []
        return self._summed_sizes(
            column.dtype.serialized_sizes(values)
            for values, column in zip(self.columns, schema.columns)
        )

    def value_sizes(self, positions: Sequence[int]) -> List[int]:
        """Per-row value-based sizes over ``positions``.

        Each entry equals ``values_size`` of that row's values at
        ``positions`` — the accounting used for UDF argument payloads —
        from one :func:`~repro.relational.types.value_sizes` call per column.
        """
        if not self._length:
            return []
        return self._summed_sizes(value_sizes(self.columns[position]) for position in positions)

    def __repr__(self) -> str:
        return f"RowBatch({self._length} rows)"


def concat_batches(
    batches: Sequence[RowBatch], column_count: Optional[int] = None
) -> RowBatch:
    """Concatenate batches column-wise into one batch.

    With no (non-empty) input batches the result is empty; ``column_count`` pins
    the column structure for zero-column inputs whose length still matters.
    """
    non_empty = [batch for batch in batches if len(batch)]
    if not non_empty:
        return RowBatch([])
    if len(non_empty) == 1:
        return non_empty[0]
    total = sum(len(batch) for batch in non_empty)
    width = column_count if column_count is not None else len(non_empty[0].columns)
    if width == 0:
        return RowBatch.from_columns([], total)
    merged: List[List[Any]] = []
    for position in range(width):
        values: List[Any] = []
        for batch in non_empty:
            values.extend(batch.columns[position])
        merged.append(values)
    return RowBatch.from_columns(merged, total)


def columns_of(rows: Sequence[Sequence[Any]], width: int) -> List[List[Any]]:
    """The ``width`` column lists of ``rows``: one C-level pass per column,
    where transposing through ``zip`` would allocate an iterator per row."""
    return [list(map(itemgetter(position), rows)) for position in range(width)]


def batches_of(rows: Iterable[Tuple[Any, ...]], batch_size: int) -> Iterator[RowBatch]:
    """Chunk a row stream into :class:`RowBatch` es of at most ``batch_size``.

    The chunker pulls lazily: it never draws more than one batch ahead of the
    consumer, so partially consumed pipelines stop early.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    pending: List[Tuple[Any, ...]] = []
    for row in rows:
        pending.append(row)
        if len(pending) >= batch_size:
            yield RowBatch(pending)
            pending = []
    if pending:
        yield RowBatch(pending)


def row_size(row: Sequence[Any], schema: Schema) -> int:
    """Wire size of ``row`` in bytes under ``schema``'s column types."""
    return sum(
        column.dtype.serialized_size(value) for column, value in zip(schema.columns, row)
    )


def values_size(values: Sequence[Any]) -> int:
    """Wire size of a bag of values whose types are not statically known."""
    return sum(value_size(value) for value in values)
