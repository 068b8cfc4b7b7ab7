"""Row and row-batch representations and byte-accurate row sizing.

Rows are plain immutable tuples wrapped in a tiny :class:`Row` subclass so
they stay cheap to create and hashable, while still reading clearly in
operator code.  All positional access goes through schema lookups performed
once per operator (not once per row).

:class:`RowBatch` is the unit of the vectorized (batch-at-a-time) execution
protocol: an ordered slice of rows that operators hand to each other and that
the execution strategies ship over the network in a single message.  Batches
carry no schema of their own — like rows, they are aligned with the producing
operator's schema.

A batch's column entries are either plain Python lists or
:class:`~repro.relational.columns.TypedColumn` buffers (fixed-width columns
upgraded via :meth:`RowBatch.ensure_typed`).  Both kinds support the same
read protocol (``len``, indexing, iteration, ``count``), so operator code
that walks values works unchanged, while kernels and sizing take the typed
fast path when it is available.
"""

from __future__ import annotations

from itertools import compress
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.relational.columns import TypedColumn, build_typed_column
from repro.relational.keys import KeyCodes
from repro.relational.schema import Schema
from repro.relational.types import value_size, value_sizes

#: Default number of rows per batch in batch-at-a-time operator execution.
#: Large enough to amortise per-batch overhead, small enough that partially
#: consumed pipelines (LIMIT) do not overshoot badly.
DEFAULT_BATCH_SIZE = 1024

#: One column of a batch: a plain value list or a typed buffer.
ColumnData = Union[List[Any], TypedColumn]


class Row(tuple):
    """An immutable row of values aligned with some :class:`Schema`."""

    __slots__ = ()

    def __new__(cls, values: Iterable[Any]) -> "Row":
        return super().__new__(cls, tuple(values))

    def project(self, positions: Sequence[int]) -> "Row":
        """Return a row containing only the values at ``positions``."""
        return Row(self[position] for position in positions)

    def concat(self, other: Sequence[Any]) -> "Row":
        """Return this row followed by ``other`` (used by joins)."""
        return Row(tuple(self) + tuple(other))

    def append(self, value: Any) -> "Row":
        """Return this row with ``value`` added at the end (UDF result)."""
        return Row(tuple(self) + (value,))

    def replace(self, position: int, value: Any) -> "Row":
        values = list(self)
        values[position] = value
        return Row(values)

    def as_dict(self, schema: Schema) -> Dict[str, Any]:
        """Map qualified column names to values (for display and tests)."""
        return dict(zip(schema.qualified_names(), self))


def _as_list(column: ColumnData) -> List[Any]:
    """A column's values as a plain list (cached inside typed columns)."""
    return column.to_list() if isinstance(column, TypedColumn) else column


def _null_free_typed(column: ColumnData) -> bool:
    """Whether every row sizes alike: the strict builders guarantee a typed
    column's non-NULL values size at exactly its width, by schema and by value."""
    return isinstance(column, TypedColumn) and column.null_count == 0


class RowBatch:
    """An ordered run of rows processed as one unit by batch operators.

    Storage is *columnar*: the batch holds one column buffer per column — a
    plain Python list, or a :class:`TypedColumn` for fixed-width data — so
    projection selects column references (O(columns), no per-row objects),
    predicate evaluation runs vectorized kernels or walks plain value tuples,
    and wire sizing prices fixed-width columns arithmetically.  Rows are
    materialised lazily — only when a consumer actually asks for
    :class:`Row` objects (the client/UDF shipping boundary, joins that build
    concatenated rows) — and cached, so a batch constructed from rows and
    only ever read as rows never transposes.  Batches are immutable by
    convention: every operation builds a new batch, and column buffers may be
    shared between batches, so callers must never mutate ``rows`` or
    ``columns``.
    """

    __slots__ = ("_rows", "_columns", "_length", "_size_memo")

    def __init__(self, rows: Iterable[Row]) -> None:
        materialised = rows if isinstance(rows, list) else list(rows)
        self._rows: Optional[List[Row]] = materialised
        self._columns: Optional[List[ColumnData]] = None
        self._length = len(materialised)
        self._size_memo: Optional[Tuple[Schema, int]] = None

    @classmethod
    def from_columns(
        cls, columns: Sequence[ColumnData], length: Optional[int] = None
    ) -> "RowBatch":
        """A batch over pre-built column buffers (not copied — do not mutate)."""
        batch = cls.__new__(cls)
        column_list = [
            column if isinstance(column, (list, TypedColumn)) else list(column)
            for column in columns
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
    def rows(self) -> List[Row]:
        """The batch as :class:`Row` objects, materialised lazily and cached."""
        rows = self._rows
        if rows is None:
            if self._columns:
                values_lists = [_as_list(column) for column in self._columns]
                rows = [Row(values) for values in zip(*values_lists)]
            else:
                rows = [Row(()) for _ in range(self._length)]
            self._rows = rows
        return rows

    @property
    def columns(self) -> List[ColumnData]:
        """The batch as column buffers, transposed lazily and cached."""
        columns = self._columns
        if columns is None:
            rows = self._rows
            columns = [list(values) for values in zip(*rows)] if rows else []
            self._columns = columns
        return columns

    def column(self, position: int) -> ColumnData:
        """One column's buffer (a list or a :class:`TypedColumn`), in row order."""
        return self.columns[position]

    def column_values(self, position: int) -> List[Any]:
        """One column's values as a plain Python list, in row order."""
        return _as_list(self.columns[position])

    def typed_column(self, position: int) -> Optional[TypedColumn]:
        """The column's typed buffer, or None when it is stored as a list.

        Reads the columnar representation only if it already exists — a
        rows-only batch is not transposed just to answer "not typed".
        """
        columns = self._columns
        if columns is None:
            return None
        entry = columns[position]
        return entry if isinstance(entry, TypedColumn) else None

    def ensure_typed(self, schema: Schema) -> "RowBatch":
        """Upgrade eligible fixed-width columns to typed buffers, in place.

        Only the batch's own column container is touched (buffers shared
        with other batches are replaced in this container, never mutated),
        and values are unchanged — the upgrade is invisible to every reader.
        Returns the batch itself for chaining.
        """
        if not self._length:
            return self
        fixed, _ = schema.size_plan()
        if not fixed:
            return self
        columns = self.columns
        for position, _width in fixed:
            entry = columns[position]
            if isinstance(entry, list):
                typed = build_typed_column(entry, schema.columns[position].dtype)
                if typed is not None:
                    columns[position] = typed
        return self

    def _value_tuples(self) -> Iterable[Tuple[Any, ...]]:
        """Row-shaped plain tuples, without allocating :class:`Row` objects."""
        if self._rows is not None:
            return self._rows
        if self._columns:
            return zip(*[_as_list(column) for column in self._columns])
        return (() for _ in range(self._length))

    # -- container protocol ------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __bool__(self) -> bool:
        return self._length > 0

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.rows[index]
        if self._rows is None and self._columns is not None:
            return Row(column[index] for column in self._columns)
        return self.rows[index]

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
        columns = self.columns
        selected: List[ColumnData] = []
        for column in columns:
            if isinstance(column, TypedColumn):
                selected.append(column.take(indexes))
            else:
                selected.append([column[index] for index in indexes])
        return RowBatch.from_columns(selected, len(indexes))

    def take_mask(self, mask) -> "RowBatch":
        """The batch restricted to rows where ``mask`` (bools, one per row) is truthy.

        ``mask`` may be a NumPy boolean array (the kernel path) or any
        sequence of bools.  Keeping every row returns the batch itself.
        """
        if not self._length:
            return RowBatch([])
        if hasattr(mask, "sum") and not isinstance(mask, (list, tuple)):
            kept = int(mask.sum())
            flags: Optional[List[Any]] = None
        else:
            flags = mask if isinstance(mask, list) else list(mask)
            kept = sum(1 for flag in flags if flag)
        if kept == self._length:
            return self
        selected: List[ColumnData] = []
        for column in self.columns:
            if isinstance(column, TypedColumn):
                selected.append(column.take_mask(mask))
            else:
                if flags is None:
                    flags = mask.tolist()
                selected.append(list(compress(column, flags)))
        return RowBatch.from_columns(selected, kept)

    def key_tuples(self, positions: Optional[Sequence[int]] = None) -> List[Tuple[Any, ...]]:
        """Per-row value tuples over ``positions`` (all columns when ``None``).

        The shared key-extraction path for duplicate elimination, hash joins
        and UDF argument shipping: values come straight off the column
        buffers as plain Python scalars, no :class:`Row` objects are
        allocated, and a zero-width key yields one empty tuple per row.
        """
        if not self._length:
            return []
        columns = self.columns
        if positions is not None:
            columns = [columns[position] for position in positions]
        if not columns:
            return [()] * self._length
        return list(zip(*[_as_list(column) for column in columns]))

    def encode(self, positions: Optional[Sequence[int]] = None) -> KeyCodes:
        """The rows' key tuples over ``positions`` as dense integer codes.

        One hash pass; consumers that group, order, deduplicate or size by
        key then work on the codes and on the distinct keys only.
        """
        return KeyCodes.of(self.key_tuples(positions))

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

        ``keep`` receives each row as a positional sequence (a plain value
        tuple on the columnar path — no :class:`Row` objects are allocated).
        """
        if not self._length:
            return RowBatch([])
        if self._rows is not None:
            return RowBatch([row for row in self._rows if keep(row)])
        kept = [
            index for index, values in enumerate(self._value_tuples()) if keep(values)
        ]
        return self.take(kept)

    def slice(self, start: int, stop: int) -> "RowBatch":
        """The batch restricted to rows ``start:stop`` (column-wise).

        Columnar-first: a batch that already has column buffers slices each
        buffer (typed columns slice into typed columns), so chunking a large
        columnar batch for shipping never materialises rows.
        """
        if self._columns is not None:
            length = max(0, min(stop, self._length) - max(0, start))
            return RowBatch.from_columns(
                [column[start:stop] for column in self._columns], length
            )
        return RowBatch(self._rows[start:stop])

    # -- sizing -------------------------------------------------------------------

    def _summed_sizes(self, sized_columns: Iterable[Union[int, List[int]]]) -> List[int]:
        """Per-row sums of per-column sizes.

        Each column is either a constant (every row sizes alike: a NULL-free
        typed column, at its width) or a list with one size per row; only
        the lists are added up row by row.
        """
        constant = 0
        varying: List[List[int]] = []
        for sizes in sized_columns:
            if isinstance(sizes, list):
                varying.append(sizes)
            else:
                constant += sizes
        if not varying:
            return [constant] * self._length
        sizes = varying[0] if len(varying) == 1 else list(map(sum, zip(*varying)))
        if constant:
            sizes = [size + constant for size in sizes]
        return sizes

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
            total += sum(dtype.serialized_sizes(_as_list(columns[position])))
        self._size_memo = (schema, total)
        return total

    def values_bytes(self) -> int:
        """Value-based wire size of the whole batch (``values_size`` row sum).

        Identical to ``sum(values_size(row) for row in batch)`` — summing a
        column at a time instead of a row at a time — with typed columns
        priced arithmetically (their strict builders guarantee each value
        sizes at exactly the column width; NULLs cost one byte).
        """
        total = 0
        for column in self.columns:
            if isinstance(column, TypedColumn):
                nulls = column.null_count
                total += column.width * (len(column) - nulls) + nulls
            else:
                total += sum(value_sizes(column))
        return total

    def row_sizes(self, schema: Schema) -> List[int]:
        """Per-row wire sizes under ``schema`` (one int per row, in row order).

        Each entry equals ``row_size(row, schema)``, from one
        :meth:`DataType.serialized_sizes` call per column.
        """
        if not self._length:
            return []
        return self._summed_sizes(
            dtype.fixed_size
            if dtype.fixed_size is not None and _null_free_typed(column)
            else dtype.serialized_sizes(_as_list(column))
            for column, dtype in zip(self.columns, (c.dtype for c in schema.columns))
        )

    def value_sizes(self, positions: Sequence[int]) -> List[int]:
        """Per-row value-based sizes over ``positions``.

        Each entry equals ``values_size`` of that row's values at
        ``positions`` — the accounting used for UDF argument payloads —
        from one :func:`~repro.relational.types.value_sizes` call per column.
        """
        if not self._length:
            return []
        columns = [self.columns[position] for position in positions]
        return self._summed_sizes(
            column.width if _null_free_typed(column) else value_sizes(_as_list(column))
            for column in columns
        )

    def __repr__(self) -> str:
        return f"RowBatch({self._length} rows)"


def concat_batches(
    batches: Sequence[RowBatch], column_count: Optional[int] = None
) -> RowBatch:
    """Concatenate batches column-wise into one batch.

    Typed columns stay typed when every input stores the position with the
    same dtype; otherwise the position falls back to one merged list.  With
    no (non-empty) input batches the result is empty; ``column_count`` pins
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
    merged: List[ColumnData] = []
    for position in range(width):
        entries = [batch.columns[position] for batch in non_empty]
        if all(isinstance(entry, TypedColumn) for entry in entries) and (
            len({entry.dtype_name for entry in entries}) == 1
        ):
            merged.append(TypedColumn.concat(entries))
        else:
            values: List[Any] = []
            for entry in entries:
                values.extend(_as_list(entry))
            merged.append(values)
    return RowBatch.from_columns(merged, total)


def batches_of(rows: Iterable[Row], batch_size: int) -> Iterator[RowBatch]:
    """Chunk a row stream into :class:`RowBatch` es of at most ``batch_size``.

    The chunker pulls lazily: it never draws more than one batch ahead of the
    consumer, so partially consumed pipelines stop early.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    pending: List[Row] = []
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
