"""Tables: a facade over in-memory rows or a durable paged heap file."""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
)

from repro.errors import SchemaError, TypeMismatchError
from repro.relational.schema import Schema
from repro.relational.statistics import TableStatistics, compute_table_statistics
from repro.relational.tuples import Row, RowBatch, row_size

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.storage.record import PagedTableStorage


class Table:
    """A named relation, in memory by default or paged when given a backend.

    The legacy in-memory path is unchanged: rows are validated against the
    schema on insertion, statistics are recomputed lazily and cached, and
    any mutation invalidates the cache.

    With ``storage`` set (a :class:`~repro.storage.record.PagedTableStorage`),
    rows live in a slotted-page heap file reached through the buffer pool:
    inserts append to the heap, every :meth:`as_batch` re-reads the pages
    through the pool (so buffer hit/miss counters reflect real scan
    traffic), and :attr:`statistics` come from the storage engine's catalog
    metadata via ``stats_provider`` instead of an exact in-memory pass.
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        rows: Optional[Iterable[Sequence[Any]]] = None,
        storage: Optional["PagedTableStorage"] = None,
        stats_provider: Optional[Callable[[], TableStatistics]] = None,
        scan_listener: Optional[Callable[[], None]] = None,
        index_provider: Optional[Callable[[], Dict[str, Any]]] = None,
        delete_listener: Optional[Callable[[], None]] = None,
    ) -> None:
        self.name = name
        # A table's own columns are qualified by the table name so that
        # multi-table queries can disambiguate.
        self.schema = schema if any(c.table for c in schema.columns) else schema.qualify(name)
        self._storage = storage
        self._stats_provider = stats_provider
        self._scan_listener = scan_listener
        self._index_provider = index_provider
        self._delete_listener = delete_listener
        self._rows: List[Row] = []
        self._statistics: Optional[TableStatistics] = None
        self._batch: Optional[RowBatch] = None
        if rows is not None:
            self.insert_many(rows)

    @property
    def storage(self) -> Optional["PagedTableStorage"]:
        return self._storage

    # -- mutation ---------------------------------------------------------------

    def insert(self, values: Sequence[Any]) -> None:
        """Insert one row, validating arity and column types."""
        if len(values) != len(self.schema):
            raise SchemaError(
                f"table {self.name!r} expects {len(self.schema)} values, got {len(values)}"
            )
        for column, value in zip(self.schema.columns, values):
            try:
                column.dtype.validate(value)
            except TypeMismatchError as exc:
                raise TypeMismatchError(
                    f"column {column.qualified_name!r}: {exc}"
                ) from exc
        if self._storage is not None:
            self._storage.append(tuple(values))
        else:
            self._rows.append(Row(values))
        self._statistics = None
        self._batch = None

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> None:
        for values in rows:
            self.insert(values)

    def insert_dicts(self, records: Iterable[Dict[str, Any]]) -> None:
        """Insert rows given as ``{column_name: value}`` mappings."""
        names = self.schema.names()
        for record in records:
            unknown = set(record) - set(names)
            if unknown:
                raise SchemaError(
                    f"table {self.name!r} has no columns {sorted(unknown)!r}"
                )
            self.insert([record.get(name) for name in names])

    def delete(self, predicate: Callable[[Row], bool]) -> int:
        """Delete every row matching ``predicate``; returns the count.

        On the paged path this tombstones the records in place (their space
        is reclaimed via the heap's free-space map) and notifies the storage
        engine so catalog statistics and secondary indexes stay current.
        """
        if self._storage is not None:
            deleted = self._storage.delete_where(
                lambda values: bool(predicate(Row(values)))
            )
            if deleted and self._delete_listener is not None:
                self._delete_listener()
        else:
            kept = [row for row in self._rows if not predicate(row)]
            deleted = len(self._rows) - len(kept)
            self._rows = kept
        if deleted:
            self._statistics = None
            self._batch = None
        return deleted

    def clear(self) -> None:
        if self._storage is not None:
            self._storage.clear()
        self._rows.clear()
        self._statistics = None
        self._batch = None

    # -- access -----------------------------------------------------------------

    @property
    def rows(self) -> List[Row]:
        """The rows of the table (do not mutate the returned list)."""
        if self._storage is not None:
            return [Row(values) for values in self._storage.read_all()]
        return self._rows

    def __len__(self) -> int:
        if self._storage is not None:
            return self._storage.row_count
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def as_batch(self) -> RowBatch:
        """The whole table as one :class:`RowBatch`.

        Fixed-width columns are upgraded to typed buffers once here — the
        ingestion point — so every scan hands typed columns to the pipeline
        without re-scanning values.  The in-memory path caches the batch
        until mutation; the paged path re-reads the heap through the buffer
        pool on every call, which is what makes the pool's hit/miss/eviction
        counters meaningful.
        """
        if self._storage is not None:
            if self._scan_listener is not None:
                self._scan_listener()
            return RowBatch(self.rows).ensure_typed(self.schema)
        if self._batch is None:
            self._batch = RowBatch(list(self._rows)).ensure_typed(self.schema)
        return self._batch

    def indexes(self) -> Dict[str, Any]:
        """Secondary index handles keyed by index name (paged tables only)."""
        if self._index_provider is not None:
            return self._index_provider()
        return {}

    @property
    def statistics(self) -> TableStatistics:
        """Exact statistics in memory; catalog estimates when paged."""
        if self._storage is not None and self._stats_provider is not None:
            return self._stats_provider()
        if self._statistics is None:
            self._statistics = compute_table_statistics(self.schema, self.rows)
        return self._statistics

    def average_row_size(self) -> float:
        return self.statistics.average_row_size

    def total_size(self) -> int:
        """Total serialized size of the table in bytes."""
        return sum(row_size(row, self.schema) for row in self.rows)

    def to_dicts(self) -> List[Dict[str, Any]]:
        """All rows as dictionaries keyed by qualified column name."""
        return [row.as_dict(self.schema) for row in self.rows]

    def __repr__(self) -> str:
        backing = "paged" if self._storage is not None else "rows"
        return f"Table({self.name!r}, {backing}={len(self)}, schema={self.schema})"
