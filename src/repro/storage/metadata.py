"""The metadata manager: persisted schemas and per-table ``StatInfo``.

This is the catalog half of the storage subsystem, modelled on simpledb-py's
``MetadataManager``/``StatInfo`` split: table schemas and their statistics
live in ``catalog.json`` under the database directory, and the optimizer
prices scans from the catalog's ``blocks_accessed()`` / ``records_output()``
/ ``distinct_values()`` estimates instead of exact eagerly-computed
in-memory statistics.

Statistics are maintained incrementally: every insert updates null counts,
size sums, min/max, a capped distinct sample, and the column histogram (which
widens its range to take a value outside it).  A scan-count trigger marks
stats due for a full recompute from the heap, which rebuilds exact distinct
counts and re-buckets the histograms from the values themselves.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import CatalogError, StorageError
from repro.relational.schema import Column, Schema, bare_name
from repro.storage.index import IndexDefinition
from repro.relational.statistics import (
    ColumnStatistics,
    Histogram,
    TableStatistics,
    compute_column_statistics,
)
from repro.relational.types import type_by_name, value_size

CATALOG_FILE = "catalog.json"
CATALOG_VERSION = 1

#: Cap on the per-column distinct sample kept between full refreshes.
_DISTINCT_SAMPLE_CAP = 4096

_JSON_SCALARS = (bool, int, float, str)


class ColumnStatInfo:
    """Incrementally maintained statistics for one column."""

    __slots__ = (
        "name",
        "distinct_base",
        "null_count",
        "total_size",
        "minimum",
        "maximum",
        "histogram",
        "_sample",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.distinct_base = 0
        self.null_count = 0
        self.total_size = 0.0
        self.minimum: Optional[object] = None
        self.maximum: Optional[object] = None
        self.histogram: Optional[Histogram] = None
        self._sample: set = set()

    def observe(self, value: Any) -> None:
        """Fold one inserted value into the running statistics."""
        self.total_size += value_size(value)
        if value is None:
            self.null_count += 1
            return
        if len(self._sample) < _DISTINCT_SAMPLE_CAP:
            try:
                self._sample.add(hash(value))
            except TypeError:
                pass
        try:
            if self.minimum is None or value < self.minimum:
                self.minimum = value
            if self.maximum is None or value > self.maximum:
                self.maximum = value
        except TypeError:
            self.minimum = None
            self.maximum = None
        if self.histogram is not None:
            self.histogram.add(value)

    def distinct_count(self, records: int) -> int:
        """Best current distinct estimate, never exceeding the row count."""
        estimate = max(self.distinct_base, len(self._sample))
        return min(max(1, estimate), max(1, records)) if records else 0

    def average_size(self, records: int) -> float:
        return (self.total_size / records) if records else 0.0

    def to_column_statistics(self, records: int) -> ColumnStatistics:
        return ColumnStatistics(
            name=self.name,
            distinct_count=self.distinct_count(records),
            null_count=self.null_count,
            average_size=self.average_size(records),
            minimum=self.minimum,
            maximum=self.maximum,
            histogram=self.histogram,
        )

    def reset_from_values(self, values: Sequence[Any]) -> None:
        """Full refresh: exact statistics recomputed from every value."""
        exact = compute_column_statistics(self.name, values)
        self.distinct_base = exact.distinct_count
        self.null_count = exact.null_count
        self.total_size = exact.average_size * len(values)
        self.minimum = exact.minimum
        self.maximum = exact.maximum
        self.histogram = Histogram.build(values)
        self._sample = set()

    def to_dict(self, records: int) -> Dict[str, Any]:
        return {
            "distinct": self.distinct_count(records),
            "nulls": self.null_count,
            "total_size": self.total_size,
            "min": self.minimum if isinstance(self.minimum, _JSON_SCALARS) else None,
            "max": self.maximum if isinstance(self.maximum, _JSON_SCALARS) else None,
            "histogram": None if self.histogram is None else self.histogram.to_dict(),
        }

    @classmethod
    def from_dict(cls, name: str, payload: Mapping[str, Any]) -> "ColumnStatInfo":
        info = cls(name)
        info.distinct_base = int(payload.get("distinct", 0))
        info.null_count = int(payload.get("nulls", 0))
        info.total_size = float(payload.get("total_size", 0.0))
        info.minimum = payload.get("min")
        info.maximum = payload.get("max")
        histogram = payload.get("histogram")
        if histogram:
            info.histogram = Histogram.from_dict(histogram)
        return info


class StatInfo:
    """Catalog statistics for one table, in simpledb vocabulary."""

    __slots__ = ("blocks", "records", "columns")

    def __init__(
        self,
        blocks: int = 0,
        records: int = 0,
        columns: Optional[Dict[str, ColumnStatInfo]] = None,
    ) -> None:
        self.blocks = int(blocks)
        self.records = int(records)
        self.columns: Dict[str, ColumnStatInfo] = columns if columns is not None else {}

    def blocks_accessed(self) -> int:
        """Blocks a full scan of the table reads."""
        return self.blocks

    def records_output(self) -> int:
        """Records a full scan of the table produces."""
        return self.records

    def distinct_values(self, field_name: str) -> int:
        """Distinct values of ``field_name`` (bare or table-qualified)."""
        bare = bare_name(field_name)
        info = self.columns.get(bare)
        if info is None:
            return max(1, self.records)
        return info.distinct_count(self.records)

    def to_table_statistics(self) -> TableStatistics:
        """Project the catalog view into the optimizer's statistics shape."""
        records = self.records
        stats = TableStatistics(row_count=records)
        total = 0.0
        for name, info in self.columns.items():
            stats.columns[name] = info.to_column_statistics(records)
            total += info.total_size
        stats.average_row_size = (total / records) if records else 0.0
        return stats

    def __repr__(self) -> str:
        return f"StatInfo(blocks={self.blocks}, records={self.records})"


@dataclass
class _TableEntry:
    """Everything the catalog keeps about one table."""

    name: str  # as declared; the catalog is keyed by its lower-case form
    schema: Schema
    stats: StatInfo
    scans_since_refresh: int = 0
    deletes_since_refresh: int = 0
    free_space: Dict[int, int] = field(default_factory=dict)  # block -> free bytes


@dataclass
class _IndexEntry:
    """One index definition and its persisted state."""

    definition: IndexDefinition
    entries: int = 0
    incomplete: bool = False


class MetadataManager:
    """Persists table schemas and ``StatInfo`` in ``catalog.json``.

    The manager is write-through for structural changes (create/drop save
    immediately) and write-behind for per-insert statistics: inserts mark
    the catalog dirty and :meth:`flush` persists it, which the storage
    engine calls at query boundaries and on close.
    """

    def __init__(self, directory: str, refresh_interval: int = 100) -> None:
        self.directory = os.path.abspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.refresh_interval = max(1, int(refresh_interval))
        self._tables: Dict[str, _TableEntry] = {}  # lower-case table name
        self._indexes: Dict[str, _IndexEntry] = {}  # lower-case index name
        self._dirty = False
        self._load()

    def _table(self, name: str) -> _TableEntry:
        try:
            return self._tables[name.lower()]
        except KeyError as exc:
            raise CatalogError(f"table {name!r} is not in the catalog") from exc

    # -- table lifecycle ---------------------------------------------------------

    def create_table(self, name: str, schema: Schema, replace: bool = False) -> None:
        key = name.lower()
        if key in self._tables and not replace:
            raise CatalogError(f"table {name!r} already exists in the catalog")
        bare = Schema(Column(column.name, column.dtype) for column in schema.columns)
        # A fresh StatInfo, never carried over: a replaced table must not be
        # priced from the old table's statistics.
        stats = StatInfo()
        for column in bare.columns:
            stats.columns[column.name] = ColumnStatInfo(column.name)
        self._tables[key] = _TableEntry(name, bare, stats)
        self.save()

    def drop_table(self, name: str) -> None:
        self._table(name)
        key = name.lower()
        del self._tables[key]
        for index_key in [k for k, e in self._indexes.items() if e.definition.table.lower() == key]:
            del self._indexes[index_key]
        self.save()

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def table_names(self) -> List[str]:
        return [self._tables[key].name for key in sorted(self._tables)]

    def schema_for(self, name: str) -> Schema:
        return self._table(name).schema

    # -- secondary indexes -------------------------------------------------------

    def create_index(self, definition: IndexDefinition) -> None:
        """Record one index definition; the engine owns the index file."""
        key = definition.name.lower()
        if key in self._indexes:
            raise CatalogError(f"index {definition.name!r} already exists")
        schema = self._table(definition.table).schema
        if not any(column.name == definition.column for column in schema.columns):
            raise CatalogError(
                f"table {definition.table!r} has no column {definition.column!r}"
            )
        self._indexes[key] = _IndexEntry(definition)
        self.save()

    def drop_index(self, name: str) -> IndexDefinition:
        entry = self._indexes.pop(name.lower(), None)
        if entry is None:
            raise CatalogError(f"index {name!r} is not in the catalog")
        self.save()
        return entry.definition

    def index_definition(self, name: str) -> IndexDefinition:
        try:
            return self._indexes[name.lower()].definition
        except KeyError as exc:
            raise CatalogError(f"index {name!r} is not in the catalog") from exc

    def indexes_for(self, table: str) -> List[IndexDefinition]:
        key = table.lower()
        return [
            self._indexes[name].definition
            for name in sorted(self._indexes)
            if self._indexes[name].definition.table.lower() == key
        ]

    def index_names(self) -> List[str]:
        return [self._indexes[key].definition.name for key in sorted(self._indexes)]

    def index_state(self, name: str) -> Tuple[int, bool]:
        """The persisted ``(entry_count, incomplete)`` pair for one index."""
        entry = self._indexes.get(name.lower())
        return (entry.entries, entry.incomplete) if entry is not None else (0, False)

    def set_index_state(self, name: str, entries: int, incomplete: bool) -> None:
        entry = self._indexes.get(name.lower())
        state = (int(entries), bool(incomplete))
        if entry is not None and (entry.entries, entry.incomplete) != state:
            entry.entries, entry.incomplete = state
            self._dirty = True

    # -- free-space maps ---------------------------------------------------------

    def free_space_for(self, table: str) -> Dict[int, int]:
        """The persisted heap free-space map (block -> free bytes)."""
        entry = self._tables.get(table.lower())
        return dict(entry.free_space) if entry is not None else {}

    def set_free_space(self, table: str, holes: Mapping[int, int]) -> None:
        entry = self._tables.get(table.lower())
        snapshot = dict(holes)
        if entry is not None and entry.free_space != snapshot:
            entry.free_space = snapshot
            self._dirty = True

    # -- statistics maintenance --------------------------------------------------

    def stat_info(self, name: str, block_count: Optional[int] = None) -> StatInfo:
        stats = self._table(name).stats
        if block_count is not None and block_count != stats.blocks:
            stats.blocks = int(block_count)
            self._dirty = True
        return stats

    def record_insert(self, name: str, values: Sequence[Any]) -> None:
        entry = self._tables.get(name.lower())
        if entry is None:
            return
        stats = entry.stats
        stats.records += 1
        for column, value in zip(entry.schema.columns, values):
            info = stats.columns.get(column.name)
            if info is None:
                info = stats.columns[column.name] = ColumnStatInfo(column.name)
            info.observe(value)
        self._dirty = True

    def record_delete(self, name: str) -> None:
        """Fold one deleted row into the catalog's record count.

        Per-column statistics (distincts, min/max, histograms) cannot be
        decremented incrementally; they stay as-is until the next full
        refresh, which :meth:`deletes_refresh_due` brings forward after a
        large delete batch.
        """
        entry = self._tables.get(name.lower())
        if entry is None:
            return
        entry.stats.records = max(0, entry.stats.records - 1)
        entry.deletes_since_refresh += 1
        self._dirty = True

    def deletes_refresh_due(self, name: str) -> bool:
        """True when deletes since the last refresh warrant a full recompute.

        Scan counting alone would let index-vs-scan costing run on stale
        record counts and histograms for up to ``refresh_interval`` queries
        after a bulk delete; a batch that removed >= 20% of the table (or
        ``refresh_interval`` rows outright) forces the refresh now.
        """
        entry = self._tables.get(name.lower())
        if entry is None or not entry.deletes_since_refresh:
            return False
        deletes = entry.deletes_since_refresh
        if deletes >= self.refresh_interval:
            return True
        return deletes * 5 >= max(1, deletes + entry.stats.records)

    def note_scan(self, name: str) -> bool:
        """Count one table scan; True when a full stats refresh is due."""
        entry = self._tables.get(name.lower())
        if entry is None:
            return False
        entry.scans_since_refresh += 1
        return entry.scans_since_refresh >= self.refresh_interval

    def refresh(
        self,
        name: str,
        rows: Iterable[Tuple[Any, ...]],
        block_count: int,
    ) -> StatInfo:
        """Full recompute of a table's statistics from its actual records."""
        entry = self._table(name)
        materialized = list(rows)
        stats = StatInfo(blocks=block_count, records=len(materialized))
        for position, column in enumerate(entry.schema.columns):
            info = ColumnStatInfo(column.name)
            info.reset_from_values([row[position] for row in materialized])
            stats.columns[column.name] = info
        entry.stats = stats
        entry.scans_since_refresh = entry.deletes_since_refresh = 0
        self.save()
        return stats

    # -- persistence -------------------------------------------------------------

    @property
    def catalog_path(self) -> str:
        return os.path.join(self.directory, CATALOG_FILE)

    def save(self) -> None:
        tables: Dict[str, Any] = {}
        for key in sorted(self._tables):
            table = self._tables[key]
            stats = table.stats
            entry: Dict[str, Any] = {
                "columns": [[column.name, column.dtype.name] for column in table.schema.columns],
                "stats": {
                    "blocks": stats.blocks,
                    "records": stats.records,
                    "columns": {
                        name: info.to_dict(stats.records)
                        for name, info in stats.columns.items()
                    },
                },
            }
            if table.free_space:
                entry["free_space"] = {
                    str(block): free for block, free in sorted(table.free_space.items())
                }
            tables[table.name] = entry
        indexes: Dict[str, Any] = {}
        for key in sorted(self._indexes):
            index = self._indexes[key]
            indexes[index.definition.name] = {
                "table": index.definition.table,
                "column": index.definition.column,
                "kind": index.definition.kind,
                "entries": index.entries,
                "incomplete": index.incomplete,
            }
        payload: Dict[str, Any] = {"version": CATALOG_VERSION, "tables": tables}
        if indexes:
            payload["indexes"] = indexes
        temporary = self.catalog_path + ".tmp"
        with open(temporary, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
        os.replace(temporary, self.catalog_path)
        self._dirty = False

    def flush(self) -> None:
        if self._dirty:
            self.save()

    def _load(self) -> None:
        if not os.path.exists(self.catalog_path):
            return
        try:
            with open(self.catalog_path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as exc:
            raise StorageError(f"corrupt catalog at {self.catalog_path}: {exc}") from exc
        if payload.get("version") != CATALOG_VERSION:
            raise StorageError(
                f"catalog version {payload.get('version')!r} is not supported "
                f"(expected {CATALOG_VERSION})"
            )
        for name, entry in payload.get("tables", {}).items():
            schema = Schema(
                Column(column_name, type_by_name(type_name))
                for column_name, type_name in entry["columns"]
            )
            raw = entry.get("stats", {})
            stats = StatInfo(blocks=raw.get("blocks", 0), records=raw.get("records", 0))
            for column_name, column_payload in raw.get("columns", {}).items():
                stats.columns[column_name] = ColumnStatInfo.from_dict(
                    column_name, column_payload
                )
            holes = entry.get("free_space") or {}
            self._tables[name.lower()] = _TableEntry(
                name,
                schema,
                stats,
                free_space={int(block): int(free) for block, free in holes.items()},
            )
        for index_name, entry in payload.get("indexes", {}).items():
            definition = IndexDefinition(
                name=index_name,
                table=entry["table"],
                column=entry["column"],
                kind=entry["kind"],
            )
            self._indexes[index_name.lower()] = _IndexEntry(
                definition,
                int(entry.get("entries", 0)),
                bool(entry.get("incomplete", False)),
            )
