"""The system catalog: tables, their statistics, and aliases."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.errors import CatalogError
from repro.relational.statistics import TableStatistics
from repro.relational.table import Table


class Catalog:
    """A registry of named tables.

    The catalog is case-insensitive on table names, mirroring typical SQL
    behaviour, but preserves the original spelling for display.
    """

    def __init__(self) -> None:
        self._tables: Dict[str, Table] = {}
        #: Counts every register (replacements too) and drop.
        self.generation = 0

    def register(self, table: Table, replace: bool = False) -> Table:
        """Add ``table`` to the catalog.

        Raises :class:`CatalogError` when a table of the same name exists and
        ``replace`` is False.
        """
        key = table.name.lower()
        if key in self._tables and not replace:
            raise CatalogError(f"table {table.name!r} already exists")
        self._tables[key] = table
        self.generation += 1
        return table

    def drop(self, name: str) -> None:
        key = name.lower()
        if key not in self._tables:
            raise CatalogError(f"table {name!r} does not exist")
        del self._tables[key]
        self.generation += 1

    def table(self, name: str) -> Table:
        key = name.lower()
        if key not in self._tables:
            raise CatalogError(f"table {name!r} does not exist")
        return self._tables[key]

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def statistics(self, name: str) -> TableStatistics:
        return self.table(name).statistics

    def table_names(self) -> List[str]:
        return sorted(table.name for table in self._tables.values())

    def __contains__(self, name: str) -> bool:
        return self.has_table(name)

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def __len__(self) -> int:
        return len(self._tables)

    def __repr__(self) -> str:
        return f"Catalog(tables={self.table_names()})"
