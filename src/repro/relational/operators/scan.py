"""Leaf operator: the table scan."""

from __future__ import annotations

from typing import Iterator, Optional

from repro.relational.operators.base import Operator
from repro.relational.schema import Schema
from repro.relational.table import Table
from repro.relational.tuples import RowBatch


class TableScan(Operator):
    """A sequential scan over a catalog table, with an optional alias.

    When an alias is given the output schema is re-qualified by the alias so
    self-joins and aliased queries resolve correctly.
    """

    def __init__(self, table: Table, alias: Optional[str] = None) -> None:
        super().__init__()
        self.table = table
        self.alias = alias or table.name
        base = Schema(
            column.with_table(None) for column in table.schema.columns
        )
        self.schema = base.qualify(self.alias)

    def _execute_batches(self, batch_size: int) -> Iterator[RowBatch]:
        # Slice the table's cached columnar batch so the columns transposed
        # once at ingestion flow into the pipeline.
        batch = self.table.as_batch()
        for start in range(0, len(batch), batch_size):
            yield batch.slice(start, start + batch_size)

    def describe(self) -> str:
        if self.alias != self.table.name:
            return f"TableScan({self.table.name} AS {self.alias})"
        return f"TableScan({self.table.name})"

