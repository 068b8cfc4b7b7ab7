"""Index-aware access-path operators: index scans and index nested-loop joins.

Both operators read the heap through the same :class:`~repro.storage.buffer.
BufferManager` the sequential scan uses, so their page traffic lands in the
identical hit/miss/eviction counters — what the benchmarks compare.  They
additionally book their own probe traffic (one index lookup and the index
pages it pinned) on the query's execution context, which is where
:class:`~repro.server.metrics.ExecutionMetrics` reads ``index_lookups`` /
``index_pages_read``.

Correctness notes:

* An :class:`IndexScanOperator` may over-approximate the predicates it
  serves (a hash index normalises numeric keys to float, so two huge integers
  rounding to the same float collide); the planner therefore always keeps
  every original :class:`~repro.relational.operators.filter.Filter` above it.
  The served filters are built with ``observe_selectivity=False`` so the
  adaptive observer does not record the *residual* selectivity (≈1.0) under
  the predicates' keys and poison later estimates.
* An :class:`IndexNestedLoopJoinOperator` re-checks key equality on the
  fetched inner row, so probe false positives never surface.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple

from repro.core.execution.context import RemoteExecutionContext
from repro.relational.operators.base import Operator
from repro.relational.schema import Schema
from repro.relational.table import Table
from repro.relational.tuples import RowBatch
from repro.storage.index import KeyInterval
from repro.storage.record import RecordId


class IndexScanOperator(Operator):
    """Fetches the rows whose indexed column lies in one key interval.

    The interval is what all of the query's column-vs-literal conjuncts on
    the indexed column fold to, so one lookup serves them together: a B-tree
    walks its leaf chain between the bounds, a hash index (equality only)
    probes the interval's single key, and an empty interval reads nothing.
    Matching RIDs are fetched from the slotted-page heap through the buffer
    pool and emitted as columnar batches, so everything downstream
    composes exactly as over a :class:`~repro.relational.operators.scan.
    TableScan`.  ``column`` is the indexed column as the query wrote it;
    the lookup is booked on ``context``.
    """

    def __init__(
        self,
        table: Table,
        index: object,
        interval: KeyInterval,
        column: str,
        context: RemoteExecutionContext,
        alias: Optional[str] = None,
    ) -> None:
        super().__init__()
        self.table = table
        self.alias = alias or table.name
        self.index = index
        self.interval = interval
        self.column = column
        self.context = context
        base = Schema(column.with_table(None) for column in table.schema.columns)
        self.schema = base.qualify(self.alias)

    def _matching_rids(self) -> List[RecordId]:
        index = self.index
        interval = self.interval
        if interval.is_empty:
            return []
        before = index.pages_read
        if index.supports_range:
            rids = [
                rid
                for _key, rid in index.search_range(
                    interval.low, interval.high, interval.include_low, interval.include_high
                )
            ]
        else:
            rids = list(index.search_eq(interval.low))
        self.context.book_index_probe(index.pages_read - before)
        return rids

    def _execute_batches(self, batch_size: int) -> Iterator[RowBatch]:
        storage = self.table.storage
        rows = [storage.fetch_row(rid) for rid in self._matching_rids()]
        batch = RowBatch(rows)
        for start in range(0, len(batch), batch_size):
            yield batch.slice(start, start + batch_size)

    def describe(self) -> str:
        name = getattr(getattr(self.index, "definition", None), "name", "?")
        condition = self.interval.describe(self.column)
        return f"IndexScan({self.table.name} AS {self.alias} via {name}: {condition})"


class IndexNestedLoopJoinOperator(Operator):
    """Joins by probing the inner table's index once per outer row.

    The inner side is never fully scanned: each outer row's join-key value is
    looked up in the index and only the matching heap rows are fetched.  The
    output schema is the concatenation ``outer ++ inner`` — identical to the
    hash/nested-loop joins it replaces, so the rest of the plan is unchanged.
    Each probe is booked on ``context``.
    """

    def __init__(
        self,
        outer: Operator,
        inner_table: Table,
        index: object,
        outer_column: str,
        context: RemoteExecutionContext,
        alias: Optional[str] = None,
    ) -> None:
        super().__init__([outer])
        self.table = inner_table
        self.alias = alias or inner_table.name
        self.index = index
        self.outer_column = outer_column
        self.context = context
        base = Schema(column.with_table(None) for column in inner_table.schema.columns)
        self.inner_schema = base.qualify(self.alias)
        self.schema = outer.output_schema().concat(self.inner_schema)
        self._key_position = outer.output_schema().index_of(outer_column)
        inner_column = index.definition.column
        self._inner_position = self.inner_schema.index_of(inner_column)

    def _execute(self) -> Iterator[Tuple[Any, ...]]:
        storage = self.table.storage
        index = self.index
        book = self.context.book_index_probe
        position = self._key_position
        inner_position = self._inner_position
        for outer_row in self.child().execute():
            key = outer_row[position]
            if key is None:
                continue  # NULL never equi-joins (three-valued logic)
            before = index.pages_read
            rids = index.search_eq(key)
            book(index.pages_read - before)
            for rid in rids:
                values = storage.fetch_row(rid)
                # Re-check equality: hash probes normalise numeric keys and
                # may collide two huge integers onto one float.
                if values[inner_position] == key:
                    yield outer_row + values

    def describe(self) -> str:
        name = getattr(getattr(self.index, "definition", None), "name", "?")
        return (
            f"IndexNestedLoopJoin({self.table.name} AS {self.alias} via {name}, "
            f"probe {self.outer_column})"
        )
