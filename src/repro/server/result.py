"""Query results: rows plus the metrics of the run that produced them."""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.relational.schema import Schema
from repro.server.metrics import ExecutionMetrics


class QueryResult:
    """The outcome of executing one query."""

    def __init__(
        self,
        schema: Schema,
        rows: Sequence[Sequence[Any]],
        metrics: Optional[ExecutionMetrics] = None,
        plan_text: str = "",
        observation: Optional[object] = None,
    ) -> None:
        self.schema = schema
        self.rows: List[Tuple[Any, ...]] = [tuple(row) for row in rows]
        self.metrics = metrics if metrics is not None else ExecutionMetrics()
        self.plan_text = plan_text
        #: The :class:`~repro.adaptive.observer.QueryObservation` derived from
        #: this run, when an observer was attached to the executor.
        self.observation = observation

    # -- adaptive introspection ---------------------------------------------------------

    @property
    def shapes_used(self) -> tuple:
        """The plan shapes a re-optimizing run moved through, in first-use order.

        Each entry is a ``PlanShape.describe()`` rendering — the UDF
        application order with each UDF's shipping strategy, e.g.
        ``"slim[client_site_join] -> heavy[semi_join]"``.  Empty for runs
        without mid-query re-optimization, so callers can introspect plan
        migration without digging into :class:`ExecutionMetrics`.
        """
        return self.metrics.shapes_used or ()

    # -- storage introspection ----------------------------------------------------------

    @property
    def buffer_hit_ratio(self) -> float:
        """Buffer-pool hit ratio of this query (0.0 for in-memory databases)."""
        return self.metrics.buffer_hit_ratio

    @property
    def buffer_evictions(self) -> int:
        """Pages evicted from the buffer pool while this query ran."""
        return self.metrics.buffer_evictions

    @property
    def buffer_pinned_peak(self) -> int:
        """Pool-wide pinned-page high-water mark as of this query's end."""
        return self.metrics.buffer_pinned_peak

    # -- row access --------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        return iter(self.rows)

    def __getitem__(self, index: int) -> Tuple[Any, ...]:
        return self.rows[index]

    def column_names(self) -> List[str]:
        return self.schema.names()

    def column(self, name: str) -> List[Any]:
        """All values of the named output column."""
        position = self.schema.index_of(name)
        return [row[position] for row in self.rows]

    def to_dicts(self) -> List[Dict[str, Any]]:
        names = self.schema.qualified_names()
        return [dict(zip(names, row)) for row in self.rows]

    def row_set(self) -> List[tuple]:
        """Rows as a sorted list of plain tuples, for order-insensitive comparison."""
        return sorted(self.rows, key=repr)

    # -- display -------------------------------------------------------------------------

    def format_table(self, max_rows: int = 20) -> str:
        """A plain-text rendering of the result, for examples and debugging."""
        names = self.schema.names()
        shown = self.rows[:max_rows]
        cells = [[self._render(value) for value in row] for row in shown]
        widths = [len(name) for name in names]
        for row in cells:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        header = " | ".join(name.ljust(widths[index]) for index, name in enumerate(names))
        separator = "-+-".join("-" * width for width in widths)
        lines = [header, separator]
        for row in cells:
            lines.append(" | ".join(cell.ljust(widths[index]) for index, cell in enumerate(row)))
        if len(self.rows) > max_rows:
            lines.append(f"... ({len(self.rows) - max_rows} more rows)")
        return "\n".join(lines)

    @staticmethod
    def _render(value: Any) -> str:
        if isinstance(value, float):
            return f"{value:.4g}"
        return str(value)

    def __repr__(self) -> str:
        return f"QueryResult(rows={len(self.rows)}, columns={self.schema.names()})"
