"""Scatter-gather execution over sharded/replicated server sites.

:class:`ScatterGatherOperator` is the coordinator-side fan-out/merge point
of distributed execution: it hands a list of shard tasks to a runner (the
distribution engine's baton-driven worker pool), collects each site's
result stream, checks every stream against one canonical schema, and yields
the merged rows as ordinary batches.

The operator itself is deliberately execution-agnostic — it neither knows
about sites, channels, nor the baton protocol.  The runner callable owns
all of that; this operator is the relational-algebra face of the gather, so
coordinator output shaping (DISTINCT / ORDER BY / LIMIT over the *merged*
stream) stacks on top of it like on any other operator.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ExecutionError
from repro.relational.operators.base import Operator
from repro.relational.schema import Schema, bare_name
from repro.relational.tuples import RowBatch


class ShardResult:
    """One shard task's contribution to the gathered result."""

    def __init__(
        self,
        label: str,
        schema: Schema,
        rows: Sequence[Tuple[Any, ...]],
        site: Optional[str] = None,
    ) -> None:
        self.label = label
        self.schema = schema
        self.rows = list(rows)
        #: The server site that ultimately produced the rows (after any
        #: mid-query migration), for explain output and tests.
        self.site = site

    def __repr__(self) -> str:
        return f"ShardResult({self.label!r}, rows={len(self.rows)}, site={self.site!r})"


class ScatterGatherOperator(Operator):
    """Fan a query out over shard tasks and merge the result streams.

    ``runner`` is called once with ``tasks`` and must return an iterable of
    :class:`ShardResult`, one per task, in any order.  ``schema`` is the
    canonical output schema every stream must match (by column name — sites
    may qualify differently, so bare names are compared); a mismatch is a
    protocol error, not data, and raises :class:`ExecutionError`.
    """

    def __init__(
        self,
        schema: Schema,
        tasks: Sequence[Any],
        runner: Callable[[Sequence[Any]], Sequence[ShardResult]],
        label: str = "scatter-gather",
    ) -> None:
        super().__init__()
        self.schema = schema
        self.tasks = list(tasks)
        self.runner = runner
        self.label = label
        #: Populated by execution: the per-shard results, in gather order.
        self.shard_results: List[ShardResult] = []
        self.rows_gathered = 0

    # -- execution --------------------------------------------------------------------

    def _execute_batches(self, batch_size: int) -> Iterator[RowBatch]:
        results = list(self.runner(self.tasks))
        self.shard_results = results
        canonical = tuple(map(bare_name, self.schema.qualified_names()))
        pending: List[Tuple[Any, ...]] = []
        for result in results:
            produced = tuple(map(bare_name, result.schema.qualified_names()))
            if produced != canonical:
                raise ExecutionError(
                    f"shard {result.label!r} returned schema {produced} "
                    f"but the gather expects {canonical}"
                )
            for row in result.rows:
                pending.append(row)
                self.rows_gathered += 1
                if len(pending) >= batch_size:
                    yield RowBatch(pending)
                    pending = []
        if pending:
            yield RowBatch(pending)

    described = ("label", "tasks")

    def describe(self) -> str:
        return f"ScatterGather({self.label}, tasks={len(self.tasks)})"
