"""Operator base classes for the batch-at-a-time execution model.

Operators expose two public entry points that the rest of the system drives:

* :meth:`Operator.execute_batches` — the vectorized protocol: a stream of
  :class:`~repro.relational.tuples.RowBatch` es of (at most) ``batch_size``
  rows.
* :meth:`Operator.execute` — the classical row iterator, kept as a thin
  flattening view over the batch stream for callers that want rows.

Subclasses implement exactly one of the protected hooks:

* ``_execute_batches(batch_size)`` for batch-native operators (scans,
  filters, projections, hash joins, aggregation), or
* ``_execute()`` for row-oriented operators; the base class chunks their
  row stream into batches automatically.

Instrumentation (``rows_produced`` / ``batches_produced``) is updated in
exactly one place — the public :meth:`execute_batches` — so no combination
of ``run()``, executor metrics collection, and direct iteration can double
count.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro.errors import OperatorError
from repro.relational.schema import Schema
from repro.relational.tuples import DEFAULT_BATCH_SIZE, RowBatch, batches_of


class Operator:
    """A physical operator producing a stream of row batches (or rows).

    Subclasses must set :attr:`schema` before execution and implement
    :meth:`_execute` (row-at-a-time) or :meth:`_execute_batches`
    (batch-native).  ``rows_produced`` counts the rows this operator has
    handed to its consumer, maintained solely by :meth:`execute_batches`.
    """

    #: The attributes :meth:`describe` reads: all a finished plan's text
    #: needs of the operator (:class:`PlanOutline`).
    described: Tuple[str, ...] = ()

    def __init__(self, children: Sequence["Operator"] = ()) -> None:
        self.children: List[Operator] = list(children)
        self.schema: Optional[Schema] = None
        self.batch_size: int = DEFAULT_BATCH_SIZE
        self.rows_produced = 0
        self.batches_produced = 0

    # -- subclass hooks ---------------------------------------------------------

    def _execute(self) -> Iterator[Tuple[Any, ...]]:
        """Yield output rows (plain tuples).  Row-oriented subclasses implement this."""
        raise NotImplementedError

    def _execute_batches(self, batch_size: int) -> Iterator[RowBatch]:
        """Yield output batches.  Batch-native subclasses override this."""
        yield from batches_of(self._execute(), batch_size)

    # -- public protocol --------------------------------------------------------

    def execute(self) -> Iterator[Tuple[Any, ...]]:
        """Yield output rows (a flattening view over :meth:`execute_batches`)."""
        for batch in self.execute_batches():
            yield from batch.rows

    def execute_batches(self, batch_size: Optional[int] = None) -> Iterator[RowBatch]:
        """Yield output batches of at most ``batch_size`` rows.

        This is the single instrumentation path: every row an operator
        produces is counted here, exactly once, no matter how the operator
        is driven (``run()``, ``execute()``, or batch iteration).
        """
        size = batch_size if batch_size is not None else self.batch_size
        if size < 1:
            raise OperatorError("batch_size must be at least 1")
        for batch in self._execute_batches(size):
            if not batch:
                continue
            self.rows_produced += len(batch)
            self.batches_produced += 1
            yield batch

    def output_schema(self) -> Schema:
        if self.schema is None:
            raise OperatorError(f"{type(self).__name__} has no schema")
        return self.schema

    # -- conveniences ----------------------------------------------------------

    def run(self) -> List[Tuple[Any, ...]]:
        """Execute to completion and collect all rows (for tests and tools)."""
        result: List[Tuple[Any, ...]] = []
        for batch in self.execute_batches():
            result.extend(batch.rows)
        return result

    def child(self) -> "Operator":
        """The single child of a unary operator."""
        if len(self.children) != 1:
            raise OperatorError(
                f"{type(self).__name__} expected exactly one child, has {len(self.children)}"
            )
        return self.children[0]

    def walk(self) -> Iterator["Operator"]:
        """Every operator of this subtree in post-order: children (left to right)
        before their parent, so the order operators finish running in."""
        # Parents first with the last child first, reversed: one pass, where a
        # recursive generator hands each operator up through every level.
        order = []
        stack = [self]
        while stack:
            operator = stack.pop()
            order.append(operator)
            stack.extend(operator.children)
        return reversed(order)

    def explain(self, indent: int = 0) -> str:
        """A human-readable, indented description of the operator tree."""
        lines = ["  " * indent + self.describe()]
        for child in self.children:
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def describe(self) -> str:
        return type(self).__name__

    def __repr__(self) -> str:
        return f"{type(self).__name__}(schema={self.schema})"


class PlanOutline:
    """A finished plan's :meth:`Operator.explain` text, rendered when first read.

    It keeps each operator's depth, class and :attr:`~Operator.described`
    attributes, in explain order, and never the operator: a run's context,
    client caches and batches must not live on in what reports it.  The
    text is each class's ``describe`` over an instance holding only those
    attributes, so it is the text ``explain`` gives, after ``header`` if
    one is given.
    """

    __slots__ = ("_header", "_outline", "_text")

    def __init__(self, root: Operator, header: Optional[str] = None) -> None:
        outline = []
        stack = [(0, root)]
        while stack:
            depth, operator = stack.pop()
            described = {name: getattr(operator, name) for name in operator.described}
            outline.append((depth, type(operator), described))
            stack.extend((depth + 1, child) for child in reversed(operator.children))
        self._header = header
        self._outline: Optional[List[tuple]] = outline
        self._text: Optional[str] = None

    @property
    def text(self) -> str:
        if self._text is None:
            lines = [] if self._header is None else [self._header]
            for depth, kind, described in self._outline:
                operator = object.__new__(kind)
                operator.__dict__.update(described)
                lines.append("  " * depth + kind.describe(operator))
            self._text, self._outline = "\n".join(lines), None
        return self._text


class CollectingOperator(Operator):
    """A leaf operator over already materialised rows (or a whole batch).

    Accepts a :class:`RowBatch` directly so columnar callers (segmented
    adaptive execution re-running a slice of its input) keep their column
    lists through the leaf instead of round-tripping via rows.
    """

    described = ("row_count",)

    def __init__(self, schema: Schema, rows) -> None:
        super().__init__()
        self.schema = schema
        self._batch = rows if isinstance(rows, RowBatch) else RowBatch(rows)
        self.row_count = len(self._batch)

    def _execute_batches(self, batch_size: int) -> Iterator[RowBatch]:
        batch = self._batch
        for start in range(0, len(batch), batch_size):
            yield batch.slice(start, start + batch_size)

    def describe(self) -> str:
        return f"Collected({self.row_count} rows)"
