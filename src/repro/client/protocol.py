"""Wire-protocol payloads exchanged between the server executor and the client.

In the original system these would be serialized byte streams; here the
payloads are small Python objects whose *sizes* are accounted explicitly by
the senders (see :mod:`repro.network.message`), so the simulation charges the
right number of bytes while the values themselves travel by reference.

Three request shapes cover the paper's execution strategies:

* :class:`ArgumentBatch` — semi-join and naive execution ship only the UDF's
  argument values; the client answers with a :class:`ResultBatch` aligned by
  position.
* :class:`RecordBatch` — the client-site join ships whole records together
  with a :class:`PushedOperations` description of the predicates and
  projections to apply at the client; the client answers with a
  :class:`RecordResultBatch` containing only the surviving, projected rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple, Union

from repro.relational.expressions import Expression
from repro.relational.schema import Schema
from repro.relational.tuples import Row, RowBatch


@dataclass
class RemoteCall:
    """Identifies the UDF(s) the client should run for a batch.

    ``argument_positions`` indexes into the shipped tuples: for an
    :class:`ArgumentBatch` the shipped tuple *is* the argument tuple, so the
    positions are ``0..k-1``; for a :class:`RecordBatch` they select the
    argument columns out of the full record.
    """

    udf_name: str
    argument_positions: Tuple[int, ...]


@dataclass
class ArgumentBatch:
    """Semi-join / naive downlink payload: bare argument tuples."""

    call: RemoteCall
    argument_tuples: List[Tuple[Any, ...]]

    def __len__(self) -> int:
        return len(self.argument_tuples)


@dataclass
class ResultBatch:
    """Semi-join / naive uplink payload: one result per argument tuple, in order."""

    udf_name: str
    results: List[Any]

    def __len__(self) -> int:
        return len(self.results)


@dataclass
class PushedOperations:
    """Predicates and projections pushed to the client for a client-site join.

    ``predicate`` is evaluated over the *extended* client schema: the shipped
    record columns followed by one column per UDF result.  ``projection``
    lists the positions (into the same extended schema) of the columns to
    return; ``None`` returns everything.
    """

    predicate: Optional[Expression] = None
    projection: Optional[Tuple[int, ...]] = None
    extended_schema: Optional[Schema] = None


class _BatchRows:
    """Payload rows held as a columnar :class:`RowBatch` or as value tuples.

    The execution operators hand over whole :class:`RowBatch` es, so column
    buffers (typed arrays included) travel by reference end to end; tests and
    older call sites still pass plain row tuples.  Either reading — ``batch``
    or ``rows`` — is available whatever was stored, converted lazily and
    cached.
    """

    __slots__ = ("_batch", "_row_tuples")

    def _store_rows(self, rows: Union[RowBatch, Sequence[Sequence[Any]]]) -> None:
        if isinstance(rows, RowBatch):
            self._batch: Optional[RowBatch] = rows
            self._row_tuples: Optional[List[Tuple[Any, ...]]] = None
        else:
            self._batch = None
            self._row_tuples = [tuple(values) for values in rows]

    @property
    def batch(self) -> RowBatch:
        """The payload as a columnar batch."""
        if self._batch is None:
            self._batch = RowBatch([Row(values) for values in self._row_tuples])
        return self._batch

    @property
    def rows(self) -> List[Tuple[Any, ...]]:
        """The payload as plain value tuples, in shipping order."""
        if self._row_tuples is None:
            self._row_tuples = self._batch.key_tuples()
        return self._row_tuples

    def __len__(self) -> int:
        batch = self._batch
        return len(batch) if batch is not None else len(self._row_tuples)


class RecordBatch(_BatchRows):
    """Client-site join downlink payload: whole records plus pushed operations."""

    __slots__ = ("calls", "pushed")

    def __init__(
        self,
        calls: Sequence[RemoteCall],
        rows: Union[RowBatch, Sequence[Sequence[Any]]],
        pushed: Optional[PushedOperations] = None,
    ) -> None:
        self.calls = list(calls)
        self.pushed = pushed if pushed is not None else PushedOperations()
        self._store_rows(rows)


class RecordResultBatch(_BatchRows):
    """Client-site join uplink payload: surviving rows, projected, plus result values.

    ``rows`` are already in their final (projected) shape; ``origin_indexes``
    records which input rows survived, which the receiver uses only for
    accounting and tests.
    """

    __slots__ = ("origin_indexes",)

    def __init__(
        self,
        rows: Union[RowBatch, Sequence[Sequence[Any]]],
        origin_indexes: Sequence[int],
    ) -> None:
        self.origin_indexes = list(origin_indexes)
        self._store_rows(rows)


class FinalResultBatch(_BatchRows):
    """Result-delivery payload: rows of the query answer shipped to the client."""

    __slots__ = ()

    def __init__(self, rows: Union[RowBatch, Sequence[Sequence[Any]]]) -> None:
        self._store_rows(rows)
