"""Client-site join execution of a client-site UDF (Sections 2.3.2 and 3.1.3).

The server ships the *whole* input records to the client.  The client
evaluates the UDF on each record, appends the result column, applies any
pushable predicates and projections locally, and ships only the surviving,
projected rows back to the server.  Sender and receiver on the server do not
need to coordinate (there is no bounded buffer): the full records flow
through the client, so the uplink stream is self-describing.  Both are
calls, not processes (``RemoteUdfOperator.exchange``): the sender is a
generator that yields each record batch (or the window, when one bounds it)
and resumes when the batch has left.

Compared with the semi-join this trades *more* downlink traffic (full
records, duplicates included) for *less* uplink traffic whenever the pushable
predicate is selective and/or the pushable projection is narrow — the central
tradeoff measured in Figures 8-10.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple

from repro.client.protocol import PushedOperations, RecordBatch, RecordResultBatch, RemoteCall
from repro.core.execution.base import RemoteUdfOperator
from repro.core.execution.context import RemoteExecutionContext
from repro.core.strategies import StrategyConfig
from repro.client.udf import UdfDefinition
from repro.network.message import MessageKind, batch_message, end_of_stream
from repro.relational.expressions import Expression
from repro.relational.operators.base import Operator
from repro.relational.tuples import RowBatch, concat_batches


class ClientSiteJoinOperator(RemoteUdfOperator):
    """Ships whole records to the client; pushes predicates and projections there.

    Parameters beyond the base class:

    pushable_predicate:
        A predicate over the *extended* schema (child columns plus the UDF
        result column).  When ``config.push_predicates`` is set it is
        evaluated at the client before anything is shipped back; otherwise it
        is applied on the server after the rows return, so the operator's
        output rows are identical either way and only the bytes differ.
    output_columns:
        Names (in the extended schema) of the columns the operator should
        output — the pushable projection.  ``None`` keeps every column.
    """

    def __init__(
        self,
        child: Operator,
        udf: UdfDefinition,
        argument_columns: Sequence[str],
        context: RemoteExecutionContext,
        config: Optional[StrategyConfig] = None,
        pushable_predicate: Optional[Expression] = None,
        output_columns: Optional[Sequence[str]] = None,
        result_column_name: Optional[str] = None,
    ) -> None:
        super().__init__(
            child,
            udf,
            argument_columns,
            context,
            config=config,
            result_column_name=result_column_name,
        )
        self.pushable_predicate = pushable_predicate
        self.output_columns = list(output_columns) if output_columns is not None else None
        if self.output_columns is not None:
            self._projection_positions: Optional[Tuple[int, ...]] = tuple(
                self.extended_schema.index_of(name) for name in self.output_columns
            )
            self.schema = self.extended_schema.select_positions(self._projection_positions)
        else:
            self._projection_positions = None
            self.schema = self.extended_schema

    # -- coordination -------------------------------------------------------------------

    def _drive(self, batch: RowBatch):
        # Sorting groups argument duplicates so the client's result cache
        # avoids recomputation; it does not change what is shipped.
        batch, coded = self.sorted_batch_by_arguments(batch)
        self.distinct_argument_count = coded.count

        call = RemoteCall(udf_name=self.udf.name, argument_positions=self._argument_positions)
        push_predicate = self.config.push_predicates and self.pushable_predicate is not None
        # The projection may only be pushed when the predicate is pushed too
        # (or there is no predicate): otherwise the client would project away
        # the result column the server-side filter still needs.
        push_projection = (
            self.config.push_projections
            and self._projection_positions is not None
            and (push_predicate or self.pushable_predicate is None)
        )
        pushed = PushedOperations(
            predicate=self.pushable_predicate if push_predicate else None,
            projection=self._projection_positions if push_projection else None,
            extended_schema=self.extended_schema,
        )

        # The client answers record batches in arrival order, so pairing the
        # sent batch sizes FIFO with the replies attributes each reply to the
        # *input* rows it acknowledges — surviving-row counts would confound
        # the throughput signal with the predicate's selectivity.
        sent_sizes: Deque[int] = deque()
        # Historically the sender streams freely (the downlink is the only
        # brake); an explicit overlap_window (or its controller) bounds the
        # record batches outstanding on the wire instead.
        window = self.make_window(default=None)

        # The input is sized once; a chunk's bytes are a difference of offsets.
        offsets = self.record_offsets(batch)

        def sender():
            start = 0
            total = len(batch)
            while start < total:
                # Re-read the targets at every batch boundary: adaptive
                # controllers may have moved them since the last send.
                chunk = batch.slice(start, start + self.next_batch_size())
                payload_bytes = offsets[start + len(chunk)] - offsets[start]
                start += len(chunk)
                sent_sizes.append(len(chunk))
                if not self.slot_now(window):
                    yield window
                yield batch_message(
                    MessageKind.RECORDS,
                    RecordBatch(calls=[call], rows=chunk, pushed=pushed),
                    payload_bytes,
                    len(chunk),
                    description=("csj ", self.udf.name, " x", len(chunk)),
                )
            yield end_of_stream()

        collected: List[RowBatch] = []

        def take_reply(reply: RecordResultBatch) -> None:
            collected.append(reply.batch)
            if sent_sizes:
                self.observe_batch(sent_sizes.popleft())

        yield from self.exchange("clientjoin", sender(), take_reply, window)
        self.context.book_window(window)

        reply_width = (
            len(self.schema) if push_projection else len(self.extended_schema)
        )
        output = concat_batches(collected, column_count=reply_width)
        return self._finish_on_server(output, push_predicate, push_projection)

    # -- server-side completion (ablation paths) ------------------------------------------

    def _finish_on_server(
        self, batch: RowBatch, pushed_predicate: bool, pushed_projection: bool
    ) -> RowBatch:
        """Apply whatever was *not* pushed to the client, so results are identical."""
        if not pushed_predicate and self.pushable_predicate is not None:
            batch = batch.filter(self.pushable_predicate.bind(self.extended_schema))
        if not pushed_projection and self._projection_positions is not None:
            batch = batch.project(self._projection_positions)
        return batch
