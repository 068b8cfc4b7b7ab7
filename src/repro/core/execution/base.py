"""Common machinery for the remote UDF execution operators."""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Sequence, Tuple

import math

from repro.errors import ExecutionError
from repro.client.udf import UdfDefinition
from repro.core.execution.context import RemoteExecutionContext
from repro.core.execution.overlap import InFlightWindow
from repro.core.strategies import StrategyConfig
from repro.network.message import Message, MessageKind
from repro.relational.columns import TypedColumn, build_typed_column
from repro.relational.operators.base import Operator
from repro.relational.operators.sort import nulls_first_order
from repro.relational.schema import Column, Schema
from repro.relational.tuples import (
    RowBatch,
    concat_batches,
    rows_size,
    values_size,
)


class RemoteUdfOperator(Operator):
    """Base class for operators that apply a client-site UDF to their input.

    The child's batches are materialised into one columnar input batch, the
    strategy-specific coordination coroutine (``_drive``) is run on the
    shared simulator via the execution context, and the resulting batch is
    re-chunked to the parent.  The output schema is the child schema
    extended with one result column named after the UDF (``<name>_result``),
    unless a subclass projects it differently.
    """

    def __init__(
        self,
        child: Operator,
        udf: UdfDefinition,
        argument_columns: Sequence[str],
        context: RemoteExecutionContext,
        config: Optional[StrategyConfig] = None,
        result_column_name: Optional[str] = None,
    ) -> None:
        super().__init__([child])
        if not argument_columns:
            raise ExecutionError(f"UDF {udf.name!r} needs at least one argument column")
        self.udf = udf
        self.argument_columns = list(argument_columns)
        self.context = context
        self.config = config if config is not None else StrategyConfig()

        self.child_schema = child.output_schema()
        self._argument_positions: Tuple[int, ...] = tuple(
            self.child_schema.index_of(name) for name in self.argument_columns
        )
        self.result_column = Column(
            result_column_name or udf.result_column_name, udf.result_dtype
        )
        #: Child schema plus the UDF result column; the client sees this shape
        #: when predicates/projections are pushed to it.
        self.extended_schema: Schema = self.child_schema.append(self.result_column)
        self.schema = self.extended_schema

        # Instrumentation filled in by _drive implementations.
        self.input_row_count = 0
        self.output_row_count = 0
        self.distinct_argument_count = 0
        # Overlap instrumentation (the shared shipping protocol's window).
        self.peak_in_flight_batches = 0
        self.send_stall_seconds = 0.0
        self.overlap_window_used: Optional[int] = None

    # -- operator protocol ------------------------------------------------------------

    def _execute_batches(self, batch_size: int) -> Iterator[RowBatch]:
        batch = concat_batches(
            list(self.child().execute_batches(batch_size)),
            column_count=len(self.child_schema),
        )
        self.input_row_count = len(batch)
        controller = self.config.controller_for(self.udf.name)
        if controller is not None:
            # Start the controller's inter-arrival clock at this operator's
            # first simulated instant, so idle time between remote operators
            # is not charged to the first batch.
            controller.begin_operation(self.context.simulator.now)
        output: RowBatch = self.context.run_remote(
            self._drive(batch), name=self.describe()
        )
        self.output_row_count = len(output)
        for start in range(0, len(output), batch_size):
            yield output.slice(start, start + batch_size)

    def _drive(self, batch: RowBatch):
        """Strategy-specific coordination coroutine (a simulation process)."""
        raise NotImplementedError

    # -- adaptive batch sizing ---------------------------------------------------------

    def next_batch_size(self) -> int:
        """Rows the next network message should carry (adaptive-aware)."""
        return self.config.next_batch_size(self.udf.name)

    def observe_batch(self, rows: int) -> None:
        """Report ``rows`` acknowledged input rows to this UDF's controllers.

        Both adaptive knobs — the batch size and the in-flight window — feed
        on the same rows/second signal; each hill-climbs its own ladder.
        """
        now = self.context.simulator.now
        controller = self.config.controller_for(self.udf.name)
        if controller is not None:
            controller.observe_rows(rows, now)
        window_controller = self.config.overlap_controller_for(self.udf.name)
        if window_controller is not None:
            window_controller.observe_rows(rows, now)

    # -- overlapped shipping -----------------------------------------------------------

    def make_window(self, default: Optional[float] = None) -> InFlightWindow:
        """The in-flight batch window for this operation's request stream.

        ``default`` is the strategy's historical window when neither an
        explicit ``overlap_window`` nor a controller is configured: 1 for
        synchronous shipping (naive), ``None``/inf for free streaming
        (semi-join, client-site join).
        """
        target = self.config.next_overlap_window(self.udf.name)
        if target is None:
            target = default
        capacity = float(target) if target is not None else math.inf
        return InFlightWindow(
            self.context.simulator,
            capacity=capacity,
            name=f"{type(self).__name__}.window",
        )

    def refresh_window(self, window: InFlightWindow, floor: int = 1) -> None:
        """Re-read the window target at a batch boundary (adaptive-aware)."""
        target = self.config.next_overlap_window(self.udf.name)
        if target is not None:
            window.resize(max(floor, target))

    def finish_window(self, window: InFlightWindow) -> None:
        """Record the window's instrumentation after the operation drains."""
        self.peak_in_flight_batches = max(
            self.peak_in_flight_batches, window.peak_in_flight
        )
        self.send_stall_seconds += window.stall_seconds
        self.overlap_window_used = window.capacity_or_none

    # -- shared helpers ----------------------------------------------------------------

    def argument_tuple(self, row: Sequence[Any]) -> Tuple[Any, ...]:
        """Extract the UDF's argument values from a child row."""
        return tuple(row[position] for position in self._argument_positions)

    def argument_tuples(self, batch: RowBatch) -> List[Tuple[Any, ...]]:
        """All argument tuples of the batch, straight off the column buffers."""
        return batch.key_tuples(self._argument_positions)

    def argument_bytes(self, arguments: Sequence[Any]) -> int:
        return values_size(arguments)

    def argument_sizer(self, batch: RowBatch):
        """A ``tuples -> payload bytes`` sizer specialised to this batch.

        When every argument column is typed and NULL-free, each tuple sizes
        to the same constant (the columns' widths), so a batch payload is
        one multiply; otherwise the sizer sums values exactly like
        :func:`values_size` per tuple.
        """
        if len(batch):
            columns = batch.columns
            widths = []
            for position in self._argument_positions:
                column = columns[position]
                if isinstance(column, TypedColumn) and column.null_count == 0:
                    widths.append(column.width)
                else:
                    widths.append(None)
            if widths and all(width is not None for width in widths):
                tuple_width = sum(widths)
                return lambda tuples: tuple_width * len(tuples)
        return lambda tuples: sum(values_size(arguments) for arguments in tuples)

    def records_size(self, rows: Sequence[Sequence[Any]]) -> int:
        """Wire size of many child rows, via the schema's cached size plan.

        Accepts a :class:`RowBatch` directly — its typed columns and size
        memo make repeated costing of the same payload O(1).
        """
        return rows_size(rows, self.child_schema)

    def sorted_batch_by_arguments(
        self, batch: RowBatch
    ) -> Tuple[RowBatch, List[Tuple[Any, ...]]]:
        """``(batch stably sorted by argument tuples, the sorted tuples)``.

        Duplicates end up adjacent, NULLs first; an input already in
        argument order comes back unchanged (identity).
        """
        arguments = self.argument_tuples(batch)
        order = nulls_first_order(arguments)
        if all(index == position for position, index in enumerate(order)):
            return batch, arguments
        return batch.take(order), [arguments[index] for index in order]

    def extended_batch(self, batch: RowBatch, results: List[Any]) -> RowBatch:
        """The input batch plus the UDF result column (typed when eligible)."""
        column = build_typed_column(results, self.udf.result_dtype) or results
        return RowBatch.from_columns(list(batch.columns) + [column], len(batch))

    def check_reply(self, message: Message) -> Message:
        """Raise :class:`ExecutionError` when the client reported a failure."""
        if message.kind is MessageKind.ERROR:
            raise ExecutionError(
                f"client-site execution of {self.udf.name!r} failed: {message.payload}"
            ) from (message.payload if isinstance(message.payload, BaseException) else None)
        return message

    def describe(self) -> str:
        return (
            f"{type(self).__name__}({self.udf.name} on "
            f"{', '.join(self.argument_columns)})"
        )
