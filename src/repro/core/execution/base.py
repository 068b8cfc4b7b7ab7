"""Common machinery for the remote UDF execution operators."""

from __future__ import annotations

from itertools import accumulate
from typing import Any, Callable, Dict, Generator, Iterator, List, Optional, Sequence, Tuple

import math

from repro.errors import ExecutionError
from repro.client.protocol import ArgumentBatch, RemoteCall
from repro.client.udf import UdfDefinition
from repro.core.execution.context import RemoteExecutionContext
from repro.core.execution.overlap import InFlightWindow
from repro.core.strategies import StrategyConfig
from repro.network.events import INSTANT, Event
from repro.network.message import Message, MessageKind, batch_message, is_end_of_stream
from repro.network.resources import StoreReader
from repro.relational.expressions import Expression
from repro.relational.keys import KeyCodes
from repro.relational.operators.base import Operator
from repro.relational.schema import Column, Schema
from repro.relational.tuples import RowBatch, concat_batches, values_size


#: Marks a distinct argument tuple no earlier segment has a result for.
UNRESOLVED = object()


class SemiJoinSegmentState:
    """Duplicate-elimination state a semi-join carries across plan segments.

    Segmented (adaptive / migrating) executions run one plain semi-join
    operator per segment.  Without shared state each segment re-ships the
    argument tuples earlier segments already eliminated — the client's result
    cache still answers them without re-invoking the UDF, but the wire pays
    the argument and result bytes again and ``rows_transferred`` double
    counts.  One instance of this state per (UDF, query) makes the segment
    sequence byte-identical to a single unsegmented semi-join run:
    ``results`` is the server-side result of every argument tuple an earlier
    segment shipped — a tuple is already shipped exactly when it has one,
    because every segment drains before the next begins.  The naive
    strategy's server result cache is the same state.
    """

    __slots__ = ("results",)

    def __init__(self) -> None:
        self.results: Dict[Tuple[Any, ...], Any] = {}


class RemoteUdfOperator(Operator):
    """Base class for operators that apply a client-site UDF to their input.

    The child's batches are materialised into one columnar input batch, the
    strategy-specific coordination coroutine (``_drive``) is run on the
    shared simulator via the execution context, and the resulting batch is
    re-chunked to the parent.  The output schema is the child schema
    extended with one result column named after the UDF (``<name>_result``),
    unless a subclass projects it differently.

    What the query counts — input rows, the in-flight window's peak and
    stalls — is booked on the context; the operator keeps only its own row
    counts, which the runtime observer reads per UDF.
    """

    #: The predicate applied before the output, when one is (client-site join).
    pushable_predicate: Optional[Expression] = None

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

    @property
    def stage_views(self) -> Tuple["RemoteUdfOperator"]:
        """What the runtime observer reads per UDF: this operator itself."""
        return (self,)

    # -- operator protocol ------------------------------------------------------------

    def _execute_batches(self, batch_size: int) -> Iterator[RowBatch]:
        batch = concat_batches(
            list(self.child().execute_batches(batch_size)),
            column_count=len(self.child_schema),
        )
        self.input_row_count = len(batch)
        self.context.book_input_rows(len(batch))
        # Pacing is resolved once per operation; a controller (``None``
        # where the size is static) is still asked at every batch boundary.
        name = self.udf.name
        self._batch_controller = controller = self.config.controller_for(name)
        self._window_controller = self.config.overlap_controller_for(name)
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
        controller = self._batch_controller
        return self.config.batch_size if controller is None else controller.current()

    def observe_batch(self, rows: int) -> None:
        """Report ``rows`` acknowledged input rows to this UDF's controllers.

        Both adaptive knobs — the batch size and the in-flight window — feed
        on the same rows/second signal; each hill-climbs its own ladder.
        """
        controller, window_controller = self._batch_controller, self._window_controller
        if controller is None and window_controller is None:
            return
        now = self.context.simulator.now
        if controller is not None:
            controller.observe_rows(rows, now)
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

    def slot_now(self, window: InFlightWindow) -> bool:
        """Whether the next request may leave ``window`` now.

        The window target is re-read at the batch boundary (only a
        controller can have moved it from what :meth:`make_window` built the
        window with) and a slot taken in place when that reorders nothing
        (:meth:`InFlightWindow.acquire_now`).  On False the sender yields
        ``window`` and is resumed once it holds a slot; either way the
        message is built only then, so messages are numbered in the order
        they leave.
        """
        controller = self._window_controller
        if controller is not None:
            window.resize(max(1, controller.current()))
        return window.acquire_now()

    def exchange(
        self, name: str, sender: Generator, take_reply: Callable[[Any], None], window: InFlightWindow
    ):
        """Run ``sender`` while the replies are taken, until the reply stream ends.

        Both sides are calls, not processes.  The sender is a generator
        driven by its own transmission ends (a :class:`_Sender`): it yields
        the next message to send, ``Simulator.instant`` for a same-instant
        hop, or an :class:`InFlightWindow` to wait for a slot in.  The
        replies are taken by a :class:`StoreReader`: each raises a client
        failure, frees the reply's window slot and hands the payload to
        ``take_reply``.  The reply stream's end is awaited first: a client
        failure surfaces there even while the sender is blocked on a slot
        that will never be freed, and a sender's failure (a closed channel)
        fails it too, since the stream cannot end without the sender's end
        of stream.
        """
        replies = _ReplyTaker(self, name, take_reply, window)
        sending = _Sender(self.context, name, sender, replies.done).start()
        yield replies.start()
        yield sending

    # -- shared helpers ----------------------------------------------------------------

    def argument_message(
        self, call: RemoteCall, arguments: List[Tuple[Any, ...]], payload_bytes: int, label: str
    ) -> Message:
        """One request carrying argument tuples ``arguments`` to the client."""
        return batch_message(
            MessageKind.UDF_ARGUMENTS,
            ArgumentBatch(call=call, argument_tuples=arguments),
            payload_bytes,
            len(arguments),
            description=(label, self.udf.name, " x", len(arguments)),
        )

    def argument_tuple(self, row: Sequence[Any]) -> Tuple[Any, ...]:
        """Extract the UDF's argument values from a child row."""
        return tuple(row[position] for position in self._argument_positions)

    def argument_tuples(self, batch: RowBatch) -> List[Tuple[Any, ...]]:
        """All argument tuples of the batch, straight off the column buffers."""
        return batch.key_tuples(self._argument_positions)

    def argument_bytes(self, arguments: Sequence[Any]) -> int:
        return values_size(arguments)

    def shipping_slots(self, batch: RowBatch, coded: KeyCodes, by_code: bool):
        """``(slots, payloads, sizes)``: what each row of an argument shipper ships.

        A row's *slot* indexes its argument tuple and that tuple's wire size.
        ``by_code`` (duplicates ship once) makes the slot the row's code:
        each distinct tuple ships as its first occurrence, at that
        occurrence's size.  Otherwise the slot is the row itself, sized from
        its own values — equal tuples need not size equally
        (``1 == 1.0 == True``).
        """
        if by_code:
            return coded.codes, coded.keys, coded.sizes
        return (
            range(len(batch)),
            self.argument_tuples(batch),
            batch.value_sizes(self._argument_positions),
        )

    @staticmethod
    def resolved_earlier(
        state: Optional[SemiJoinSegmentState], keys: List[Tuple[Any, ...]]
    ) -> Tuple[List[Any], bytearray]:
        """``(results_by_code, resolved)`` as earlier segments left them in ``state``.

        Per distinct tuple: its result, :data:`UNRESOLVED` where there is
        none (everywhere without a state), and a flag — 1 where there is
        one — for the sender to raise as it ships the rest.  The state is
        probed once per distinct tuple, not once per row.
        """
        if state is None:
            return [UNRESOLVED] * len(keys), bytearray(len(keys))
        results = state.results
        results_by_code = [results.get(key, UNRESOLVED) for key in keys]
        return results_by_code, bytearray(
            result is not UNRESOLVED for result in results_by_code
        )

    @staticmethod
    def pair_results(
        coded: KeyCodes,
        results_by_code: List[Any],
        shipped_codes: List[int],
        shipped_results: List[Any],
        state: Optional[SemiJoinSegmentState],
    ) -> List[Any]:
        """One result per row, once every distinct tuple has one.

        Replies come back in shipping order, so ``shipped_results`` pairs
        positionally with ``shipped_codes``; they fill the gaps earlier
        segments left in ``results_by_code`` and are left in ``state`` for
        later ones.
        """
        for code, result in zip(shipped_codes, shipped_results):
            results_by_code[code] = result
        if state is not None:
            state.results.update(
                zip(map(coded.keys.__getitem__, shipped_codes), shipped_results)
            )
        return [results_by_code[code] for code in coded.codes]

    def record_offsets(self, batch: RowBatch) -> List[int]:
        """Wire bytes of the child rows before each row (and, last, of them all).

        The input is sized once, a column at a time; rows ``start:stop``
        then cost ``offsets[stop] - offsets[start]`` whatever the chunking.
        """
        return list(accumulate(batch.row_sizes(self.child_schema), initial=0))

    def sorted_batch_by_arguments(self, batch: RowBatch) -> Tuple[RowBatch, KeyCodes]:
        """``(batch stably sorted by argument tuples, its argument codes)``.

        Duplicates end up adjacent, NULLs first; an input already in
        argument order comes back unchanged (identity).  Only the distinct
        argument tuples are compared — the rows sort by integer.  The codes
        (one hash pass per operation) then serve duplicate elimination,
        result pairing and the distinct count as well.
        """
        coded = batch.encode(self._argument_positions)
        order = coded.order()
        if order == list(range(len(order))):
            return batch, coded
        return batch.take(order), coded.take(order)

    def extended_batch(self, batch: RowBatch, results: List[Any]) -> RowBatch:
        """The input batch plus the UDF result column."""
        return RowBatch.from_columns(list(batch.columns) + [results], len(batch))

    def check_reply(self, message: Message) -> Message:
        """Raise :class:`ExecutionError` when the client reported a failure."""
        if message.kind is MessageKind.ERROR:
            raise ExecutionError(
                f"client-site execution of {self.udf.name!r} failed: {message.payload}"
            ) from (message.payload if isinstance(message.payload, BaseException) else None)
        return message

    described = ("udf", "argument_columns")

    def describe(self) -> str:
        return (
            f"{type(self).__name__}({self.udf.name} on "
            f"{', '.join(self.argument_columns)})"
        )


class _ReplyTaker(StoreReader):
    """The reply side of :meth:`RemoteUdfOperator.exchange`: ``done`` fires
    at the end of stream, or fails with the exception a reply raised."""

    __slots__ = ("operator", "take_reply", "window")

    def __init__(
        self,
        operator: RemoteUdfOperator,
        name: str,
        take_reply: Callable[[Any], None],
        window: InFlightWindow,
    ) -> None:
        super().__init__(operator.context.channel.server_inbox, (name, ".replies"))
        self.operator = operator
        self.take_reply = take_reply
        self.window = window

    def react(self, reply: Message) -> bool:
        if is_end_of_stream(reply):
            self.done.succeed()
            return True
        self.operator.check_reply(reply)
        self.window.release()
        self.take_reply(reply.payload)
        return False


class _Sender:
    """The sending side of :meth:`RemoteUdfOperator.exchange`: a sender
    generator driven by kernel-entry calls, not a process.

    The generator's frame holds what lives across its waits (the batch
    being filled, the slots shipped); what it yields says how it is resumed.
    A message is sent with :meth:`resume` as the send's ``then``, so the
    transmission end resumes the sender in its own entry; ``INSTANT`` is a
    call entry at ``now``; a window parks :meth:`resume` until it admits.
    Each is the entry a process's event would have taken, at the same time
    and sequence number.  ``done`` fires when the generator returns, or
    fails with what it (or a send) raised — never out of ``Simulator.step``
    — and so does ``stream_end``, the reply stream's end, if it is pending.
    """

    __slots__ = ("generator", "simulator", "send", "done", "stream_end")

    def __init__(
        self, context: RemoteExecutionContext, name: str, generator: Generator, stream_end: Event
    ) -> None:
        self.generator = generator
        self.simulator = context.simulator
        self.send = context.channel.send_to_client
        self.done = Event(context.simulator, (name, ".sender"))
        self.stream_end = stream_end

    def start(self) -> Event:
        """Run from the current instant on (one call entry at ``now``, where a
        process would start); returns ``done``."""
        self.simulator._schedule_call(0.0, self.resume, None)
        return self.done

    def resume(self, _value: Any) -> None:
        """Advance the generator to its next wait and arrange its end."""
        try:
            step = self.generator.send(None)
            if step is INSTANT:
                self.simulator._schedule_call(0.0, self.resume, None)
            elif type(step) is InFlightWindow:
                step.acquire(self.resume)
            else:
                self.send(step, self.resume)
        except StopIteration:
            self.done.succeed()
        except Exception as exc:  # noqa: BLE001 - fails ``done``, not the kernel
            self.done.fail(exc)
            if not self.stream_end.triggered:
                self.stream_end.fail(exc)
