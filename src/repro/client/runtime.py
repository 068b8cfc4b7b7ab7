"""The client runtime: serves UDF requests from a channel's client mailbox.

The runtime owns the client's UDF registry and serves the wire protocol of
:mod:`repro.client.protocol`.  It models the client machine of the paper's
experiments: each UDF invocation costs simulated CPU time, pushed-down
predicates and projections are applied locally, and only the surviving,
projected data is shipped back over the uplink.

Serving is a chain of kernel-entry calls, not a simulation process, because
the client only reacts to arrivals: its mailbox calls it with each message
(:meth:`Store.read <repro.network.resources.Store.read>`), the answer is
sent by a call scheduled after the simulated compute time, and the next read
is the reply's ``then``: the call that ends its transmission.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.errors import UdfError
from repro.client.cache import ResultCache
from repro.client.protocol import (
    ArgumentBatch,
    FinalResultBatch,
    PushedOperations,
    RecordBatch,
    RecordResultBatch,
    ResultBatch,
)
from repro.client.registry import UdfRegistry
from repro.client.udf import UdfDefinition, UdfSite
from repro.network.channel import Channel
from repro.network.events import Event
from repro.network.message import (
    Message,
    MessageKind,
    batch_message,
    end_of_stream,
    error_message,
    is_end_of_stream,
)
from repro.network.resources import StoreReader
from repro.relational.tuples import RowBatch


class ClientRuntime:
    """Hosts client-site UDFs and answers the server's execution requests."""

    def __init__(
        self,
        registry: Optional[UdfRegistry] = None,
        name: str = "client",
        use_result_cache: bool = True,
    ) -> None:
        self.registry = registry if registry is not None else UdfRegistry()
        self.name = name
        self.use_result_cache = use_result_cache
        self.cache = ResultCache()

        # Instrumentation.
        self.udf_invocations = 0
        self.cache_hits = 0
        self.compute_seconds = 0.0
        #: Per-UDF breakdown of the two counters above (keys lower-cased) —
        #: what the adaptive runtime observes measured per-call costs from.
        self.invocations_by_udf: dict = {}
        self.compute_seconds_by_udf: dict = {}
        self.rows_received = 0
        self.rows_returned = 0
        self.delivered_rows: List[Tuple[Any, ...]] = []
        self.messages_handled = 0
        #: Data batches served (argument, record and final-result payloads;
        #: control/error traffic excluded) and the largest one seen — the
        #: client-side view of the batching the server actually achieved.
        self.batches_handled = 0
        self.largest_batch = 0
        #: The pushed predicate bound last, with the PushedOperations object
        #: it belongs to.
        self._pushed_filter: Optional[Tuple[PushedOperations, Callable]] = None

    # -- lifecycle -------------------------------------------------------------------

    def start(self, channel: Channel) -> Event:
        """Serve ``channel`` from its simulator's current instant on.

        Returns the event that fires once the end of stream is acknowledged
        — or fails with the exception that stopped the serving.
        """
        return _Serving(self, channel).start()

    # -- handlers: ``payload -> (compute_seconds, reply)`` -----------------------------

    def _handle_argument_batch(self, batch: ArgumentBatch) -> Tuple[float, Message]:
        udf = self.registry.get(batch.call.udf_name)
        self.rows_received += len(batch)
        results, compute = self._invoke_batch(udf, batch.argument_tuples)
        self.rows_returned += len(results)
        return compute, batch_message(
            MessageKind.UDF_RESULT,
            ResultBatch(udf_name=udf.name, results=results),
            payload_bytes=udf.results_size(results),
            row_count=len(results),
            sender=self.name,
            description=(len(results), " results"),
        )

    def _handle_record_batch(self, batch: RecordBatch) -> Tuple[float, Message]:
        udfs = [self.registry.get(call.udf_name) for call in batch.calls]
        record = batch.batch
        self.rows_received += len(record)
        compute = 0.0
        result_columns: List[List[Any]] = []
        # Argument tuples come off the column buffers in bulk; the calls of
        # a batch run one after the other, each over every row.
        for call, udf in zip(batch.calls, udfs):
            results, cost = self._invoke_batch(udf, record.key_tuples(call.argument_positions))
            compute += cost
            result_columns.append(results)

        extended = RowBatch.from_columns(list(record.columns) + result_columns, len(record))
        surviving, origins = self._apply_pushed_operations(batch, extended)
        self.rows_returned += len(surviving)
        return compute, batch_message(
            MessageKind.RECORDS_WITH_RESULTS,
            RecordResultBatch(rows=surviving, origin_indexes=origins),
            payload_bytes=surviving.values_bytes(),
            row_count=len(surviving),
            sender=self.name,
            description=(len(surviving), "/", len(record), " rows"),
        )

    # -- helpers ---------------------------------------------------------------------

    def _record_batch_size(self, size: int) -> None:
        self.batches_handled += 1
        if size > self.largest_batch:
            self.largest_batch = size

    def _apply_pushed_operations(
        self, batch: RecordBatch, extended: RowBatch
    ) -> Tuple[RowBatch, List[int]]:
        """Apply pushed predicate and projection to the UDF-extended batch."""
        pushed = batch.pushed
        if pushed.predicate is not None and pushed.extended_schema is not None:
            # Every record batch of one client-site join carries the same
            # PushedOperations object: bind its predicate once per operator,
            # not once per batch.
            if self._pushed_filter is None or self._pushed_filter[0] is not pushed:
                self._pushed_filter = (
                    pushed,
                    pushed.predicate.bind(
                        pushed.extended_schema, self.registry.callables(UdfSite.CLIENT)
                    ),
                )
            keep = self._pushed_filter[1]
            origins = [
                index for index, values in enumerate(extended.key_tuples()) if keep(values)
            ]
            surviving = extended.take(origins)
        else:
            surviving = extended
            origins = list(range(len(extended)))
        if pushed.projection is not None:
            surviving = surviving.project(pushed.projection)
        return surviving, origins

    def _invoke_batch(
        self, udf: UdfDefinition, argument_tuples: Sequence[Sequence[Any]]
    ) -> Tuple[List[Any], float]:
        """Invoke ``udf`` on each tuple in turn; returns (results, cpu_seconds).

        What the batch fixes — the UDF's cache key prefix, its per-call cost,
        the result cache — is read once; each tuple then consults the cache,
        and arguments that cannot be hashed are invoked uncached.  The
        counters run in locals and are stored even when an invocation
        raises, each float summed in the order the invocations ran.
        """
        cache = self.cache if self.use_result_cache else None
        udf_key = udf.name.lower()
        # The client charges the *actual* per-call cost, which may differ
        # from the declared one the planner believes.
        cost = udf.runtime_cost_per_call_seconds
        invoke = udf.invoke
        results: List[Any] = []
        append = results.append
        hits = 0
        invocations = self.udf_invocations
        compute = 0.0
        compute_total = self.compute_seconds
        compute_of_udf = self.compute_seconds_by_udf.get(udf_key, 0.0)
        try:
            for arguments in argument_tuples:
                key = None
                if cache is not None:
                    # ResultCache.key_for, the name lowered once per batch.
                    key = (udf_key, tuple(arguments))
                    try:
                        found, cached = cache.get(key)
                    except TypeError:
                        key = None  # unhashable arguments: invoke, do not cache
                    else:
                        if found:
                            hits += 1
                            append(cached)
                            continue
                invocations += 1
                result = invoke(arguments)
                compute += cost
                compute_total += cost
                compute_of_udf += cost
                if key is not None:
                    cache.put(key, result)
                append(result)
        finally:
            self.udf_invocations = invocations  # a failed attempt counts here only
            self.cache_hits += hits
            completed = len(results) - hits
            if completed:
                self.invocations_by_udf[udf_key] = (
                    self.invocations_by_udf.get(udf_key, 0) + completed
                )
                self.compute_seconds = compute_total
                self.compute_seconds_by_udf[udf_key] = compute_of_udf
        return results, compute

    def invocations_of(self, udf_name: str) -> int:
        """Invocations of the named UDF this runtime has performed."""
        return self.invocations_by_udf.get(udf_name.lower(), 0)

    def compute_seconds_of(self, udf_name: str) -> float:
        """Simulated CPU seconds the named UDF has consumed on this client."""
        return self.compute_seconds_by_udf.get(udf_name.lower(), 0.0)

    def __repr__(self) -> str:
        return (
            f"ClientRuntime({self.name!r}, udfs={self.registry.names()}, "
            f"invocations={self.udf_invocations})"
        )


class _Serving(StoreReader):
    """One :meth:`ClientRuntime.start`: the serve loop as kernel-entry calls.

    A message that needs an answer is answered by :meth:`reply` once its
    compute time has passed, and the mailbox is read on (:meth:`read_on`,
    the reply's ``then``) when the reply has left; ``done`` fires once the
    end of stream's acknowledgement has (:meth:`finish`).
    """

    __slots__ = ("runtime", "channel")

    #: The messages answered with a reply: ``handler(runtime, payload)``.
    HANDLERS = {
        MessageKind.UDF_ARGUMENTS: ClientRuntime._handle_argument_batch,
        MessageKind.RECORDS: ClientRuntime._handle_record_batch,
    }

    def __init__(self, runtime: ClientRuntime, channel: Channel) -> None:
        super().__init__(channel.client_inbox, (runtime.name, ".serve"))
        self.runtime = runtime
        self.channel = channel

    def react(self, message: Message) -> bool:
        runtime = self.runtime
        runtime.messages_handled += 1
        kind = message.kind
        if kind is MessageKind.CONTROL:
            if is_end_of_stream(message):
                self.channel.send_to_server(end_of_stream(sender=runtime.name), self.finish)
                return True
            return False
        if kind is MessageKind.FINAL_RESULTS:
            batch: FinalResultBatch = message.payload
            runtime._record_batch_size(len(batch))
            runtime.delivered_rows.extend(batch.rows)
            return False
        # Everything else is answered with one reply, after the simulated
        # time the answer took to compute; a failure is the reply.
        try:
            handle = self.HANDLERS.get(kind)
            if handle is None:
                raise UdfError(f"unexpected message kind {kind}")
            runtime._record_batch_size(len(message.payload))
            compute, reply = handle(runtime, message.payload)
        except UdfError as exc:
            compute, reply = 0.0, error_message(exc, sender=runtime.name)
        if compute > 0:
            self.store.simulator._schedule_call(compute, self.reply, reply)
        else:
            self.reply(reply)
        return True

    def reply(self, message: Message) -> None:
        try:
            self.channel.send_to_server(message, self.read_on)
        except Exception as exc:  # noqa: BLE001 - fails ``done``, not the kernel
            self.done.fail(exc)

    def read_on(self, _reply: Message) -> None:
        self.take(None)

    def finish(self, _acknowledgement: Message) -> None:
        self.done.succeed()
