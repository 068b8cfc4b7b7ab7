"""Naive execution of a client-site UDF (Section 2.1), on the overlapped wire.

This is the paper's strawman: treating the client-site UDF like an expensive
server-site UDF that happens to make a remote call.  The server ships a batch
of argument tuples (``StrategyConfig.batch_size``; the paper's setup is a
batch of one) and needs the client's reply before the corresponding rows can
proceed.  Shipping now runs over the shared overlapped request/response
protocol (:mod:`repro.core.execution.overlap`): with the default in-flight
window of 1 the wire behaviour is the paper's — one synchronous round trip
per batch, the full network latency paid every time, the pipeline never more
than one batch deep.  A wider window (``StrategyConfig.overlap_window``, or
the adaptive :class:`~repro.adaptive.controller.OverlapWindowController`)
keeps up to W batches outstanding, overlapping client computation with
network transfer exactly as the Figure 6 concurrency analysis prescribes —
the wire carries the same messages and bytes, just without the per-batch
stalls.

The only optimisation kept from the server-site world is [HN97]-style result
caching of duplicate argument tuples on the server, controlled by
``StrategyConfig.server_result_cache``.  Duplicate decisions are made at
*enqueue* time against everything already sent or in flight, so the wire
trace is identical whatever the window is.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Tuple

from repro.client.protocol import ArgumentBatch, RemoteCall, ResultBatch
from repro.core.execution.base import RemoteUdfOperator
from repro.network.message import MessageKind, end_of_stream, is_end_of_stream
from repro.relational.tuples import RowBatch


class NaiveUdfOperator(RemoteUdfOperator):
    """One client round trip per batch of input tuples, up to W in flight.

    ``carry_state`` (a :class:`~repro.core.execution.semijoin.SemiJoinSegmentState`)
    shares the server result cache across the segments of an adaptive
    execution, so a later segment does not re-ship arguments an earlier
    naive segment already resolved.
    """

    def __init__(self, *args, carry_state=None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.carry_state = carry_state

    def _drive(self, batch: RowBatch):
        simulator = self.context.simulator
        channel = self.context.channel
        call = RemoteCall(
            udf_name=self.udf.name,
            argument_positions=tuple(range(len(self.argument_columns))),
        )
        use_cache = self.config.server_result_cache
        carried = self.carry_state if use_cache else None
        # The naive strategy's historical wire behaviour is synchronous:
        # window 1 unless the config (or its controller) says otherwise.
        window = self.make_window(default=1)

        coded = batch.encode(self._argument_positions)
        keys = coded.keys
        slots, payloads, sizes = self.shipping_slots(batch, coded, by_code=use_cache)
        if use_cache:
            # ``resolved[code]`` is 1 once a code needs no shipping: answered
            # from the server cache (which earlier segments filled and which
            # does not change while the sender runs), or already sent or
            # pending.
            results_by_code, resolved = self.resolved_earlier(carried, keys)
        # The slots shipped, in shipping order: the receiver's results pair
        # with them positionally once both processes have finished.
        shipped_slots: List[int] = []
        shipped_results: List[Any] = []
        # Input rows acknowledged by each reply (cache-resolved rows between
        # flushes count toward the batch that follows them), FIFO.
        acknowledged: Deque[int] = deque()

        def sender():
            pending: List[Tuple[Any, ...]] = []
            pending_bytes = 0
            covered = 0

            def flush():
                nonlocal pending_bytes, covered
                self.refresh_window(window)
                if not window.acquire_now():
                    yield window.acquire()
                yield channel.send_batch_to_client(
                    MessageKind.UDF_ARGUMENTS,
                    ArgumentBatch(call=call, argument_tuples=list(pending)),
                    payload_bytes=pending_bytes,
                    row_count=len(pending),
                    description=f"naive {self.udf.name} x{len(pending)}",
                )
                acknowledged.append(covered)
                covered = pending_bytes = 0
                pending.clear()

            for slot in slots:
                covered += 1
                if use_cache:
                    if resolved[slot]:
                        continue
                    resolved[slot] = 1
                shipped_slots.append(slot)
                pending.append(payloads[slot])
                pending_bytes += sizes[slot]
                # Re-read the targets each time: adaptive controllers may
                # have moved the batch size or the window since the last send.
                if len(pending) >= self.next_batch_size():
                    yield from flush()
            if pending:
                yield from flush()
            yield channel.send_to_client(end_of_stream())

        def receiver():
            while True:
                reply = channel.poll_at_server() or (yield channel.receive_at_server())
                if is_end_of_stream(reply):
                    return
                self.check_reply(reply)
                window.release()
                result_batch: ResultBatch = reply.payload
                shipped_results.extend(result_batch.results)
                if acknowledged:
                    self.observe_batch(acknowledged.popleft())

        sender_process = simulator.process(sender(), name="naive.sender")
        receiver_process = simulator.process(receiver(), name="naive.receiver")
        # Wait for the receiver first: a client failure surfaces there even
        # while the sender is still blocked on a window slot.
        yield receiver_process
        yield sender_process
        self.finish_window(window)
        self.distinct_argument_count = len(keys)

        if use_cache:
            shipped_results = self.pair_results(
                coded, results_by_code, shipped_slots, shipped_results, carried
            )
        return self.extended_batch(batch, shipped_results)
