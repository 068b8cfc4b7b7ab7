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
caching of duplicate argument tuples on the server: each distinct tuple is
shipped once.  Duplicate decisions are made at *enqueue* time against
everything already sent or in flight, so the wire trace is identical
whatever the window is.

The sender is a generator driven by calls, not a process
(``RemoteUdfOperator.exchange``): it yields each request batch, or the
window when no slot is free, and resumes when that request's transmission
ends — in the kernel entry a process's event would have taken.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Tuple

from repro.client.protocol import RemoteCall, ResultBatch
from repro.core.execution.base import RemoteUdfOperator
from repro.network.message import end_of_stream
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
        call = RemoteCall(
            udf_name=self.udf.name,
            argument_positions=tuple(range(len(self.argument_columns))),
        )
        # The naive strategy's historical wire behaviour is synchronous:
        # window 1 unless the config (or its controller) says otherwise.
        window = self.make_window(default=1)

        coded = batch.encode(self._argument_positions)
        # Each distinct tuple ships once, at its first occurrence's size.
        keys, sizes = coded.keys, coded.sizes
        # ``resolved[code]`` is 1 once a code needs no shipping: answered
        # from the server cache (which earlier segments filled and which
        # does not change while the sender runs), or already sent or
        # pending.
        results_by_code, resolved = self.resolved_earlier(self.carry_state, keys)
        # The codes shipped, in shipping order: the replies' results pair
        # with them positionally once the sender and the replies have ended.
        shipped_codes: List[int] = []
        shipped_results: List[Any] = []
        # Input rows acknowledged by each reply (cache-resolved rows between
        # flushes count toward the batch that follows them), FIFO.
        acknowledged: Deque[int] = deque()

        def sender():
            pending: List[Tuple[Any, ...]] = []
            pending_bytes = 0
            covered = 0
            for code in coded.codes:
                covered += 1
                if resolved[code]:
                    continue
                resolved[code] = 1
                shipped_codes.append(code)
                pending.append(keys[code])
                pending_bytes += sizes[code]
                # Re-read the targets each time: adaptive controllers may
                # have moved the batch size or the window since the last send.
                if len(pending) >= self.next_batch_size():
                    if not self.slot_now(window):
                        yield window
                    yield self.argument_message(call, pending, pending_bytes, "naive ")
                    acknowledged.append(covered)
                    pending, pending_bytes, covered = [], 0, 0
            if pending:
                if not self.slot_now(window):
                    yield window
                yield self.argument_message(call, pending, pending_bytes, "naive ")
                acknowledged.append(covered)
            yield end_of_stream()

        def take_reply(result_batch: ResultBatch) -> None:
            shipped_results.extend(result_batch.results)
            if acknowledged:
                self.observe_batch(acknowledged.popleft())

        yield from self.exchange("naive", sender(), take_reply, window)
        self.context.book_window(window)
        self.distinct_argument_count = len(keys)

        results = self.pair_results(
            coded, results_by_code, shipped_codes, shipped_results, self.carry_state
        )
        return self.extended_batch(batch, results)
