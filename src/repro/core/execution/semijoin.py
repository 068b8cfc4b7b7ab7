"""Semi-join execution of a client-site UDF (Sections 2.3.1 and 3.1.1).

Architecture (paper Figure 3): on the server a *sender* and a *receiver* run
concurrently, coupled by a bounded pipeline whose capacity is the pipeline
concurrency factor.

* The sender walks the input (sorted and grouped on the argument columns),
  eliminates argument duplicates and ships only the argument columns of new
  argument tuples on the downlink; every tuple it ships takes a pipeline
  slot first.
* The client evaluates the UDF on each received argument tuple and ships the
  bare result back on the uplink.
* The receiver — calls, not a process (``RemoteUdfOperator.exchange``) —
  wakes once per reply.  Results come back in shipping order,
  so it pairs them positionally with the shipped argument tuples (a merge
  join on the sorted argument key), caches each, and only then releases the
  tuple's pipeline slot — at most ``concurrency_factor`` argument tuples are
  in flight at any instant, and a factor of 1 degenerates to tuple-at-a-time
  execution, exactly as in the paper.

Rows that ship nothing (argument duplicates) cost the simulation nothing: the
result column is assembled from the result cache after the sender and the
reply stream have ended, so the hand-off between them is per reply, not per
row.
"""

from __future__ import annotations

import math
from typing import Any, List, Optional, Sequence, Tuple

from repro.client.protocol import ArgumentBatch, RemoteCall, ResultBatch
from repro.core.concurrency import recommended_batched_concurrency_factor
from repro.core.execution.base import RemoteUdfOperator, SemiJoinSegmentState
from repro.core.execution.overlap import InFlightWindow
from repro.network.message import MessageKind, batch_message, end_of_stream
from repro.relational.tuples import RowBatch


class SemiJoinUdfOperator(RemoteUdfOperator):
    """Pipelined semi-join between the input relation and the virtual UDF table.

    ``carry_state`` (a :class:`SemiJoinSegmentState`) plugs in externally
    owned duplicate-elimination state, so segmented executions do not re-ship
    arguments an earlier segment already resolved; ``None`` keeps the
    operator self-contained.
    """

    def __init__(self, *args, carry_state: Optional[SemiJoinSegmentState] = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.carry_state = carry_state

    def effective_concurrency_factor(self, sample_row: Optional[Sequence[Any]] = None) -> int:
        """The configured pipeline concurrency factor, or the analytic B·T choice.

        The analysis is batch-aware: with ``batch_size`` rows per message the
        per-tuple overhead share shrinks (raising throughput) but a tuple's
        traversal time includes its whole batch's serialisation, so the
        window must span at least two batches to keep the bottleneck busy.
        """
        if self.config.concurrency_factor is not None:
            return self.config.concurrency_factor
        if self.context.network is None or sample_row is None:
            return max(8, 2 * self.config.batch_size)  # safe default without a network
        arguments = self.argument_tuple(sample_row)
        request_bytes = self.argument_bytes(arguments)
        response_bytes = (
            self.udf.result_size_bytes
            if self.udf.result_size_bytes is not None
            else max(8, request_bytes)
        )
        return recommended_batched_concurrency_factor(
            self.context.network,
            request_payload_bytes=request_bytes,
            response_payload_bytes=response_bytes,
            client_seconds_per_tuple=self.udf.cost_per_call_seconds,
            batch_size=self.config.batch_size,
        )

    def _drive(self, batch: RowBatch):
        simulator = self.context.simulator
        channel = self.context.channel

        batch, coded = self.sorted_batch_by_arguments(batch)
        keys = coded.keys

        factor = self.effective_concurrency_factor(batch[0] if len(batch) else None)
        # A batch only leaves the sender once it is full, so the pipeline must
        # admit at least one whole batch or the sender would block on a slot
        # while holding an unsent batch (deadlock).  An explicitly pinned
        # concurrency factor is otherwise respected as configured; the
        # analytic path already double-buffers (two batches) on its own.
        # Under adaptive control the window instead *tracks* the controller:
        # it starts double-buffered at the current batch size and grows with
        # it (see the sender), so a run converged at batch 8 is not simulated
        # with the buffering of the controller's maximum.
        adaptive = self._batch_controller is not None
        if adaptive:
            factor = max(factor, 2 * self.next_batch_size())
        else:
            factor = max(factor, self.config.batch_size)

        call = RemoteCall(
            udf_name=self.udf.name,
            argument_positions=tuple(range(len(self.argument_columns))),
        )
        # Argument tuples shipped (or about to be) whose results have not yet
        # been received hold a slot here; capacity = concurrency factor.
        pipeline = InFlightWindow(simulator, capacity=factor, name="semijoin.pipeline")
        # The shared protocol's *batch*-level window, layered over the tuple
        # pipeline: historically the semi-join sender streams any batch the
        # pipeline admits, so the default is unbounded; an explicit
        # overlap_window (or its controller) bounds the argument batches
        # outstanding on the wire directly.
        window = self.make_window(default=None)

        eliminate = self.config.eliminate_duplicates
        carried = self.carry_state if eliminate else None
        slots, payloads, sizes = self.shipping_slots(batch, coded, by_code=eliminate)
        if eliminate:
            # ``shipped[code]`` is 1 once a tuple has shipped — here or in an
            # earlier segment.
            results_by_code, shipped = self.resolved_earlier(carried, keys)
        # The handoff between sender and receiver is per reply, not per row:
        # the sender notes the slots it ships, the receiver collects the
        # results of each reply, and since the two streams are in the same
        # order they are paired positionally once both have finished.
        shipped_slots: List[int] = []
        shipped_results: List[Any] = []
        quiet = simulator.quiet

        def sender():
            pending_batch: List[Tuple[Any, ...]] = []
            pending_bytes = 0

            def flush():
                nonlocal pending_bytes
                message = batch_message(
                    MessageKind.UDF_ARGUMENTS,
                    ArgumentBatch(call=call, argument_tuples=list(pending_batch)),
                    payload_bytes=pending_bytes,
                    row_count=len(pending_batch),
                    description=("semijoin ", self.udf.name, " x", len(pending_batch)),
                )
                pending_batch.clear()
                pending_bytes = 0
                return message

            for slot in slots:
                # Every row is a scheduling point: at a busy instant (say the
                # shared trunk's same-instant tick is still queued behind the
                # transmission that resumed this sender) the sender steps
                # behind what is already queued before it ships anything more.
                if not quiet():
                    yield simulator.instant
                if eliminate:
                    if shipped[slot]:
                        continue
                    shipped[slot] = 1
                # Re-read the target at every batch boundary: an adaptive
                # controller may have changed it since the last flush.  The
                # pipeline must stay double-buffered at the current target
                # *before* the slot is taken, or a grown batch could block on
                # a slot while holding an unsent batch (deadlock).
                target = self.next_batch_size()
                if adaptive and 2 * target > pipeline.capacity:
                    pipeline.resize(2 * target)
                if not pipeline.acquire_now():
                    yield pipeline.acquire()
                shipped_slots.append(slot)
                pending_batch.append(payloads[slot])
                pending_bytes += sizes[slot]
                if len(pending_batch) >= target:
                    yield from self.ship(window, flush)
            if pending_batch:
                yield from self.ship(window, flush)
            if not quiet():
                yield simulator.instant
            yield channel.send_to_client(end_of_stream())

        def take_reply(result_batch: ResultBatch) -> None:
            self.observe_batch(len(result_batch.results))
            shipped_results.extend(result_batch.results)
            # Only once a tuple's result is in hand is its slot released.
            for _ in result_batch.results:
                pipeline.release()

        yield from self.exchange("semijoin", sender(), take_reply, window)
        self.peak_pipeline_occupancy = pipeline.peak_in_flight
        # The pipeline may have grown with the controller; book what it ended at.
        self.context.book_window(window, concurrency_factor=int(pipeline.capacity))
        self.distinct_argument_count = len(keys)
        # With duplicate elimination every row's result is known by code (its
        # own shipment's, an earlier row's, or an earlier segment's);
        # without it every row was shipped, in input order.
        if eliminate:
            results = self.pair_results(
                coded, results_by_code, shipped_slots, shipped_results, carried
            )
        else:
            results = shipped_results
        # Results are in record order — the argument-sorted input
        # order — so the output is the input batch plus one column.
        return self.extended_batch(batch, results)
