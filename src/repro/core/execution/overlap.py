"""The shared overlapped request/response shipping protocol.

Every execution strategy ships its downlink payload as a stream of request
batches and consumes a stream of replies.  This module provides the one
mechanism they all share: a bounded *in-flight window* of request batches
outstanding on the wire.  The sender acquires a window slot before each
request message leaves the server and the receiver releases a slot per reply
it consumes, so up to ``capacity`` batches overlap — the server keeps
producing (and the links keep transferring) while earlier batches are still
at the client.  This generalises the semi-join's sender/receiver pipeline
(paper Figure 3 / Section 3.1.2) to all three strategies, with the window
counted in *batches* rather than tuples:

* a window of 1 is synchronous shipping — one request on the wire at a time,
  the paper's naive strategy;
* an unbounded window is free streaming — the client-site join's historical
  behaviour, where the sender runs ahead as fast as the downlink drains;
* anything between bounds the overlap, which is what mid-query adaptation
  (:class:`~repro.adaptive.controller.OverlapWindowController`) tunes.

The window is also the protocol's instrumentation point: it records the peak
number of batches actually in flight and the simulated time the sender spent
stalled waiting for a slot, which the executor surfaces on
:class:`~repro.server.metrics.ExecutionMetrics`.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Optional, Tuple

from repro.errors import SimulationError
from repro.network.events import Event


class InFlightWindow:
    """Bounds the number of request batches outstanding on the wire.

    A counting semaphore over simulated time: :meth:`acquire` returns an
    event that fires once a slot is free (immediately while fewer than
    ``capacity`` batches are in flight), :meth:`release` frees a slot.
    ``capacity`` may be ``math.inf`` for free streaming and may be *resized*
    mid-run by an adaptive controller — shrinking takes effect as in-flight
    batches drain, so nothing already on the wire is disturbed.

    The semi-join's tuple pipeline is the same semaphore counted in argument
    tuples instead of batches.
    """

    def __init__(
        self,
        simulator: "Simulator",  # noqa: F821
        capacity: float = math.inf,
        name: str = "overlap.window",
    ) -> None:
        if capacity < 1:
            raise SimulationError("InFlightWindow capacity must be at least 1")
        self.simulator = simulator
        self.capacity = capacity
        self.name = name
        self.in_flight = 0
        self._waiters: Deque[Tuple[Event, float]] = deque()
        # Instrumentation: the overlap the run actually reached, and the time
        # the sender spent blocked on a full window.
        self.peak_in_flight = 0
        self.stall_seconds = 0.0
        self.acquired_total = 0

    # -- operations -------------------------------------------------------------

    def acquire(self) -> Event:
        """An event that fires once one more batch may leave the server.

        A free slot nobody queues for is taken now, and the event is
        ``Simulator.instant``: the same-instant hop, without an event."""
        if not self._waiters and self.in_flight < self.capacity:
            self._admit()
            return self.simulator.instant
        event = Event(self.simulator, name=(self.name, ".acquire"))
        self._waiters.append((event, self.simulator.now))
        return event

    def acquire_now(self) -> bool:
        """Take a slot in place when that cannot reorder the simulation.

        True when a slot is free, nobody queues for one and the instant is
        quiet (:meth:`~repro.network.simulator.Simulator.quiet`): the slot is
        taken and counted exactly as by :meth:`acquire`, minus its same-instant
        hop.  On False the caller falls back to ``yield window.acquire()``.
        """
        if self._waiters or self.in_flight >= self.capacity or not self.simulator.quiet():
            return False
        self._admit()
        return True

    def release(self) -> None:
        """Mark one in-flight batch as answered, waking a blocked sender."""
        if self.in_flight <= 0:
            raise SimulationError(f"{self.name}: release() without a matching acquire")
        self.in_flight -= 1
        if self._waiters:
            self._dispatch()

    def resize(self, capacity: float) -> None:
        """Change the window size mid-run (never below 1).

        Growing admits blocked senders immediately; shrinking simply stops
        admitting new batches until the in-flight count drains below the new
        capacity.
        """
        self.capacity = max(1, capacity)
        self._dispatch()

    # -- introspection ----------------------------------------------------------

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.capacity)

    @property
    def capacity_or_none(self) -> Optional[int]:
        """The capacity as an int, or ``None`` when unbounded."""
        return int(self.capacity) if self.bounded else None

    # -- internal ---------------------------------------------------------------

    def _admit(self) -> None:
        self.in_flight += 1
        self.acquired_total += 1
        if self.in_flight > self.peak_in_flight:
            self.peak_in_flight = self.in_flight

    def _dispatch(self) -> None:
        while self._waiters and self.in_flight < self.capacity:
            event, enqueued_at = self._waiters.popleft()
            self._admit()
            self.stall_seconds += self.simulator.now - enqueued_at
            event.succeed()

    def __repr__(self) -> str:
        capacity = f"{self.capacity:g}" if self.bounded else "inf"
        return (
            f"InFlightWindow({self.name!r}, in_flight={self.in_flight}, "
            f"capacity={capacity}, peak={self.peak_in_flight})"
        )
