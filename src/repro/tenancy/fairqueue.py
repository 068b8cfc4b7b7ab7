"""Shared-trunk link scheduling: FIFO and deficit round robin across flows.

In the single-query experiments each query owns its channel and the two
:class:`~repro.network.link.Link` objects serialise messages on a private
timeline.  Under multi-tenancy many sessions share one physical connection:
each session still gets its own :class:`~repro.network.channel.Channel`
(private mailboxes, private per-session statistics), but the links delegate
serialisation to a shared *trunk scheduler* attached via ``Link.scheduler``.

Two disciplines are provided:

* :class:`FifoLinkScheduler` — messages transmit in arrival order, exactly
  like one big shared link.  A single bulk session can starve point queries.
* :class:`DeficitRoundRobinScheduler` — classic DRR (Shreedhar & Varghese):
  per-flow queues, a round-robin active list, and a byte *quantum* credited
  once per visit.  A backlogged flow is guaranteed at least ``1/N`` of the
  trunk's bytes (minus one maximum-message-size of slack) regardless of how
  aggressively other flows push.

Both disciplines are work-conserving, and with a single flow both degrade to
the exact transmission timeline of the legacy private-link path — the same
start times, the same sender-completion times, the same delivery times —
which keeps single-session wire traces byte-identical with tenancy enabled.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Tuple

from repro.errors import SimulationError
from repro.network.events import Event
from repro.network.link import Link
from repro.network.message import Message
from repro.network.simulator import Simulator
from repro.network.stats import LinkStats

#: Default DRR quantum.  Roughly one typical mid-size batch frame; small
#: enough that point-query messages interleave into bulk transfers promptly,
#: large enough that bulk flows are not pathologically fragmented.
DEFAULT_QUANTUM_BYTES = 2048


class _Transmission(Event):
    """One message on the trunk: queue entry, sender-side completion, chaining step.

    It is the event :meth:`LinkScheduler.submit` hands the sender, and the
    kernel entry that fires it is the trunk's whole same-instant work for the
    message: the sender's callbacks, then the delivery when it lands at this
    very instant (a zero-latency link), then the scheduler's
    :meth:`~LinkScheduler._start_next`.  That order is part of the wire
    schedule: whether a sender submits its next message before or after the
    chaining step decides who transmits next.
    """

    __slots__ = ("scheduler", "link", "message", "size_bytes", "flow", "enqueued_at", "delivers")

    def __init__(self, scheduler: "LinkScheduler", link: Link, message: Message) -> None:
        Event.__init__(self, scheduler.simulator)
        self.scheduler = scheduler
        self.link = link
        self.message = message
        self.size_bytes = message.size_bytes
        self.flow = link.flow or link.name
        self.enqueued_at = scheduler.simulator.now
        #: Whether this entry also delivers (set when transmission starts).
        self.delivers = False

    @property
    def name(self) -> str:
        return f"{self.scheduler.name}.tx#{self.message.sequence}"

    def _process(self) -> None:
        # The chaining step is runnable at this instant without being on the
        # heap, exactly like a sibling callback: the sender's callbacks and
        # the delivery must see a busy instant.
        simulator = self.simulator
        simulator._fanout += 1
        try:
            Event._process(self)
            if self.delivers:
                self.link.destination.deliver(self.message)
        finally:
            simulator._fanout -= 1
        self.scheduler._start_next()


class LinkScheduler:
    """Base class for shared trunk schedulers.

    Subclasses implement the queueing discipline via :meth:`_enqueue` and
    :meth:`_dequeue`; the base class owns the transmission machinery: one
    message serialises at a time (at the submitting link's bandwidth, so
    per-direction drift schedules still apply), the sender event fires when
    serialisation ends, and delivery lands in the submitting link's own
    destination mailbox ``latency`` seconds later.

    A message is booked once into each ledger it belongs to: the submitting
    link's private :class:`LinkStats` (per-session accounting) and the
    trunk's own (cross-session totals).  The trunk's split by flow is the
    attached links' ledgers, folded by flow when it is read.
    """

    def __init__(self, simulator: Simulator, name: str = "trunk") -> None:
        self.simulator = simulator
        self.name = name
        #: Trunk-level statistics across every flow sharing this scheduler.
        self.stats = LinkStats(name=name)
        self._transmitting = False
        self._queued_count = 0

    # -- discipline hooks ---------------------------------------------------------

    def _enqueue(self, item: _Transmission) -> None:
        raise NotImplementedError

    def _dequeue(self) -> Optional[_Transmission]:
        raise NotImplementedError

    # -- submission ----------------------------------------------------------------

    def attach(self, link: Link) -> None:
        """Called once by every link built on this trunk, before it submits."""
        self.stats.adopt(link.flow or link.name, link.stats)

    def submit(self, link: Link, message: Message) -> Event:
        """Accept ``message`` from ``link``; returns the sender-side event.

        The event fires when the trunk finishes serialising the message —
        the shared-trunk analogue of :meth:`Link.send`'s return value.
        """
        item = _Transmission(self, link, message)
        self._enqueue(item)
        self._queued_count += 1
        if not self._transmitting:
            self._start_next()
        return item

    # -- transmission --------------------------------------------------------------

    def _start_next(self) -> None:
        item = self._dequeue()
        if item is None:
            self._transmitting = False
            return
        self._queued_count -= 1
        self._transmitting = True
        now = self.simulator.now
        link = item.link
        message = item.message
        bandwidth = link.bandwidth_at(now) if link.bandwidth_schedule else link.bandwidth
        transmission = item.size_bytes / bandwidth
        queued_for = now - item.enqueued_at

        link.stats.record(message, queued_for, transmission)
        self.stats.record(message, queued_for, transmission)

        # The sender unblocks when serialisation ends, and the same entry
        # chains to the next queued message (see _Transmission).
        item.succeed(message, delay=transmission)

        # Delivery into the submitting link's own mailbox after propagation:
        # a call entry of its own, unless it lands on the completion's
        # instant, where the completion entry delivers after the sender's
        # callbacks.
        item.delivers = now + (transmission + link.latency) == now + transmission
        if not item.delivers:
            self.simulator._schedule_call(transmission + link.latency, link.destination.deliver, message)

    # -- introspection -------------------------------------------------------------

    @property
    def busy(self) -> bool:
        return self._transmitting

    @property
    def queue_depth(self) -> int:
        """Messages waiting behind the one currently serialising."""
        return self._queued_count

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.name!r}, queued={self._queued_count}, "
            f"{self.stats.message_count} msgs, {self.stats.total_bytes} B)"
        )


class FifoLinkScheduler(LinkScheduler):
    """Strict arrival-order service: one shared serialisation timeline."""

    def __init__(self, simulator: Simulator, name: str = "trunk-fifo") -> None:
        super().__init__(simulator, name=name)
        self._queue: Deque[_Transmission] = deque()

    def _enqueue(self, item: _Transmission) -> None:
        self._queue.append(item)

    def _dequeue(self) -> Optional[_Transmission]:
        if not self._queue:
            return None
        return self._queue.popleft()


class _Flow:
    """One flow's place in the DRR round: its queued messages and byte deficit."""

    __slots__ = ("queue", "deficit")

    def __init__(self) -> None:
        self.queue: Deque[_Transmission] = deque()
        self.deficit = 0.0


class DeficitRoundRobinScheduler(LinkScheduler):
    """Deficit round robin across session flows sharing one trunk.

    Each flow keeps a FIFO queue and a byte *deficit counter*.  The scheduler
    visits active flows round-robin; on each visit the flow's deficit grows
    by ``quantum_bytes`` and the flow transmits head-of-line messages while
    its deficit covers them.  A flow that empties its queue forfeits its
    remaining deficit (the standard rule that bounds unfairness to one
    quantum plus one maximum message).
    """

    def __init__(
        self,
        simulator: Simulator,
        name: str = "trunk-drr",
        quantum_bytes: int = DEFAULT_QUANTUM_BYTES,
    ) -> None:
        if quantum_bytes <= 0:
            raise SimulationError("DRR quantum must be positive")
        super().__init__(simulator, name=name)
        self.quantum_bytes = int(quantum_bytes)
        self._flows: Dict[str, _Flow] = {}
        #: The backlogged flows, in round order.
        self._active: Deque[_Flow] = deque()
        #: Whether the flow at the head of the active list still needs its
        #: quantum credited for the current visit.
        self._fresh_visit = True

    def _enqueue(self, item: _Transmission) -> None:
        flow = self._flows.get(item.flow)
        if flow is None:
            flow = self._flows[item.flow] = _Flow()
        if not flow.queue:
            # (Re-)activation: join the round at the back with a clean slate.
            flow.deficit = 0.0
            self._active.append(flow)
            if len(self._active) == 1:
                self._fresh_visit = True
        flow.queue.append(item)

    def _dequeue(self) -> Optional[_Transmission]:
        active = self._active
        while active:
            flow = active[0]
            if self._fresh_visit:
                flow.deficit += self.quantum_bytes
                self._fresh_visit = False
            head = flow.queue[0]
            if flow.deficit >= head.size_bytes:
                flow.deficit -= head.size_bytes
                flow.queue.popleft()
                if not flow.queue:
                    # Idle flows forfeit their deficit and leave the round.
                    flow.deficit = 0.0
                    active.popleft()
                    self._fresh_visit = True
                return head
            # Deficit exhausted: move this flow to the back of the round.
            active.rotate(-1)
            self._fresh_visit = True
        return None


def shared_trunks(
    simulator: Simulator,
    discipline: str = "drr",
    quantum_bytes: int = DEFAULT_QUANTUM_BYTES,
    name: str = "trunk",
) -> Tuple[LinkScheduler, LinkScheduler]:
    """Build a (downlink, uplink) pair of trunk schedulers.

    ``discipline`` is ``"drr"`` (deficit round robin) or ``"fifo"`` (one
    shared serialisation line).  A query run outside a trunk — what
    :meth:`Database.execute` does — has private links instead.
    """
    if discipline == "fifo":
        return (
            FifoLinkScheduler(simulator, name=f"{name}.down"),
            FifoLinkScheduler(simulator, name=f"{name}.up"),
        )
    if discipline == "drr":
        return (
            DeficitRoundRobinScheduler(simulator, name=f"{name}.down", quantum_bytes=quantum_bytes),
            DeficitRoundRobinScheduler(simulator, name=f"{name}.up", quantum_bytes=quantum_bytes),
        )
    raise ValueError(f"unknown trunk discipline {discipline!r} (want 'drr' or 'fifo')")
