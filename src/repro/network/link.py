"""Directed network links with bandwidth and propagation latency.

A link serialises messages one at a time at its ``bandwidth`` (bytes per
second); a message then propagates for ``latency`` seconds before arriving at
the destination mailbox.  Because serialisation occupies the link but
propagation does not, multiple messages can be "in flight" concurrently —
exactly the behaviour that makes pipeline concurrency worthwhile in the paper
(Figure 2b): while one message propagates, the next is already being
transmitted.

A link's bandwidth may *drift* over simulated time via a piecewise-constant
``bandwidth_schedule`` — the mechanism behind the adaptive-runtime drift
scenarios, where the effective bandwidth a query observes differs from the
configured one and only runtime feedback can recover it.

A link may also delegate its serialisation to a shared *scheduler* (a trunk
shared by many sessions, see :mod:`repro.tenancy.fairqueue`): the link then
keeps its own per-session statistics and destination mailbox, but the actual
transmission order and timing are decided by the scheduler — FIFO or deficit
round robin across all the flows sharing the trunk.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.errors import ChannelClosedError, SimulationError
from repro.network.events import Event
from repro.network.message import Message
from repro.network.resources import Store
from repro.network.stats import LinkStats


class Link:
    """A unidirectional link delivering messages into a destination store."""

    def __init__(
        self,
        simulator: "Simulator",  # noqa: F821
        name: str,
        bandwidth_bytes_per_sec: float,
        latency_seconds: float = 0.0,
        destination: Optional[Store] = None,
        bandwidth_schedule: Optional[Sequence[Tuple[float, float]]] = None,
        scheduler: Optional[object] = None,
        flow: Optional[str] = None,
    ) -> None:
        if bandwidth_bytes_per_sec <= 0:
            raise SimulationError("link bandwidth must be positive")
        if latency_seconds < 0:
            raise SimulationError("link latency must be non-negative")
        self.simulator = simulator
        self.name = name
        self.bandwidth = float(bandwidth_bytes_per_sec)
        self.latency = float(latency_seconds)
        self.destination = destination if destination is not None else Store(simulator, name=f"{name}.inbox")
        self.stats = LinkStats(name=name)
        #: A shared trunk scheduler (``attach(link)`` once, then
        #: ``submit(link, message)``): when set, this link's messages are
        #: serialised by the trunk instead of the link's private ``_free_at``
        #: timeline.
        self.scheduler = scheduler
        #: The session flow this link's traffic is attributed to (tenancy).
        self.flow = flow
        self._free_at = 0.0
        self._closed = False
        #: Piecewise-constant drift: sorted ``(start_time, bandwidth)`` steps.
        #: Before the first step the base ``bandwidth`` applies.
        schedule = sorted(bandwidth_schedule) if bandwidth_schedule else []
        for _, value in schedule:
            if value <= 0:
                raise SimulationError("scheduled bandwidths must be positive")
        self._schedule: Tuple[Tuple[float, float], ...] = tuple(schedule)
        if scheduler is not None:
            scheduler.attach(self)

    # -- transfer -----------------------------------------------------------------

    def bandwidth_at(self, time: float) -> float:
        """The link's bandwidth in effect at simulation time ``time``."""
        bandwidth = self.bandwidth
        for start, value in self._schedule:
            if time >= start:
                bandwidth = value
            else:
                break
        return bandwidth

    def transmission_time(self, message: Message, at_time: Optional[float] = None) -> float:
        """Seconds the link is occupied serialising ``message``."""
        time = at_time if at_time is not None else self.simulator.now
        return message.size_bytes / self.bandwidth_at(time)

    def send(self, message: Message) -> Event:
        """Ship ``message``; returns an event that fires when serialisation ends.

        The returned event lets the *sender* proceed as soon as the link is
        free again (it models the network card accepting the next message);
        delivery into the destination store happens ``latency`` seconds after
        serialisation completes.
        """
        if self._closed:
            raise ChannelClosedError(f"link {self.name!r} is closed")
        if self.scheduler is not None:
            return self.scheduler.submit(self, message)
        now = self.simulator.now
        start = max(now, self._free_at)
        transmission = self.transmission_time(message, at_time=start)
        finish_tx = start + transmission
        self._free_at = finish_tx

        self.stats.record(message, start - now, transmission)

        # Event for the sender: the link has finished serialising the message.
        sender_event = Event(self.simulator, name=(self.name, ".tx#", message.sequence))
        sender_event.succeed(message, delay=finish_tx - now)

        # Delivery into the destination mailbox after propagation.  Nobody
        # waits on the mailbox put, so it is posted without an event.
        arrival_delay = (finish_tx + self.latency) - now
        delivery_event = Event(self.simulator, name=(self.name, ".rx#", message.sequence))
        delivery_event.add_callback(self._deliver)
        delivery_event.succeed(message, delay=arrival_delay)

        return sender_event

    def _deliver(self, event: Event) -> None:
        # The only callback of a delivery event, so this ends the kernel
        # entry and the mailbox may wake its reader in place.  (A trunk that
        # delivers inside its completion entry holds the fan-out flag, so the
        # mailbox sees a busy instant there and schedules the wake-up.)
        self.destination.deliver(event._value)

    def close(self) -> None:
        """Refuse any further sends (used for failure-injection tests)."""
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    # -- introspection --------------------------------------------------------------

    @property
    def bytes_transferred(self) -> int:
        return self.stats.total_bytes

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of elapsed time the link spent serialising messages."""
        elapsed = elapsed if elapsed is not None else self.simulator.now
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.stats.busy_seconds / elapsed)

    def __repr__(self) -> str:
        return (
            f"Link({self.name!r}, {self.bandwidth:g} B/s, latency={self.latency:g}s, "
            f"{self.stats.message_count} msgs, {self.stats.total_bytes} B)"
        )
