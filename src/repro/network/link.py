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

from typing import Callable, Optional, Sequence, Tuple

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
        self.bandwidth_schedule: Tuple[Tuple[float, float], ...] = tuple(schedule)
        if scheduler is not None:
            scheduler.attach(self)

    # -- transfer -----------------------------------------------------------------

    def bandwidth_at(self, time: float) -> float:
        """The link's bandwidth in effect at simulation time ``time``."""
        bandwidth = self.bandwidth
        for start, value in self.bandwidth_schedule:
            if time >= start:
                bandwidth = value
            else:
                break
        return bandwidth

    def send(self, message: Message, then: Optional[Callable[[Message], None]] = None) -> Optional[Event]:
        """Ship ``message``; ``then(message)`` runs when serialisation ends.

        The end of serialisation lets the *sender* proceed as soon as the
        link is free again (it models the network card accepting the next
        message): it is one kernel entry, ``then(message)``, so a sender
        driven by calls resumes without an event.  Without ``then`` — a
        caller that waits as a process — an event is built and returned,
        fired by that same entry.  Delivery into the destination store
        happens ``latency`` seconds after serialisation completes.
        """
        if self._closed:
            raise ChannelClosedError(f"link {self.name!r} is closed")
        if self.scheduler is not None:
            return self.scheduler.submit(self, message, then)
        event = None
        if then is None:
            event = Event(self.simulator, name=(self.name, ".tx#", message.sequence))
            then = event.succeed_now
        simulator = self.simulator
        now = simulator._now
        start = max(now, self._free_at)
        bandwidth = self.bandwidth_at(start) if self.bandwidth_schedule else self.bandwidth
        transmission = message.size_bytes / bandwidth
        finish_tx = start + transmission
        self._free_at = finish_tx

        self.stats.record(message, start - now, transmission)

        simulator._schedule_call(finish_tx - now, then, message)
        # Delivery into the destination mailbox after propagation.  Nobody
        # can wait on it, so it is a call, not an event; being the whole
        # kernel entry, it may wake the mailbox's reader in place.
        simulator._schedule_call((finish_tx + self.latency) - now, self.destination.deliver, message)
        return event

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

    def __repr__(self) -> str:
        return (
            f"Link({self.name!r}, {self.bandwidth:g} B/s, latency={self.latency:g}s, "
            f"{self.stats.message_count} msgs, {self.stats.total_bytes} B)"
        )
