"""Server-side admission control: bounded concurrency with pluggable ordering.

Unbounded multi-tenancy lets every arriving query immediately contend for
the shared trunks, which destroys tail latency: a burst of bulk queries all
make slow progress together.  The admission scheduler gates query starts
behind a pool of executor slots (:class:`~repro.server.executor.ExecutorSlots`)
and decides *which* waiting query gets the next free slot:

* ``FIFO`` — arrival order, the classic fair-but-tail-blind policy;
* ``SHORTEST_JOB_FIRST`` — the query with the smallest predicted cost (from
  the optimizer's :class:`~repro.core.optimizer.decision.OptimizerDecision`
  estimate, or a caller-supplied prediction) goes first.  Point queries no
  longer wait behind bulk scans, which is where the p99 win comes from.

Grants are delivered as simulation events, so admission waits are part of
the deterministic discrete-event timeline, not host-side bookkeeping.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional

from repro.network.events import Event
from repro.network.simulator import Simulator
from repro.server.executor import ExecutorSlots


class AdmissionPolicy(Enum):
    """How the scheduler orders waiting queries for free slots."""

    FIFO = "fifo"
    SHORTEST_JOB_FIRST = "sjf"


@dataclass
class AdmissionTicket:
    """One query's place in the admission queue.

    The ``grant`` event fires (with the ticket as its value) when a slot is
    assigned; :attr:`wait_seconds` is then the simulated admission delay.
    """

    label: str
    tenant_id: Optional[str]
    session_id: Optional[str]
    predicted_cost_seconds: Optional[float]
    requested_at: float
    grant: Event
    arrival_index: int
    granted_at: Optional[float] = None
    released: bool = field(default=False, repr=False)

    @property
    def admitted(self) -> bool:
        return self.granted_at is not None

    @property
    def wait_seconds(self) -> float:
        if self.granted_at is None:
            return 0.0
        return self.granted_at - self.requested_at


class AdmissionScheduler:
    """Grants executor slots to waiting queries in policy order."""

    def __init__(
        self,
        simulator: Simulator,
        slots: ExecutorSlots,
        policy: AdmissionPolicy = AdmissionPolicy.FIFO,
    ) -> None:
        self.simulator = simulator
        self.slots = slots
        self.policy = policy
        self._waiting: List[AdmissionTicket] = []
        self._arrivals = itertools.count()
        # Aggregate bookkeeping for the traffic report.
        self.grants = 0
        self.peak_queue_depth = 0
        self.total_wait_seconds = 0.0

    # -- protocol ------------------------------------------------------------------

    def request(
        self,
        label: str = "query",
        predicted_cost_seconds: Optional[float] = None,
        tenant_id: Optional[str] = None,
        session_id: Optional[str] = None,
    ) -> AdmissionTicket:
        """Queue a query for admission; await ``ticket.grant`` to proceed."""
        ticket = AdmissionTicket(
            label=label,
            tenant_id=tenant_id,
            session_id=session_id,
            predicted_cost_seconds=predicted_cost_seconds,
            requested_at=self.simulator.now,
            grant=Event(self.simulator, name=("admit.", label)),
            arrival_index=next(self._arrivals),
        )
        self._waiting.append(ticket)
        self.peak_queue_depth = max(self.peak_queue_depth, len(self._waiting))
        self._dispatch()
        return ticket

    def release(self, ticket: AdmissionTicket) -> None:
        """Return ``ticket``'s slot to the pool and admit the next waiter."""
        if ticket.released:
            return
        ticket.released = True
        self.slots.release()
        self._dispatch()

    # -- dispatch ------------------------------------------------------------------

    def _select_next(self) -> AdmissionTicket:
        if self.policy is AdmissionPolicy.SHORTEST_JOB_FIRST:
            return min(
                self._waiting,
                key=lambda t: (
                    t.predicted_cost_seconds
                    if t.predicted_cost_seconds is not None
                    else float("inf"),
                    t.arrival_index,
                ),
            )
        return min(self._waiting, key=lambda t: t.arrival_index)

    def _dispatch(self) -> None:
        while self._waiting and self.slots.try_acquire():
            ticket = self._select_next()
            self._waiting.remove(ticket)
            ticket.granted_at = self.simulator.now
            self.grants += 1
            self.total_wait_seconds += ticket.wait_seconds
            # Delivered through the event queue so admission interleaves
            # deterministically with in-flight network events.
            ticket.grant.succeed(ticket, delay=0.0)

    # -- introspection --------------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return len(self._waiting)

    def __repr__(self) -> str:
        return (
            f"AdmissionScheduler(policy={self.policy.value}, "
            f"waiting={len(self._waiting)}, grants={self.grants}, "
            f"slots={self.slots!r})"
        )
