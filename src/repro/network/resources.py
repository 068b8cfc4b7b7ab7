"""Simulation resources: bounded FIFO stores.

A :class:`Store` is the synchronisation primitive used throughout the
execution strategies:

* the *pipeline buffer* between the semi-join sender and receiver is a store
  whose capacity is the pipeline concurrency factor (Section 3.1.2);
* mailboxes at each end of a channel are unbounded stores that messages are
  delivered into.

``put`` blocks (the putting process waits) while the store is full; ``get``
blocks while it is empty.  Both are FIFO, preserving stream order.

Both return an event, for callers that really wait.  Three shortcuts exist
for callers that do not, and none can reorder the simulation: :meth:`Store.post`
enters an item whose arrival nobody waits on (a link delivering into a
mailbox) without creating the completion event that would be dropped unread;
:meth:`Store.get_now` takes an item that is already there without a
zero-delay event when the instant is quiet
(:meth:`~repro.network.simulator.Simulator.quiet`); and :meth:`Store.deliver`
is :meth:`Store.post` for a caller that ends its kernel entry, which may then
wake the getter parked on the store in place.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Deque, Optional, Tuple

from repro.errors import SimulationError
from repro.network.events import Event


class Store:
    """A bounded FIFO buffer usable from simulation processes."""

    def __init__(self, simulator: "Simulator", capacity: float = math.inf, name: str = "") -> None:  # noqa: F821
        if capacity <= 0:
            raise SimulationError("Store capacity must be positive")
        self.simulator = simulator
        self.capacity = capacity
        self.name = name or "Store"
        self._put_name = (self.name, ".put")
        self._get_name = (self.name, ".get")
        self._items: Deque[Any] = deque()
        self._put_waiters: Deque[Tuple[Optional[Event], Any]] = deque()
        self._get_waiters: Deque[Event] = deque()
        # Instrumentation: peak occupancy tells us the effective pipeline
        # concurrency actually reached during a run.
        self.peak_occupancy = 0
        self.total_puts = 0
        self.total_gets = 0

    # -- operations -----------------------------------------------------------------

    def put(self, item: Any) -> Event:
        """Return an event that fires once ``item`` has entered the store."""
        event = Event(self.simulator, self._put_name)
        self._put_waiters.append((event, item))
        self._dispatch()
        return event

    def get(self) -> Event:
        """Return an event that fires with the next item once one is available."""
        event = Event(self.simulator, self._get_name)
        self._get_waiters.append(event)
        if self._items:
            self._dispatch()
        return event

    def post(self, item: Any) -> None:
        """Put ``item`` with no completion event: for putters that never wait.

        The item enters now if there is room and otherwise queues behind the
        earlier putters, exactly like :meth:`put`.
        """
        items = self._items
        if self._put_waiters or self._get_waiters or len(items) >= self.capacity:
            self._put_waiters.append((None, item))
            self._dispatch()
            return
        # Room, nobody queued ahead and nobody waiting: the item just enters.
        items.append(item)
        self.total_puts += 1
        if len(items) > self.peak_occupancy:
            self.peak_occupancy = len(items)

    def deliver(self, item: Any) -> None:
        """:meth:`post` as the last action of the caller's kernel entry.

        With one getter parked on the empty store at a quiet instant, the
        wake-up :meth:`post` schedules would be the very next entry the
        kernel pops; the getter is resumed here instead.  In every other
        state — and from host code, which must use :meth:`post` — the
        wake-up is scheduled as usual.
        """
        getters = self._get_waiters
        parked = None
        if len(getters) == 1 and not self._items and not self._put_waiters and self.simulator.quiet():
            parked = getters.popleft()
        self.post(item)
        if parked is not None:
            self.total_gets += 1
            parked.succeed_now(self._items.popleft())

    def get_now(self, default: Any = None) -> Any:
        """The next item if one is buffered and the instant is quiet, else ``default``.

        On ``default`` the caller falls back to ``yield store.get()``.
        """
        if not self._items or not self.simulator.quiet():
            return default
        item = self._items.popleft()
        self.total_gets += 1
        if self._put_waiters:
            self._dispatch()
        return item

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False when the store is full."""
        if len(self._items) >= self.capacity and not self._get_waiters:
            return False
        self.put(item)
        return True

    # -- introspection ----------------------------------------------------------------

    @property
    def occupancy(self) -> int:
        return len(self._items)

    @property
    def waiting_putters(self) -> int:
        return len(self._put_waiters)

    @property
    def waiting_getters(self) -> int:
        return len(self._get_waiters)

    # -- internal ------------------------------------------------------------------------

    def _dispatch(self) -> None:
        """Move items between waiters and the buffer until no progress is possible."""
        progress = True
        while progress:
            progress = False
            if self._put_waiters and len(self._items) < self.capacity:
                event, item = self._put_waiters.popleft()
                self._items.append(item)
                self.total_puts += 1
                self.peak_occupancy = max(self.peak_occupancy, len(self._items))
                if event is not None:
                    event.succeed()
                progress = True
            if self._get_waiters and self._items:
                event = self._get_waiters.popleft()
                item = self._items.popleft()
                self.total_gets += 1
                event.succeed(item)
                progress = True

    def __repr__(self) -> str:
        return (
            f"Store({self.name!r}, occupancy={len(self._items)}, "
            f"capacity={self.capacity}, peak={self.peak_occupancy})"
        )
