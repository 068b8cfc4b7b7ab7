"""Simulation resources: bounded FIFO stores.

A :class:`Store` is a FIFO buffer, optionally bounded.  The engine uses it as
the mailbox at each end of a channel: unbounded, a link delivers messages
into it and one reader takes them out in stream order.  (The pipeline's
in-flight bound is :class:`~repro.core.execution.overlap.InFlightWindow`.)

``put`` blocks (the putting process waits) while the store is full; ``get``
blocks while it is empty.  Both return an event, for processes that really
wait.  A reader that only reacts to arrivals is a call instead:
:meth:`Store.read` parks ``reader`` in the slot ``get`` parks its event in,
and the store calls ``reader(item)`` in the kernel entry that event would
have been processed in.  :class:`StoreReader` is such a reader's loop.

Three shortcuts exist for callers that do not wait, and none can reorder the
simulation: :meth:`Store.post` enters an item whose arrival nobody waits on
(a link delivering into a mailbox) without creating the completion event
that would be dropped unread; :meth:`Store.get_now` takes an item that is
already there without a zero-delay entry when the instant is quiet
(:meth:`~repro.network.simulator.Simulator.quiet`); and :meth:`Store.deliver`
is :meth:`Store.post` for a caller that ends its kernel entry, which may then
hand the item to the reader parked on the store in place.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Callable, Deque, Optional, Tuple, Union

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
        #: Parked readers in FIFO order: a :meth:`get` event or a :meth:`read` callable.
        self._get_waiters: Deque[Union[Event, Callable[[Any], None]]] = deque()
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

    def read(self, reader: Callable[[Any], None]) -> None:
        """Call ``reader(item)`` with the next item once one is available.

        :meth:`get` for a reader that is a call, not a process: ``reader``
        waits in the slot the event would, and is called as a kernel entry
        at the heap position the event's would take — or in place, by
        :meth:`deliver`, where the event would be processed in place.
        """
        self._get_waiters.append(reader)
        if self._items:
            self._dispatch()

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

        With one reader parked on the empty store at a quiet instant, the
        wake-up :meth:`post` schedules would be the very next entry the
        kernel pops; the item is handed to the reader here instead, counted
        as a put and a get.  In every other state — and from host code,
        which must use :meth:`post` — the wake-up is scheduled as usual.
        """
        getters = self._get_waiters
        if len(getters) == 1 and not self._items and not self._put_waiters and self.simulator.quiet():
            parked = getters.popleft()
            self.total_puts += 1
            self.total_gets += 1
            if not self.peak_occupancy:
                self.peak_occupancy = 1  # the item passes through the buffer
            if isinstance(parked, Event):
                parked.succeed_now(item)
            else:
                parked(item)
            return
        self.post(item)

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
                waiter = self._get_waiters.popleft()
                item = self._items.popleft()
                self.total_gets += 1
                if isinstance(waiter, Event):
                    waiter.succeed(item)
                else:
                    self.simulator._schedule_call(0.0, waiter, item)
                progress = True

    def __repr__(self) -> str:
        return (
            f"Store({self.name!r}, occupancy={len(self._items)}, "
            f"capacity={self.capacity}, peak={self.peak_occupancy})"
        )


class StoreReader:
    """A store's reader as a chain of kernel-entry calls, not a process.

    :meth:`take` hands an item to :meth:`react`, then every item already
    buffered at a quiet instant (:meth:`Store.get_now`), and parks itself on
    the store (:meth:`Store.read`) when none is left — unless ``react``
    returns True: it has arranged what runs next.  An exception fails
    ``done`` instead of leaving the kernel entry, so it reaches whoever waits
    on ``done`` and never :meth:`Simulator.step
    <repro.network.simulator.Simulator.step>`.  Subclasses hold their state
    in slots and schedule bound methods, not closures that name each other,
    so no reference cycle outlives ``done``.
    """

    __slots__ = ("store", "done")

    def __init__(self, store: Store, name: Tuple[Any, ...]) -> None:
        self.store = store
        self.done = Event(store.simulator, name)

    def start(self) -> Event:
        """Take from the current instant on (one call entry at ``now``, where a
        process would start); returns ``done``."""
        self.store.simulator._schedule_call(0.0, self.take, None)
        return self.done

    def take(self, item: Any) -> None:
        """React to ``item`` (``None``: none yet) and to what is buffered."""
        store = self.store
        try:
            while True:
                if item is None:
                    item = store.get_now()
                    if item is None:
                        store.read(self.take)
                        return
                if self.react(item):
                    return
                item = None
        except Exception as exc:  # noqa: BLE001 - fails ``done``, not the kernel
            self.done.fail(exc)

    def react(self, item: Any) -> bool:
        """Take one item; True when the subclass has arranged the next read."""
        raise NotImplementedError
