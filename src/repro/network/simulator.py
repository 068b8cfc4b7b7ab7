"""The discrete-event simulation kernel.

:class:`Simulator` owns the virtual clock and the event queue.  Events are
processed in non-decreasing time order; ties are broken by scheduling order,
which makes every simulation fully deterministic — a property the
reproduction relies on so that every figure regenerates identically from run
to run.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.errors import EmptySchedule, SimulationError
from repro.network.events import INSTANT, Event, Process, Timeout


class Simulator:
    """A deterministic discrete-event simulator."""

    def __init__(self) -> None:
        self._now = 0.0
        self._sequence = 0
        # Heap entries: (time, sequence, call, argument) — every kernel entry
        # is ``call(argument)``, an event's is ``Event._process(event)``;
        # sequence preserves FIFO order among ties.
        self._queue: List[Tuple[float, int, Callable[[Any], None], Any]] = []
        self.events_processed = 0
        # Non-zero while an event with several callbacks is being processed:
        # the callbacks still to run are work queued at the current instant
        # that the heap does not show (see :meth:`quiet`).
        self._fanout = 0

    #: The same-instant hop (:data:`~repro.network.events.INSTANT`): yielding
    #: it resumes the process from one call entry at ``now``, behind
    #: everything already queued there, and no event is built for it.
    instant = INSTANT

    # -- clock ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def quiet(self) -> bool:
        """Whether nothing else is queued at the current instant.

        True when the heap is empty or its head is later than ``now`` (and no
        sibling callback of the event being processed is still to run).  An
        operation that completes at a quiet instant may skip its zero-delay
        event: the kernel would pop that very event next and resume the same
        process, so the order of every remaining event is unchanged.  At a
        busy instant the event must be scheduled — same-instant order decides
        who transmits next on a shared trunk, so it is part of the trace.
        """
        queue = self._queue
        return not self._fanout and (not queue or queue[0][0] > self._now)

    # -- scheduling (internal API used by events) -------------------------------

    def _schedule(self, delay: float, event: Event) -> None:
        if delay < 0:
            raise SimulationError("cannot schedule an event in the past")
        self._sequence += 1
        heapq.heappush(self._queue, (self._now + delay, self._sequence, type(event)._process, event))

    def _schedule_call(self, delay: float, callback: Callable[[Any], None], argument: Any) -> None:
        """Run ``callback(argument)`` as a kernel entry ``delay`` seconds from now:
        an entry nobody can wait on takes its place in the schedule without an event."""
        if delay < 0:
            raise SimulationError("cannot schedule a call in the past")
        self._sequence += 1
        heapq.heappush(self._queue, (self._now + delay, self._sequence, callback, argument))

    # -- public factory helpers ---------------------------------------------------

    def event(self, name: str = "") -> Event:
        """Create an untriggered event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` simulated seconds."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Event, Any, Any], name: str = "") -> Process:
        """Start a coroutine process; returns the process (itself an event)."""
        return Process(self, generator, name=name)

    # -- execution ----------------------------------------------------------------

    def step(self) -> None:
        """Process the single next scheduled entry."""
        try:
            time, _, call, argument = heapq.heappop(self._queue)
        except IndexError:
            raise EmptySchedule("no events scheduled") from None
        if time < self._now:
            raise SimulationError("event queue went backwards in time")
        self._now = time
        self.events_processed += 1
        call(argument)

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue empties or the clock reaches ``until``.

        Returns the final simulation time.  ``until`` may not lie before
        ``now``: the clock never runs backwards.
        """
        if until is not None and until < self._now:
            raise SimulationError(f"cannot run until {until:g}: the clock is already at {self._now:g}")
        while self._queue:
            next_time = self._queue[0][0]
            if until is not None and next_time > until:
                self._now = until
                return self._now
            self.step()
        return self._now

    def run_process(self, generator: Generator[Event, Any, Any], name: str = "") -> Any:
        """Start a process, run to completion, and return its result.

        Exceptions raised inside the process propagate to the caller.
        """
        process = self.process(generator, name=name)
        self.run()
        if not process.triggered:
            raise SimulationError(
                f"process {name or 'anonymous'!r} did not complete; "
                "it is likely blocked on an event that never fires (deadlock)"
            )
        if process._exception is not None:
            raise process._exception
        return process.value

    @property
    def pending_events(self) -> int:
        """Number of scheduled-but-unprocessed queue entries."""
        return len(self._queue)

    def __repr__(self) -> str:
        return f"Simulator(now={self._now:.6f}, pending={len(self._queue)})"
