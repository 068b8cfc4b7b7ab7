"""Events and processes for the discrete-event simulation kernel.

The kernel follows the familiar SimPy structure, reduced to what the
execution strategies need:

* :class:`Event` — a one-shot occurrence with a value (or an exception) and a
  list of callbacks invoked when the simulator processes it;
* :class:`Timeout` — an event that fires after a simulated delay;
* :class:`Process` — a generator-based coroutine; yielding an event suspends
  the process until the event fires.  A process is itself an event that fires
  when the generator returns, so processes can wait on each other.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional, Tuple, Union

from repro.errors import SimulationError

_UNSET = object()


class Event:
    """A one-shot simulation event.

    ``name`` may be given as a tuple of parts (``(link.name, ".tx#", 17)``):
    events are created per send or wait and almost never printed, so the
    parts are joined only when :attr:`name` is read — by ``__repr__`` or an
    error.
    An owner that names every event alike (a store's ``.get``) builds the
    tuple once and passes the same one each time.
    """

    __slots__ = ("simulator", "_name", "callbacks", "_value", "_exception", "triggered", "processed")

    def __init__(self, simulator: "Simulator", name: Union[str, Tuple[Any, ...]] = "") -> None:  # noqa: F821
        self.simulator = simulator
        self._name = name
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _UNSET
        self._exception: Optional[BaseException] = None
        self.triggered = False
        self.processed = False

    # -- state ------------------------------------------------------------------

    @property
    def name(self) -> str:
        name = self._name
        if not isinstance(name, str):
            name = self._name = "".join(map(str, name))
        return name or type(self).__name__

    @property
    def value(self) -> Any:
        if self._value is _UNSET:
            raise SimulationError(f"event {self.name!r} has no value yet")
        return self._value

    # -- triggering ---------------------------------------------------------------

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Mark the event successful; callbacks run after ``delay`` sim-seconds."""
        if self.triggered:
            raise SimulationError(f"event {self.name!r} has already been triggered")
        self.triggered = True
        self._value = value
        self.simulator._schedule(delay, self)
        return self

    def succeed_now(self, value: Any = None) -> None:
        """Succeed and run the callbacks in place, with no kernel entry.

        Only for a caller that is the last action of its own kernel entry at
        a quiet instant (:meth:`Simulator.quiet`): the entry :meth:`succeed`
        would schedule is then the very next one the kernel pops, so running
        it here reorders nothing.  Or for an entry that *is* the event's:
        a send's ``then`` (``Link.send`` without one schedules this method
        where it would schedule the event), run in the slot the event's own
        entry would take.
        """
        if self.triggered:
            raise SimulationError(f"event {self.name!r} has already been triggered")
        self.triggered = True
        self._value = value
        self._process()

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Mark the event failed; the exception is re-raised in waiting processes."""
        if self.triggered:
            raise SimulationError(f"event {self.name!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("Event.fail expects an exception instance")
        self.triggered = True
        self._exception = exception
        self._value = None
        self.simulator._schedule(delay, self)
        return self

    # -- callback plumbing ---------------------------------------------------------

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback`` to run when this event is processed.

        Registering on an already-processed event schedules the callback to
        run immediately (a call entry at the current simulation time), so
        late waiters do not deadlock.
        """
        if self.processed:
            self.simulator._schedule_call(0.0, callback, self)
        else:
            self.callbacks.append(callback)

    def _process(self) -> None:
        """Invoked by the simulator when the event's time has come."""
        if self.processed:
            raise SimulationError(f"event {self.name!r} processed twice")
        self.processed = True
        callbacks = self.callbacks
        self.callbacks = None  # handed over: a processed event takes no more
        if len(callbacks) == 1:
            callbacks[0](self)
        elif callbacks:
            # The later callbacks are runnable at this instant without being
            # on the heap; flag that so the earlier ones see a busy instant.
            simulator = self.simulator
            simulator._fanout += 1
            try:
                for callback in callbacks:
                    callback(self)
            finally:
                simulator._fanout -= 1

    def __repr__(self) -> str:
        state = "processed" if self.processed else ("triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {self.name!r} {state}>"


#: An event that has already happened, on no simulator.  Yielding it is a
#: same-instant hop: the process resumes from one call entry at ``now`` on its
#: own simulator, behind everything already queued there, and no event is
#: built for it.  Shared, so no simulator and event name each other.
INSTANT = Event(None, name="instant")
INSTANT.triggered = INSTANT.processed = True
INSTANT._value = None


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, simulator: "Simulator", delay: float, value: Any = None) -> None:  # noqa: F821
        if delay < 0:
            raise SimulationError("Timeout delay must be non-negative")
        Event.__init__(self, simulator)
        self.delay = delay
        self.triggered = True
        self._value = value
        simulator._schedule(delay, self)

    @property
    def name(self) -> str:
        return f"Timeout({self.delay:g})"


class Process(Event):
    """A coroutine driven by the simulator.

    The wrapped generator yields :class:`Event` instances; the process is
    resumed with the event's value (or the event's exception is thrown into
    the generator).  When the generator returns, the process event succeeds
    with the generator's return value.
    """

    __slots__ = ("_generator", "_resume_call")

    def __init__(
        self,
        simulator: "Simulator",  # noqa: F821
        generator: Generator[Event, Any, Any],
        name: str = "",
    ) -> None:
        super().__init__(simulator, name=name or "Process")
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError("Process requires a generator (use a 'yield'-based function)")
        self._generator = generator
        # Bound once, not per yield; dropped when the process ends (no self-cycle).
        self._resume_call: Optional[Callable[[Event], None]] = self._resume
        # Kick the process off at the current simulation time.
        simulator._schedule_call(0.0, self._resume_call, INSTANT)

    def _process(self) -> None:
        self._resume_call = None
        Event._process(self)

    def _resume(self, event: Event) -> None:
        """Advance the generator after ``event`` fired."""
        try:
            if event._exception is not None:
                next_target = self._generator.throw(event._exception)
            else:
                next_target = self._generator.send(event._value if event._value is not _UNSET else None)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate into waiters
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            self.fail(exc)
            return

        if not isinstance(next_target, Event):
            self.fail(
                SimulationError(
                    f"process {self.name!r} yielded {next_target!r}; processes must yield events"
                )
            )
            return
        if next_target.simulator is not self.simulator:
            if next_target is INSTANT:  # the hop runs on this process's simulator
                self.simulator._schedule_call(0.0, self._resume_call, INSTANT)
                return
            self.fail(SimulationError("process yielded an event from a different simulator"))
            return
        next_target.add_callback(self._resume_call)
