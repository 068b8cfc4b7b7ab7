"""Generic baton-passing concurrency over one discrete-event simulator.

Every execution strategy in this repository is ordinary synchronous host
code that periodically drives the simulator.  Running N such activities
*interleaved on one shared clock* — multi-tenant sessions, or scatter-gather
shard tasks fanned out over several server sites — needs exactly one piece
of machinery: strict baton passing between worker threads and a driver loop.

Each worker runs its host code on its own thread, but **exactly one thread
ever runs at a time**.  A worker that reaches a simulation synchronisation
point registers a callback on the event it needs, hands the baton back to
the driver, and blocks.  The driver steps the shared simulator; when a
worker's event fires, the worker joins a FIFO ready queue and is resumed —
before any further simulated time passes.  Handoffs happen only at
deterministic simulation points, so the whole run is exactly reproducible
despite the threads.

This module is the protocol itself, factored out of the multi-tenant traffic
driver so the distribution layer (one worker per shard task, many server
sites) shares one implementation instead of a re-derived copy.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Deque, List, Optional, Sequence

from repro.errors import EmptySchedule, SimulationError
from repro.network.events import Event
from repro.network.simulator import Simulator


class WorkerAborted(BaseException):
    """Raised inside a worker thread when the driver aborts the run.

    Deliberately a ``BaseException`` so per-unit ``except Exception`` error
    handling inside worker bodies cannot swallow it.
    """


class BatonWorker:
    """One activity's thread plus its half of the baton protocol.

    Subclasses implement :meth:`run_body` — the synchronous host code of the
    activity — and call :meth:`await_event` whenever they need simulated time
    to pass.
    """

    def __init__(self, driver: "BatonDriver", name: str) -> None:
        self.driver = driver
        self.name = name
        self.finished = False
        self.exception: Optional[BaseException] = None
        self._resume = threading.Event()
        self._poisoned = False
        self.thread = threading.Thread(target=self._thread_main, name=name, daemon=True)

    def run_body(self) -> None:
        raise NotImplementedError

    # -- baton protocol (worker side) ----------------------------------------------

    def await_event(self, event: Event) -> Any:
        """Block this worker until ``event`` fires on the shared simulator.

        Registers a callback (late registration on an already-triggered
        event still schedules through the queue, keeping ordering uniform),
        hands the baton to the driver, and waits to be resumed.
        """
        event.add_callback(self._on_event)
        self._yield_to_driver()
        return event.value

    def _on_event(self, _event: Event) -> None:
        # Runs on the driver thread, inside a simulator step.
        self.driver._ready.append(self)

    def _yield_to_driver(self) -> None:
        self._resume.clear()
        self.driver._baton.set()
        self._resume.wait()
        self._resume.clear()
        if self._poisoned:
            raise WorkerAborted()

    # -- thread body ----------------------------------------------------------------

    def _thread_main(self) -> None:
        # Wait for the driver to hand over the baton the first time.
        self._resume.wait()
        self._resume.clear()
        try:
            if self._poisoned:
                raise WorkerAborted()
            self.run_body()
        except WorkerAborted:
            pass
        except BaseException as exc:  # noqa: BLE001 - reported by the driver
            self.exception = exc
        finally:
            self.finished = True
            self.driver._baton.set()


class BatonDriver:
    """The driver loop: resume ready workers, else step the shared simulator.

    ``description`` names the run in the deadlock diagnostic (a run
    deadlocks when no simulation events are pending while workers are still
    blocked — e.g. every worker waiting on traffic nobody will send).
    """

    def __init__(self, simulator: Simulator, description: str = "baton-driven run") -> None:
        self.simulator = simulator
        self.description = description
        self._ready: Deque[BatonWorker] = deque()
        self._baton = threading.Event()

    def run(self, workers: Sequence[BatonWorker]) -> None:
        """Run every worker to completion; re-raises the first worker failure."""
        workers = list(workers)
        if not workers:
            return
        for worker in workers:
            worker.thread.start()
        # Every worker starts ready, in submission order.
        self._ready.extend(workers)

        ready = self._ready
        simulator = self.simulator
        # Looked up per run: the schedule recorder and the benchmark's tracer
        # patch ``Simulator.step`` on the class.
        step = simulator.step
        active = len(workers)
        while active > 0:
            if ready:
                worker = ready.popleft()
                self._hand_baton(worker)
                if worker.finished:
                    active -= 1
                continue
            # Nobody is runnable: step until an event readies a worker.
            try:
                while not ready:
                    step()
            except EmptySchedule:
                self._abort_blocked(workers)
                blocked = [worker.name for worker in workers if not worker.finished]
                raise SimulationError(
                    f"{self.description} deadlocked: no simulation events pending "
                    f"while workers {blocked or '[]'} were still blocked"
                ) from None

        for worker in workers:
            if worker.exception is not None:
                raise worker.exception

    def _hand_baton(self, worker: BatonWorker) -> None:
        """Resume ``worker`` and wait until it blocks again or finishes."""
        self._baton.clear()
        worker._resume.set()
        self._baton.wait()

    def _abort_blocked(self, workers: List[BatonWorker]) -> int:
        """Poison every still-blocked worker so its thread unwinds cleanly."""
        aborted = 0
        for worker in workers:
            if worker.finished:
                continue
            worker._poisoned = True
            self._hand_baton(worker)
            if worker.finished:
                aborted += 1
        return aborted

    def __repr__(self) -> str:
        return f"BatonDriver({self.description!r}, ready={len(self._ready)})"
