"""The simulator's two event-skipping rules, tested directly.

(a) A put nobody waits on (:meth:`Store.post`) schedules no completion event.
(b) An operation that completes at a *quiet* instant — nothing else queued at
    ``now`` — may complete in place (:meth:`Store.get_now`,
    :meth:`InFlightWindow.acquire_now`); at a busy instant it must not, because
    same-instant order is part of the schedule.

Either way every counter reads exactly as through the event-returning path.
"""

import pytest

from repro.core.execution.overlap import InFlightWindow
from repro.errors import SimulationError
from repro.network.resources import Store
from repro.network.simulator import Simulator


class TestQuiet:
    def test_idle_simulator_is_quiet(self):
        assert Simulator().quiet()

    def test_later_event_keeps_the_instant_quiet(self):
        sim = Simulator()
        sim.timeout(1.0)
        assert sim.quiet()

    def test_same_instant_event_makes_it_busy(self):
        sim = Simulator()
        sim.timeout(0.0)
        assert not sim.quiet()
        sim.run()
        assert sim.quiet()

    def test_sibling_callbacks_make_the_instant_busy(self):
        """An event with two callbacks: while the first runs, the second is
        runnable at this instant without being on the heap."""
        sim = Simulator()
        event = sim.event()
        seen = []
        event.add_callback(lambda _event: seen.append(sim.quiet()))
        event.add_callback(lambda _event: seen.append(sim.quiet()))
        event.succeed()
        sim.run()
        assert seen == [False, False]

    def test_single_callback_sees_a_quiet_instant(self):
        sim = Simulator()
        event = sim.event()
        seen = []
        event.add_callback(lambda _event: seen.append(sim.quiet()))
        event.succeed()
        sim.run()
        assert seen == [True]


class TestPost:
    def test_post_schedules_nothing_when_nobody_waits(self):
        sim = Simulator()
        store = Store(sim)
        store.post("a")
        assert sim.pending_events == 0
        assert (store.occupancy, store.total_puts, store.peak_occupancy) == (1, 1, 1)

    def test_post_wakes_a_waiting_getter_with_one_event(self):
        sim = Simulator()
        store = Store(sim)

        def consumer():
            return (yield store.get())

        process = sim.process(consumer())
        sim.run()
        before = sim.events_processed
        store.post("late")
        assert sim.pending_events == 1  # the getter's wake-up, no put event
        sim.run()
        assert process.value == "late"
        assert sim.events_processed - before == 2  # wake-up + process completion

    def test_post_on_a_full_store_queues_behind_earlier_putters(self):
        sim = Simulator()
        store = Store(sim, capacity=1)
        store.post("a")
        store.post("b")
        assert (store.occupancy, store.waiting_putters) == (1, 1)

        def consumer():
            first = yield store.get()
            second = yield store.get()
            return [first, second]

        assert sim.run_process(consumer()) == ["a", "b"]
        assert (store.total_puts, store.total_gets) == (2, 2)


def _drain(store_factory, fast):
    """Five items posted at t=0, one consumer draining them; returns counters."""
    sim = Simulator()
    store = store_factory(sim)
    for value in range(5):
        store.post(value)
    taken = []

    def consumer():
        for _ in range(5):
            item = store.get_now() if fast else None
            if item is None:
                item = yield store.get()
            taken.append(item)

    sim.run_process(consumer())
    return taken, (store.total_puts, store.total_gets, store.peak_occupancy), sim.events_processed


class TestGetNow:
    def test_get_now_matches_the_event_path_and_skips_its_events(self):
        fast_items, fast_counters, fast_events = _drain(Store, fast=True)
        slow_items, slow_counters, slow_events = _drain(Store, fast=False)
        assert fast_items == slow_items == [0, 1, 2, 3, 4]
        assert fast_counters == slow_counters == (5, 5, 5)
        assert slow_events - fast_events == 5  # one zero-delay get event per item

    def test_get_now_on_an_empty_store_returns_the_default(self):
        store = Store(Simulator())
        assert store.get_now() is None
        assert store.get_now("nothing") == "nothing"
        assert store.total_gets == 0

    def test_get_now_admits_a_blocked_putter(self):
        sim = Simulator()
        store = Store(sim, capacity=1)
        store.post("a")
        store.post("b")  # queued: the store is full
        assert store.get_now() == "a"
        assert (store.occupancy, store.waiting_putters, store.total_puts) == (1, 0, 2)

    def test_get_now_does_not_fire_while_another_process_is_runnable(self):
        """Two consumers resumed at the same instant must interleave exactly
        as through the event path: the fast path sees the busy instant."""

        def run(fast):
            sim = Simulator()
            store = Store(sim)
            for value in range(6):
                store.post(value)
            order = []

            def consumer(name):
                for _ in range(3):
                    item = store.get_now() if fast else None
                    if item is None:
                        item = yield store.get()
                    order.append((name, item))

            sim.process(consumer("first"))
            sim.process(consumer("second"))
            sim.run()
            return order, (store.total_puts, store.total_gets, store.peak_occupancy)

        fast_order, fast_counters = run(fast=True)
        slow_order, slow_counters = run(fast=False)
        assert fast_order == slow_order
        assert fast_counters == slow_counters == (6, 6, 6)
        # Strict alternation: neither consumer ran ahead of the other.
        assert [name for name, _ in fast_order[:4]] == ["first", "second", "first", "second"]

    def test_get_now_refuses_at_a_busy_instant(self):
        sim = Simulator()
        store = Store(sim)
        store.post("a")
        sim.timeout(0.0)  # something else queued at this instant
        assert store.get_now() is None
        assert (store.occupancy, store.total_gets) == (1, 0)


def _window_run(fast, capacity=2, batches=6, reply_after=1.0):
    """A sender acquiring ``batches`` slots, each released ``reply_after`` later."""
    sim = Simulator()
    window = InFlightWindow(sim, capacity=capacity)
    acquired_at = []

    def releaser():
        yield sim.timeout(reply_after)
        window.release()

    def sender():
        for _ in range(batches):
            if not (fast and window.acquire_now()):
                yield window.acquire()
            acquired_at.append(sim.now)
            sim.process(releaser())

    sim.run_process(sender())
    sim.run()
    return acquired_at, (
        window.acquired_total,
        window.peak_in_flight,
        window.stall_seconds,
        window.in_flight,
    )


class TestAcquireNow:
    def test_counters_match_the_event_path(self):
        fast_times, fast_counters = _window_run(fast=True)
        slow_times, slow_counters = _window_run(fast=False)
        assert fast_times == slow_times == [0.0, 0.0, 1.0, 1.0, 2.0, 2.0]
        assert fast_counters == slow_counters
        acquired_total, peak, stall, in_flight = fast_counters
        assert (acquired_total, peak, in_flight) == (6, 2, 0)
        assert stall == pytest.approx(2.0)

    def test_acquire_now_refuses_a_full_window(self):
        sim = Simulator()
        window = InFlightWindow(sim, capacity=1)
        assert window.acquire_now()
        assert not window.acquire_now()
        assert (window.in_flight, window.acquired_total) == (1, 1)

    def test_acquire_now_does_not_jump_the_queue(self):
        sim = Simulator()
        window = InFlightWindow(sim, capacity=1)
        assert window.acquire_now()
        waiting = window.acquire()
        window.resize(2)  # admits the waiter, whose event is now queued
        assert waiting.triggered
        assert not window.acquire_now()  # full again, and the instant is busy

    def test_acquire_now_refuses_at_a_busy_instant(self):
        sim = Simulator()
        window = InFlightWindow(sim, capacity=4)
        sim.timeout(0.0)
        assert not window.acquire_now()
        assert window.in_flight == 0


class TestReleaseIsStrict:
    def test_over_release_raises(self):
        """A reply released twice (or a slot never counted) is a protocol slip
        the window must report, not clamp away."""
        sim = Simulator()
        window = InFlightWindow(sim, capacity=2)
        assert window.acquire_now()
        window.release()
        with pytest.raises(SimulationError):
            window.release()
        assert window.in_flight == 0

    def test_release_on_a_fresh_window_raises(self):
        with pytest.raises(SimulationError):
            InFlightWindow(Simulator()).release()
