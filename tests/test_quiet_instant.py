"""The simulator's event-skipping rules, tested directly.

(a) A put nobody waits on (:meth:`Store.post`) schedules no completion event,
    and a delivery nobody waits on is a scheduled call, not an event.
(b) An operation that completes at a *quiet* instant — nothing else queued at
    ``now`` — may complete in place (:meth:`Store.get_now`,
    :meth:`InFlightWindow.acquire_now`); at a busy instant it must not, because
    same-instant order is part of the schedule.

Two more shortcuts apply the same rules to a wire message: an arrival that
ends its kernel entry at a quiet instant wakes the reader parked on the
mailbox in place (rule (b), :meth:`Store.deliver`), and a shared trunk's
chaining step rides the sender-side completion entry instead of a "next"
tick of its own.  The twin of rule (b) at a *busy* instant is the
``Simulator.instant`` hop: yielding an event that has already happened takes
the same call entry, at the same sequence number, as ``timeout(0.0)`` did.

Either way every counter reads exactly as through the event-returning path.
"""

import pytest

from repro.core.execution.overlap import InFlightWindow
from repro.errors import SimulationError
from repro.network.events import Event
from repro.network.link import Link
from repro.network.message import MessageKind, batch_message
from repro.network.resources import Store
from repro.network.simulator import Simulator
from repro.tenancy.fairqueue import DeficitRoundRobinScheduler, FifoLinkScheduler


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


def _reader(sim, store, woken):
    """A process parked on ``store``; logs ``(item, entry number, quiet)`` per item."""

    def read():
        while True:
            item = yield store.get()
            woken.append((item, sim.events_processed, sim.quiet()))

    return sim.process(read())


def _link(sim, latency=0.01, scheduler=None):
    return Link(
        sim, "link", bandwidth_bytes_per_sec=1000.0, latency_seconds=latency, scheduler=scheduler
    )


def _message(payload_bytes=84):
    return batch_message(MessageKind.RECORDS, None, payload_bytes, row_count=1)


def _at(sim, time, action):
    """A process body running ``action`` at simulated ``time``."""
    yield sim.timeout(time - sim.now)
    action()


class TestArrivalWakesInPlace:
    def test_quiet_arrival_resumes_the_parked_reader_within_its_entry(self):
        sim = Simulator()
        link = _link(sim)
        woken = []
        _reader(sim, link.destination, woken)
        sim.run()
        before = sim.events_processed
        message = _message()
        link.send(message)
        sim.run()
        # Transmission end and arrival: the wake-up is not an entry of its own,
        # and the reader saw the quiet instant its own entry would have seen.
        assert sim.events_processed - before == 2
        assert woken == [(message, before + 2, True)]
        store = link.destination
        assert (store.total_puts, store.total_gets, store.peak_occupancy) == (1, 1, 1)
        assert (store.occupancy, store.waiting_getters) == (0, 1)  # parked again

    def test_deliver_counts_like_post(self):
        def run(enter):
            sim = Simulator()
            store = Store(sim)
            woken = []
            _reader(sim, store, woken)
            sim.run()
            getattr(store, enter)("item")
            sim.run()
            return [item for item, _entry, _quiet in woken], (
                store.total_puts,
                store.total_gets,
                store.peak_occupancy,
                store.occupancy,
            ), sim.events_processed

        delivered, delivered_counters, delivered_entries = run("deliver")
        posted, posted_counters, posted_entries = run("post")
        assert delivered == posted == ["item"]
        assert delivered_counters == posted_counters == (1, 1, 1, 0)
        assert posted_entries - delivered_entries == 1  # the wake-up entry

    def test_arrival_at_a_busy_instant_schedules_the_wake_up(self):
        sim = Simulator()
        link = _link(sim)
        woken = []
        _reader(sim, link.destination, woken)
        sim.run()
        before = sim.events_processed
        message = _message()
        link.send(message)
        arrival = 0.1 + 0.01
        bystander = []
        sim.process(_at(sim, arrival, lambda: bystander.append(sim.events_processed)))
        sim.run(until=0.105)
        assert sim.pending_events == 2 and not woken
        sim.step()  # the arrival: something else is queued at this instant
        assert not woken and sim.pending_events == 2
        sim.run()
        # Same-instant order kept: the bystander (queued first) ran before the
        # reader's wake-up, which was an entry of its own.
        assert bystander[0] < woken[0][1]
        assert woken[0][0] is message

    def test_arrival_without_a_parked_reader_just_posts(self):
        sim = Simulator()
        link = _link(sim)
        link.send(_message())
        sim.run()
        assert (link.destination.occupancy, sim.pending_events) == (1, 0)

    def test_two_parked_readers_take_the_scheduled_path(self):
        sim = Simulator()
        store = Store(sim)
        woken = []
        _reader(sim, store, woken)
        _reader(sim, store, woken)
        sim.run()
        store.deliver("a")
        assert not woken and sim.pending_events == 1
        sim.run()
        assert [item for item, _entry, _quiet in woken] == ["a"]

    def test_arrival_under_fan_out_schedules_the_wake_up(self):
        """A delivery that is not the last action of its entry — a sibling
        callback is still to run — must not resume the reader early."""
        sim = Simulator()
        store = Store(sim)
        woken = []
        _reader(sim, store, woken)
        sim.run()
        order = []
        event = sim.event()
        event.add_callback(lambda _event: store.deliver("item"))
        event.add_callback(lambda _event: order.append(("sibling", len(woken))))
        event.succeed()
        sim.run()
        assert order == [("sibling", 0)]  # the sibling ran before the reader
        assert [item for item, _entry, _quiet in woken] == ["item"]


class _CallReader:
    """:func:`_reader` as calls: logs the same triple, then re-parks with ``Store.read``."""

    def __init__(self, sim, store, woken):
        self.sim, self.store, self.woken = sim, store, woken
        sim._schedule_call(0.0, lambda _argument: store.read(self), None)  # the process's start

    def __call__(self, item):
        self.woken.append((item, self.sim.events_processed, self.sim.quiet()))
        self.store.read(self)


def _noop(_argument):
    pass


class TestReadIsGetAsACall:
    """``Store.read`` parks a callable where ``get`` parks an event: the reader
    runs in the entry (or in place) where the getter would resume."""

    @staticmethod
    def run(make_reader):
        sim = Simulator()
        store = Store(sim)
        woken = []
        store.post("buffered")  # there before the reader parks
        make_reader(sim, store, woken)
        sim._schedule_call(1.0, store.deliver, "quiet")  # wakes in place
        sim._schedule_call(2.0, store.deliver, "busy")  # something queued behind it
        sim._schedule_call(2.0, _noop, None)
        sim._schedule_call(3.0, store.deliver, "first")  # two at one instant
        sim._schedule_call(3.0, store.deliver, "second")
        sim.run()
        counters = (store.total_puts, store.total_gets, store.peak_occupancy, store.occupancy)
        return woken, counters, sim.events_processed

    def test_a_call_reader_sees_what_a_process_reader_sees(self):
        processed = self.run(_reader)
        called = self.run(_CallReader)
        assert called == processed
        woken, counters, _entries = called
        assert [item for item, _entry, _quiet in woken] == ["buffered", "quiet", "busy", "first", "second"]
        assert counters == (5, 5, 1, 0)

    def test_a_quiet_arrival_calls_the_reader_in_place(self):
        sim = Simulator()
        store = Store(sim)
        taken = []
        store.read(taken.append)
        sim._schedule_call(1.0, store.deliver, "item")
        sim.run()
        assert taken == ["item"] and sim.events_processed == 1
        assert (store.total_puts, store.total_gets, store.peak_occupancy) == (1, 1, 1)


class TestTrunkCompletionEntry:
    @pytest.mark.parametrize("trunk_type", [FifoLinkScheduler, DeficitRoundRobinScheduler])
    def test_zero_latency_runs_sender_delivery_next_in_one_entry(self, trunk_type):
        sim = Simulator()
        trunk = trunk_type(sim)
        link = _link(sim, latency=0.0, scheduler=trunk)
        log = []

        original_start_next = trunk._start_next

        def start_next():
            log.append(("next", sim.events_processed))
            original_start_next()

        trunk._start_next = start_next
        woken = []
        _reader(sim, link.destination, woken)
        sim.run()
        first, second = _message(), _message()
        completion = link.send(first)  # starts transmitting at once
        link.send(second)  # queued behind it
        log.clear()
        completion.add_callback(
            lambda _event: log.append(("sender", sim.events_processed, sim.quiet()))
        )
        before = sim.events_processed
        sim.step()
        # One entry: the sender's callback (at a busy instant — the chaining
        # step is pending), the delivery into the mailbox, then the chaining
        # step, which put the second message on the wire.
        assert log == [("sender", before + 1, False), ("next", before + 1)]
        assert (link.destination.total_puts, trunk.stats.message_count) == (1, 2)
        # The reader's wake-up was scheduled, not run inside the folded entry.
        assert not woken and link.destination.total_gets == 1
        sim.run()
        assert [item for item, _entry, _quiet in woken] == [first, second]
        # Per message: the completion entry and the reader's wake-up.
        assert sim.events_processed - before == 4

    def test_with_latency_the_delivery_keeps_its_own_entry(self):
        sim = Simulator()
        trunk = FifoLinkScheduler(sim)
        link = _link(sim, latency=0.01, scheduler=trunk)
        woken = []
        _reader(sim, link.destination, woken)
        sim.run()
        before = sim.events_processed
        message = _message()
        link.send(message)
        sim.step()  # completion + chaining step (nothing queued: trunk idles)
        assert not trunk.busy and link.destination.total_puts == 0
        sim.step()  # arrival, waking the reader in place
        assert woken == [(message, before + 2, True)]
        assert sim.pending_events == 0

    def test_trunk_matches_a_private_link_entry_for_entry(self):
        def run(scheduler_type):
            sim = Simulator()
            scheduler = scheduler_type(sim) if scheduler_type else None
            link = _link(sim, scheduler=scheduler)
            woken = []
            _reader(sim, link.destination, woken)

            def sender():
                for _ in range(5):
                    yield link.send(_message())

            sim.process(sender())
            sim.run()
            return sim.events_processed, [(entry, quiet) for _item, entry, quiet in woken], sim.now

        private = run(None)
        assert run(FifoLinkScheduler) == private
        assert run(DeficitRoundRobinScheduler) == private

    def test_late_callback_on_a_processed_completion_still_resumes(self):
        sim = Simulator()
        trunk = FifoLinkScheduler(sim)
        link = _link(sim, scheduler=trunk)
        completion = link.send(_message())
        sim.run()
        assert completion.processed and not trunk.busy

        def waiter():
            return (yield completion)

        assert sim.run_process(waiter()) is completion.value
        assert trunk.stats.message_count == 1  # the chaining step did not re-run


def _hopping(hop):
    """Three processes started at one instant, each hopping behind its siblings.

    A bystander entry is queued at ``now`` before any process starts, so the
    first hops are taken at a busy instant; later two processes wake at one
    instant and hop there, the third alone.  Returns the resumption log
    (name, step, time, kernel entry) and the entry count.
    """
    sim = Simulator()
    log = []
    bystander = sim.timeout(0.0)
    bystander.add_callback(lambda _event: log.append(("bystander", 0, sim.now, sim.events_processed)))

    def body(name, sleep):
        for step in range(2):
            assert not sim.quiet()
            yield hop(sim)
            log.append((name, step, sim.now, sim.events_processed))
        yield sim.timeout(sleep)
        yield hop(sim)
        log.append((name, "woke", sim.now, sim.events_processed))

    for name, sleep in (("a", 1.0), ("b", 1.0), ("c", 2.0)):
        sim.process(body(name, sleep))
    sim.run()
    return log, sim.events_processed


class TestInstantHop:
    def test_instant_resumes_where_a_zero_timeout_did(self):
        instant_log, instant_entries = _hopping(lambda sim: sim.instant)
        timeout_log, timeout_entries = _hopping(lambda sim: sim.timeout(0.0))
        assert instant_log == timeout_log
        assert instant_entries == timeout_entries
        # The hop steps behind what was queued first: strict round robin.
        assert [entry[0] for entry in instant_log[:5]] == ["bystander", "a", "b", "c", "a"]

    def test_instant_has_already_happened(self):
        sim = Simulator()
        assert sim.instant.processed and sim.instant.value is None
        with pytest.raises(SimulationError):
            sim.instant.succeed()

        def hop():
            return (yield sim.instant)

        assert sim.run_process(hop()) is None


def _event_acquire(window):
    """The event-returning free-slot acquire the instant replaced: queue the
    waiter, let the window admit it, and hand back its admission event."""
    event = Event(window.simulator, name=(window.name, ".acquire"))
    window._waiters.append((event, window.simulator.now))
    window._dispatch()
    return event


def _busy_window_run(acquire):
    """Two senders started at one instant share a window of three slots; each
    acquire is free but lands at a busy instant.  Returns the resumption log
    and the window's counters."""
    sim = Simulator()
    window = InFlightWindow(sim, capacity=3)
    log = []

    def releaser():
        yield sim.timeout(1.0)
        window.release()

    def sender(name):
        for _ in range(4):
            assert not sim.quiet() or window.in_flight >= window.capacity
            yield acquire(window)
            log.append((name, sim.now, sim.events_processed))
            sim.process(releaser())

    sim.process(sender("a"))
    sim.process(sender("b"))
    sim.run()
    counters = window.stall_seconds, window.peak_in_flight, window.acquired_total, window.in_flight
    return log, counters, sim.events_processed


class TestFreeSlotAcquire:
    def test_free_slot_acquire_resumes_where_the_admission_event_did(self):
        log, counters, entries = _busy_window_run(InFlightWindow.acquire)
        event_log, event_counters, event_entries = _busy_window_run(_event_acquire)
        assert log == event_log
        assert counters == event_counters
        assert entries == event_entries
        stall, peak, acquired, in_flight = counters
        assert (peak, acquired, in_flight) == (3, 8, 0) and stall > 0

    def test_a_free_slot_is_taken_in_place_with_no_stall(self):
        sim = Simulator()
        window = InFlightWindow(sim, capacity=2)
        assert window.acquire() is sim.instant
        assert (window.in_flight, window.acquired_total, window.stall_seconds) == (1, 1, 0.0)
        assert sim.pending_events == 0  # the hop is scheduled only when yielded
        window.acquire()
        full = window.acquire()
        assert full is not sim.instant and not full.triggered
        window.release()
        assert full.triggered and window.in_flight == 2


def _scheduled_delivery(as_call, bystander_at=None):
    """An item delivered into a store with a parked reader at t=1.0, through a
    call entry or through a delivery event; a bystander entry queued at
    ``bystander_at`` first makes that instant busy."""
    sim = Simulator()
    store = Store(sim)
    woken = []
    _reader(sim, store, woken)
    sim.run()
    order = []
    if bystander_at is not None:
        sim.timeout(bystander_at).add_callback(lambda _event: order.append(sim.events_processed))
    if as_call:
        sim._schedule_call(1.0, store.deliver, "item")
    else:
        delivery = Event(sim)
        delivery.add_callback(lambda event: store.deliver(event.value))
        delivery.succeed("item", delay=1.0)
    sim.run()
    return woken, order, sim.events_processed


class TestDeliveryCall:
    def test_quiet_delivery_call_wakes_the_reader_in_place(self):
        woken, _order, entries = _scheduled_delivery(as_call=True)
        assert (woken, entries) == _scheduled_delivery(as_call=False)[::2]
        assert woken == [("item", entries, True)]  # no wake-up entry of its own

    def test_busy_delivery_call_schedules_the_wake_up(self):
        woken, order, entries = _scheduled_delivery(as_call=True, bystander_at=1.0)
        assert (woken, order, entries) == _scheduled_delivery(as_call=False, bystander_at=1.0)
        # The bystander was queued first and ran first; the reader woke in an
        # entry of its own after it.
        assert order[0] < woken[0][1] == entries

    def test_a_call_cannot_be_scheduled_in_the_past(self):
        with pytest.raises(SimulationError):
            Simulator()._schedule_call(-1.0, print, None)


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
