"""Tests for the discrete-event simulation kernel and its resources."""

import pytest

from repro.errors import SimulationError
from repro.network.events import Event, Process, Timeout
from repro.network.resources import Store
from repro.network.simulator import Simulator


class TestEventsAndTimeouts:
    def test_timeout_advances_clock(self):
        sim = Simulator()

        def process():
            yield sim.timeout(1.5)
            yield sim.timeout(0.5)
            return "done"

        assert sim.run_process(process()) == "done"
        assert sim.now == pytest.approx(2.0)

    def test_negative_timeout_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.timeout(-1)

    def test_event_value_passes_to_process(self):
        sim = Simulator()
        event = sim.event("signal")

        def producer():
            yield sim.timeout(1.0)
            event.succeed("payload")

        def consumer():
            value = yield event
            return value

        sim.process(producer())
        consumer_process = sim.process(consumer())
        sim.run()
        assert consumer_process.value == "payload"
        assert sim.now == pytest.approx(1.0)

    def test_event_cannot_trigger_twice(self):
        sim = Simulator()
        event = sim.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)

    def test_event_failure_propagates_into_process(self):
        sim = Simulator()
        event = sim.event()

        def failing():
            yield event

        process = sim.process(failing())
        event.fail(ValueError("boom"))
        sim.run()
        assert process.triggered
        assert isinstance(process._exception, ValueError)

    def test_fail_requires_an_exception_instance(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.event().fail("not an exception")  # type: ignore[arg-type]

    def test_run_process_raises_process_exception(self):
        sim = Simulator()

        def failing():
            yield sim.timeout(0.1)
            raise RuntimeError("inner failure")

        with pytest.raises(RuntimeError, match="inner failure"):
            sim.run_process(failing())

    def test_yielding_non_event_fails_the_process(self):
        sim = Simulator()

        def bad():
            yield 42

        with pytest.raises(SimulationError):
            sim.run_process(bad())

    def test_waiting_on_already_processed_event_does_not_deadlock(self):
        sim = Simulator()
        event = sim.event()
        event.succeed("early")
        sim.run()

        def late():
            value = yield event
            return value

        assert sim.run_process(late()) == "early"

    def test_deadlock_detection(self):
        sim = Simulator()
        never = sim.event("never")

        def stuck():
            yield never

        with pytest.raises(SimulationError, match="blocked|deadlock|did not complete"):
            sim.run_process(stuck())

    def test_names_are_joined_from_their_parts_when_read(self):
        """Per-message events hand over name parts; nothing is formatted until
        a repr or an error message asks."""
        sim = Simulator()
        event = Event(sim, name=("link.downlink", ".tx#", 17))
        assert event.name == "link.downlink.tx#17"
        assert repr(event) == "<Event 'link.downlink.tx#17' pending>"
        assert Event(sim).name == "Event" and Event(sim, name="plain").name == "plain"
        assert sim.timeout(0.25).name == "Timeout(0.25)"
        assert repr(sim.timeout(2.0)) == "<Timeout 'Timeout(2)' triggered>"
        store = Store(sim, name="inbox")
        assert (store.get().name, store.put(1).name) == ("inbox.get", "inbox.put")
        event.succeed()
        with pytest.raises(SimulationError, match=r"'link\.downlink\.tx#17' has already been triggered"):
            event.succeed()


class TestProcessesComposition:
    def test_processes_can_wait_on_each_other(self):
        sim = Simulator()

        def worker():
            yield sim.timeout(2.0)
            return 21

        def parent():
            child = sim.process(worker())
            value = yield child
            return value * 2

        assert sim.run_process(parent()) == 42
        assert sim.now == pytest.approx(2.0)

    def test_determinism_across_runs(self):
        def build_and_run():
            sim = Simulator()
            trace = []

            def ping(label, delay):
                yield sim.timeout(delay)
                trace.append((label, sim.now))

            for index in range(5):
                sim.process(ping(index, 0.5 * (index % 3)))
            sim.run()
            return trace

        assert build_and_run() == build_and_run()

    def test_run_until_stops_the_clock(self):
        sim = Simulator()

        def ticker():
            for _ in range(10):
                yield sim.timeout(1.0)

        sim.process(ticker())
        sim.run(until=3.5)
        assert sim.now == pytest.approx(3.5)
        assert sim.pending_events > 0

    def test_run_until_before_now_does_not_move_the_clock_back(self):
        """With an event pending at 10.0 and the clock at 6.0, ``run(until=2.0)``
        used to set the clock to 2.0, and a later ``timeout(1.0)`` landed at 3.0."""
        sim = Simulator()
        sim.timeout(10.0)
        sim.run(until=6.0)
        with pytest.raises(SimulationError):
            sim.run(until=2.0)
        assert sim.now == 6.0
        sim.run(until=6.0)  # until == now stays legal
        assert sim.now == 6.0
        landed = []

        def later():
            yield sim.timeout(1.0)
            landed.append(sim.now)

        sim.process(later())
        sim.run()
        assert landed == [7.0] and sim.now == 10.0

    def test_step_requires_pending_events(self):
        with pytest.raises(SimulationError):
            Simulator().step()


class TestStore:
    def test_fifo_order(self):
        sim = Simulator()
        store = Store(sim)

        def producer():
            for value in range(5):
                yield store.put(value)

        def consumer():
            received = []
            for _ in range(5):
                item = yield store.get()
                received.append(item)
            return received

        sim.process(producer())
        consumer_process = sim.process(consumer())
        sim.run()
        assert consumer_process.value == [0, 1, 2, 3, 4]

    def test_bounded_capacity_blocks_producer(self):
        sim = Simulator()
        store = Store(sim, capacity=2)
        timeline = []

        def producer():
            for value in range(4):
                yield store.put(value)
                timeline.append(("put", value, sim.now))

        def consumer():
            for _ in range(4):
                yield sim.timeout(1.0)
                item = yield store.get()
                timeline.append(("get", item, sim.now))

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        puts = [entry for entry in timeline if entry[0] == "put"]
        # The third put can only happen after the first get at t=1.
        assert puts[2][2] >= 1.0
        assert store.peak_occupancy == 2

    def test_get_blocks_until_put(self):
        sim = Simulator()
        store = Store(sim)

        def consumer():
            item = yield store.get()
            return (item, sim.now)

        def producer():
            yield sim.timeout(2.0)
            yield store.put("late")

        consumer_process = sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert consumer_process.value == ("late", 2.0)

    def test_try_put_respects_capacity(self):
        sim = Simulator()
        store = Store(sim, capacity=1)
        assert store.try_put("a") is True
        sim.run()
        assert store.try_put("b") is False

    def test_invalid_capacity(self):
        with pytest.raises(SimulationError):
            Store(Simulator(), capacity=0)

    def test_counters(self):
        sim = Simulator()
        store = Store(sim)

        def flow():
            yield store.put(1)
            yield store.put(2)
            yield store.get()
            yield store.get()

        sim.run_process(flow())
        assert store.total_puts == 2
        assert store.total_gets == 2
        assert store.occupancy == 0
