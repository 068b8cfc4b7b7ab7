"""Tests for shared-trunk fair queueing: FIFO/DRR schedulers and flow stats."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.network.link import Link
from repro.network.message import MESSAGE_OVERHEAD_BYTES, MessageKind, batch_message
from repro.network.simulator import Simulator
from repro.network.stats import FlowStats, jain_fairness_index
from repro.tenancy.fairqueue import (
    DeficitRoundRobinScheduler,
    FifoLinkScheduler,
    shared_trunks,
)

BANDWIDTH = 1000.0  # bytes per second: sizes translate directly into seconds


def data_message(payload_bytes, rows=1):
    return batch_message(MessageKind.RECORDS, None, payload_bytes, row_count=rows)


def make_link(sim, name, scheduler, flow):
    return Link(
        sim,
        name,
        bandwidth_bytes_per_sec=BANDWIDTH,
        latency_seconds=0.0,
        scheduler=scheduler,
        flow=flow,
    )


class TestWorkConservation:
    @pytest.mark.parametrize("discipline", ["fifo", "drr"])
    def test_trunk_never_idles_with_backlog(self, discipline):
        sim = Simulator()
        trunk = (
            FifoLinkScheduler(sim)
            if discipline == "fifo"
            else DeficitRoundRobinScheduler(sim, quantum_bytes=512)
        )
        links = [make_link(sim, f"l{i}", trunk, f"flow{i}") for i in range(3)]
        total_bytes = 0
        for index, link in enumerate(links):
            for _ in range(5):
                message = data_message(100 * (index + 1))
                total_bytes += message.size_bytes
                link.send(message)
        sim.run()
        # All submitted at t=0: a work-conserving trunk finishes exactly at
        # total_bytes / bandwidth, with busy time equal to the makespan.
        assert sim.now == pytest.approx(total_bytes / BANDWIDTH)
        assert trunk.stats.busy_seconds == pytest.approx(sim.now)
        assert trunk.stats.total_bytes == total_bytes

    def test_trunk_resumes_after_idle_gap(self):
        sim = Simulator()
        trunk = DeficitRoundRobinScheduler(sim)
        link = make_link(sim, "l", trunk, "f")
        link.send(data_message(100))
        sim.run()
        first_done = sim.now
        link.send(data_message(100))
        sim.run()
        message_seconds = (100 + MESSAGE_OVERHEAD_BYTES) / BANDWIDTH
        assert first_done == pytest.approx(message_seconds)
        assert sim.now == pytest.approx(2 * message_seconds)


class TestDrrFairness:
    def test_backlogged_flows_share_within_one_quantum(self):
        """At every instant, two backlogged flows' served bytes differ by at
        most one quantum plus one maximum message (the DRR bound)."""
        quantum = 600
        sim = Simulator()
        trunk = DeficitRoundRobinScheduler(sim, quantum_bytes=quantum)
        link_a = make_link(sim, "a", trunk, "A")
        link_b = make_link(sim, "b", trunk, "B")
        size = 200
        for _ in range(40):
            link_a.send(data_message(size))
            link_b.send(data_message(size))
        max_message = size + MESSAGE_OVERHEAD_BYTES
        while sim.pending_events:
            sim.step()
            served_a = trunk.stats.flow("A").total_bytes
            served_b = trunk.stats.flow("B").total_bytes
            assert abs(served_a - served_b) <= quantum + max_message

    def test_small_flow_not_starved_by_bulk_flow(self):
        """A flow of small messages escapes a bulk backlog far earlier under
        DRR than under FIFO, and while both flows are backlogged the small
        flow holds its 1/N byte share — the property FIFO lacks."""
        quantum = 1024

        def run(make_trunk):
            sim = Simulator()
            trunk = make_trunk(sim)
            bulk = make_link(sim, "bulk", trunk, "bulk")
            small = make_link(sim, "small", trunk, "small")
            # The bulk backlog is submitted first: FIFO then serialises all
            # of it before the small flow's first byte.
            for _ in range(30):
                bulk.send(data_message(900))
            for _ in range(60):
                small.send(data_message(120))
            # Step until the small flow's last message has started; while it
            # was backlogged its served share must stay >= 1/2 minus slack.
            while trunk.stats.flow("small").message_count < 60:
                sim.step()
            served_small = trunk.stats.flow("small").total_bytes
            served_total = trunk.stats.total_bytes
            return sim.now, served_small, served_total

        drr_done, drr_small, drr_total = run(
            lambda sim: DeficitRoundRobinScheduler(sim, quantum_bytes=quantum)
        )
        fifo_done, _, _ = run(lambda sim: FifoLinkScheduler(sim))

        slack = quantum + 900 + MESSAGE_OVERHEAD_BYTES
        assert drr_small >= drr_total / 2 - slack
        fairness = jain_fairness_index([drr_small, drr_total - drr_small])
        assert fairness > 0.95
        # Under FIFO the small flow finishes only after the entire bulk
        # backlog; under DRR it interleaves and finishes in about half the
        # time.
        assert drr_done < fifo_done * 0.6

    def test_fifo_lets_bulk_flow_starve_small_flow(self):
        """The FIFO contrast: everything submitted first transmits first."""
        sim = Simulator()
        trunk = FifoLinkScheduler(sim)
        bulk = make_link(sim, "bulk", trunk, "bulk")
        small = make_link(sim, "small", trunk, "small")
        for _ in range(30):
            bulk.send(data_message(900))
        small.send(data_message(120))
        # The small message waits behind the entire bulk backlog.
        sim.run()
        small_stats = trunk.stats.flow("small")
        assert small_stats.queueing_seconds == pytest.approx(
            30 * (900 + MESSAGE_OVERHEAD_BYTES) / BANDWIDTH
        )

    def test_rejects_nonpositive_quantum(self):
        with pytest.raises(SimulationError):
            DeficitRoundRobinScheduler(Simulator(), quantum_bytes=0)


class TestSingleFlowEquivalence:
    """With one flow, both disciplines reproduce the private-link timeline."""

    @pytest.mark.parametrize("discipline", ["fifo", "drr"])
    def test_delivery_times_match_legacy_link(self, discipline):
        sizes = [100, 350, 20, 500, 80]
        latency = 0.05

        def run(scheduler_factory):
            sim = Simulator()
            scheduler = scheduler_factory(sim) if scheduler_factory else None
            link = Link(
                sim,
                "l",
                bandwidth_bytes_per_sec=BANDWIDTH,
                latency_seconds=latency,
                scheduler=scheduler,
                flow="solo",
            )
            arrivals = []

            def watch():
                for _ in sizes:
                    message = yield link.destination.get()
                    arrivals.append((sim.now, message.payload_bytes))

            sim.process(watch())
            for size in sizes:
                link.send(data_message(size))
            sim.run()
            return arrivals, link.stats.busy_seconds, link.stats.queueing_seconds

        factory = (
            (lambda sim: FifoLinkScheduler(sim))
            if discipline == "fifo"
            else (lambda sim: DeficitRoundRobinScheduler(sim))
        )
        legacy = run(None)
        shared = run(factory)
        assert len(shared[0]) == len(legacy[0])
        for (shared_time, shared_size), (legacy_time, legacy_size) in zip(
            shared[0], legacy[0]
        ):
            # Same arrival order and sizes; times equal up to float rounding
            # (the legacy path accumulates an absolute free-at timeline, the
            # trunk accumulates per-transmission deltas).
            assert shared_size == legacy_size
            assert shared_time == pytest.approx(legacy_time, abs=1e-9)
        assert shared[1] == pytest.approx(legacy[1])
        assert shared[2] == pytest.approx(legacy[2])


class TestQueueDepth:
    @pytest.mark.parametrize("discipline", ["fifo", "drr"])
    def test_queue_depth_counts_messages_behind_the_wire(self, discipline):
        sim = Simulator()
        trunk = (
            FifoLinkScheduler(sim)
            if discipline == "fifo"
            else DeficitRoundRobinScheduler(sim, quantum_bytes=512)
        )
        assert not trunk.busy and trunk.queue_depth == 0
        link = make_link(sim, "l", trunk, "f")
        sizes = [400, 300, 200, 100]
        total = 0
        for size in sizes:
            message = data_message(size)
            total += message.size_bytes
            link.send(message)
        # Everything submitted at t=0; the first message is serialising and
        # three are queued.
        assert trunk.busy and trunk.queue_depth == 3
        sim.run()
        assert sim.now == pytest.approx(total / BANDWIDTH)
        # Drained: nothing queued, nothing serialising.
        assert not trunk.busy and trunk.queue_depth == 0


class TestDriftTraceIdentity:
    """Shared-trunk transmissions under bandwidth drift must stay
    trace-identical to the private Link.send path for a single flow: both
    sample ``bandwidth_at`` once, at the instant serialisation starts."""

    SCHEDULE = ((0.5, 250.0), (1.5, 4000.0), (3.0, 500.0))

    @pytest.mark.parametrize("discipline", ["fifo", "drr"])
    def test_single_flow_on_drifting_link_matches_private_path(self, discipline):
        sizes = [100, 350, 20, 500, 80, 240]
        latency = 0.02

        def run(scheduler_factory):
            sim = Simulator()
            scheduler = scheduler_factory(sim) if scheduler_factory else None
            link = Link(
                sim,
                "l",
                bandwidth_bytes_per_sec=BANDWIDTH,
                latency_seconds=latency,
                bandwidth_schedule=self.SCHEDULE,
                scheduler=scheduler,
                flow="solo",
            )
            arrivals = []

            def watch():
                for _ in sizes:
                    message = yield link.destination.get()
                    arrivals.append((sim.now, message.payload_bytes))

            sim.process(watch())
            for size in sizes:
                link.send(data_message(size))
            sim.run()
            return arrivals, link.stats.busy_seconds, link.stats.queueing_seconds

        factory = (
            (lambda sim: FifoLinkScheduler(sim))
            if discipline == "fifo"
            else (lambda sim: DeficitRoundRobinScheduler(sim))
        )
        legacy_arrivals, legacy_busy, legacy_queueing = run(None)
        trunk_arrivals, trunk_busy, trunk_queueing = run(factory)
        # Sanity: the drift schedule actually bites — the timeline differs
        # from the constant-bandwidth case.
        flat_total = sum(size + MESSAGE_OVERHEAD_BYTES for size in sizes) / BANDWIDTH
        assert legacy_arrivals[-1][0] != pytest.approx(flat_total + latency)
        assert len(trunk_arrivals) == len(legacy_arrivals)
        for (trunk_time, trunk_size), (legacy_time, legacy_size) in zip(
            trunk_arrivals, legacy_arrivals
        ):
            assert trunk_size == legacy_size
            assert trunk_time == pytest.approx(legacy_time, abs=1e-9)
        assert trunk_busy == pytest.approx(legacy_busy, abs=1e-9)
        assert trunk_queueing == pytest.approx(legacy_queueing, abs=1e-9)


class TestFlowAccounting:
    def test_per_flow_counters_sum_to_trunk_totals(self):
        sim = Simulator()
        trunk = DeficitRoundRobinScheduler(sim, quantum_bytes=512)
        links = [make_link(sim, f"l{i}", trunk, f"f{i}") for i in range(4)]
        for index, link in enumerate(links):
            for _ in range(index + 1):
                link.send(data_message(150, rows=3))
        sim.run()
        assert set(trunk.stats.flows) == {f"f{i}" for i in range(4)}
        assert sum(f.total_bytes for f in trunk.stats.flows.values()) == trunk.stats.total_bytes
        assert sum(f.message_count for f in trunk.stats.flows.values()) == trunk.stats.message_count
        assert sum(f.rows_transferred for f in trunk.stats.flows.values()) == trunk.stats.rows_transferred
        assert sum(
            f.busy_seconds for f in trunk.stats.flows.values()
        ) == pytest.approx(trunk.stats.busy_seconds)

    def test_link_stats_match_trunk_flow_stats(self):
        """Each link's private stats equal its flow's slice of the trunk."""
        sim = Simulator()
        trunk = FifoLinkScheduler(sim)
        link_a = make_link(sim, "a", trunk, "A")
        link_b = make_link(sim, "b", trunk, "B")
        for _ in range(3):
            link_a.send(data_message(200, rows=2))
        link_b.send(data_message(700, rows=9))
        sim.run()
        for link, flow in ((link_a, "A"), (link_b, "B")):
            flow_stats = trunk.stats.flow(flow)
            assert link.stats.total_bytes == flow_stats.total_bytes
            assert link.stats.message_count == flow_stats.message_count
            assert link.stats.rows_transferred == flow_stats.rows_transferred
            assert link.stats.busy_seconds == pytest.approx(flow_stats.busy_seconds)


COUNTS = ("message_count", "data_message_count", "total_bytes", "payload_bytes", "rows_transferred")
SECONDS = ("busy_seconds", "queueing_seconds")


def assert_same_ledger(actual, expected):
    """Counts exactly, seconds to 1e-9 (the folds add in different orders)."""
    for name in COUNTS:
        assert getattr(actual, name) == getattr(expected, name), name
    for name in SECONDS:
        assert getattr(actual, name) == pytest.approx(getattr(expected, name), abs=1e-9), name


traffic = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),  # the sending link
        st.integers(min_value=0, max_value=1500),  # payload bytes
        st.integers(min_value=0, max_value=40),  # rows
        st.sampled_from([0.0, 0.0, 0.05, 0.4, 2.0]),  # idle seconds before the send
    ),
    max_size=60,
)


class TestLedgerEquivalence:
    """A trunk message is booked into its link's ledger and the trunk's totals;
    the trunk's split by flow is the links' ledgers folded on read.  These are
    the sums that must agree for that fold to stand in for a per-message child."""

    @pytest.mark.parametrize("discipline", ["fifo", "drr"])
    @given(traffic=traffic, flows=st.lists(st.sampled_from([None, "a", "b", "c"]), min_size=6, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_trunk_totals_flow_children_and_link_ledgers_agree(self, discipline, traffic, flows):
        sim = Simulator()
        trunk = (
            FifoLinkScheduler(sim)
            if discipline == "fifo"
            else DeficitRoundRobinScheduler(sim, quantum_bytes=700)
        )
        links = [make_link(sim, f"l{index}", trunk, flow) for index, flow in enumerate(flows)]
        flow_of = [link.flow or link.name for link in links]
        sent = {name: Counter() for name in flow_of}
        for index, payload_bytes, rows, idle in traffic:
            sim.run(until=sim.now + idle)
            message = data_message(payload_bytes, rows=rows)
            links[index].send(message)
            sent[flow_of[index]].update(
                message_count=1, total_bytes=message.size_bytes, rows_transferred=rows
            )
        sim.run()

        children = trunk.stats.flows
        # Exactly the flows that sent anything, each with what was sent on it.
        assert set(children) == {name for name, counts in sent.items() if counts}
        for name, child in children.items():
            for counter, value in sent[name].items():
                assert getattr(child, counter) == value
            members = [link.stats for link, flow in zip(links, flow_of) if flow == name]
            assert_same_ledger(child, sum(members, FlowStats(name)))
            assert_same_ledger(trunk.stats.flow(name), child)
            if len(members) == 1:
                assert child == members[0].snapshot()
        assert_same_ledger(trunk.stats, sum(children.values(), FlowStats()))
        assert trunk.stats.flow_bytes() == {name: child.total_bytes for name, child in children.items()}


class TestSharedTrunksFactory:
    def test_disciplines(self):
        sim = Simulator()
        down, up = shared_trunks(sim, discipline="drr", quantum_bytes=4096)
        assert isinstance(down, DeficitRoundRobinScheduler)
        assert down.quantum_bytes == 4096
        down, up = shared_trunks(sim, discipline="fifo")
        assert isinstance(up, FifoLinkScheduler)
        for unknown in ("none", "weighted"):
            with pytest.raises(ValueError):
                shared_trunks(sim, discipline=unknown)
