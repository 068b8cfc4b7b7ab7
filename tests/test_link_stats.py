"""Tests for LinkStats accounting: rows/message, the +/- algebra, executor consistency."""

import pytest

from repro.core.strategies import StrategyConfig
from repro.network.link import Link
from repro.network.message import (
    Message,
    MessageKind,
    batch_message,
    end_of_stream,
    error_message,
)
from repro.network.simulator import Simulator
from repro.network.stats import FlowStats, LinkStats, jain_fairness_index
from repro.workloads.experiments import run_workload_point
from repro.workloads.synthetic import SyntheticWorkload


def data_message(rows, payload_bytes=100):
    return batch_message(MessageKind.RECORDS, None, payload_bytes, row_count=rows)


class TestMessageConstants:
    def test_wire_size_kind_and_data_flag_are_fixed_at_construction(self):
        """The ledgers read these per transmission; they must be what the
        message's kind and payload size say."""
        for kind in MessageKind:
            message = Message(kind, None, payload_bytes=84)
            assert message.size_bytes == 100
            assert message.kind_name == kind.value
            assert message.is_data == (kind not in (MessageKind.CONTROL, MessageKind.ERROR))
        assert (end_of_stream().is_data, end_of_stream().size_bytes) == (False, 16)
        assert not error_message(ValueError("x")).is_data


class TestRowsPerMessage:
    def test_counts_only_data_messages(self):
        stats = LinkStats(name="l")
        stats.record(data_message(10), queued_for=0.0, transmission=0.1)
        stats.record(data_message(30), queued_for=0.0, transmission=0.1)
        # Control and error frames carry no rows and must not dilute the mean.
        stats.record(end_of_stream(), queued_for=0.0, transmission=0.01)
        stats.record(error_message(ValueError("x")), queued_for=0.0, transmission=0.01)
        assert stats.message_count == 4
        assert stats.data_message_count == 2
        assert stats.rows_transferred == 40
        assert stats.rows_per_message == pytest.approx(20.0)

    def test_zero_data_messages_yields_zero(self):
        stats = LinkStats(name="l")
        assert stats.rows_per_message == 0.0
        stats.record(end_of_stream(), queued_for=0.0, transmission=0.01)
        assert stats.rows_per_message == 0.0

    def test_link_send_records_rows(self):
        sim = Simulator()
        link = Link(sim, "l", bandwidth_bytes_per_sec=1000.0)
        link.send(data_message(7))
        link.send(end_of_stream())
        sim.run()
        assert link.stats.rows_transferred == 7
        assert link.stats.data_message_count == 1
        assert link.stats.rows_per_message == pytest.approx(7.0)


class TestMerge:
    def make_stats(self, name, rows, kinds):
        stats = LinkStats(name=name)
        for row_count in rows:
            stats.record(data_message(row_count), queued_for=0.5, transmission=0.25)
        for kind in kinds:
            if kind == "control":
                stats.record(end_of_stream(), queued_for=0.1, transmission=0.05)
            else:
                stats.record(
                    error_message(RuntimeError("boom")), queued_for=0.1, transmission=0.05
                )
        return stats

    def test_merge_adds_every_counter(self):
        left = self.make_stats("l", rows=[10, 20], kinds=["control"])
        right = self.make_stats("l", rows=[5], kinds=["control", "error"])
        merged = left + right

        assert merged.name == "l"
        assert merged.message_count == left.message_count + right.message_count
        assert merged.data_message_count == 3
        assert merged.rows_transferred == 35
        assert merged.total_bytes == left.total_bytes + right.total_bytes
        assert merged.payload_bytes == left.payload_bytes + right.payload_bytes
        assert merged.busy_seconds == pytest.approx(left.busy_seconds + right.busy_seconds)
        assert merged.queueing_seconds == pytest.approx(
            left.queueing_seconds + right.queueing_seconds
        )

    def test_merge_does_not_mutate_inputs(self):
        left = self.make_stats("l", rows=[10], kinds=[])
        right = self.make_stats("l", rows=[20], kinds=[])
        before = (left.snapshot(), right.snapshot())
        left + right
        assert (left.snapshot(), right.snapshot()) == before

    def test_merged_rows_per_message_is_weighted(self):
        left = self.make_stats("l", rows=[10] * 3, kinds=[])
        right = self.make_stats("l", rows=[40], kinds=["control"])
        merged = left + right
        assert merged.rows_per_message == pytest.approx(70 / 4)


class TestCounterAlgebra:
    """``+`` folds two streams, ``-`` is what happened between two readings."""

    # Dyadic seconds, so the float counters add and subtract exactly.
    STREAM = [
        (data_message(10, payload_bytes=84), 0.5, 0.25),
        (end_of_stream(), 0.0, 0.125),
        (data_message(3, payload_bytes=20), 0.25, 0.5),
        (error_message(ValueError("x")), 0.125, 0.0625),
        (data_message(7, payload_bytes=300), 0.0, 1.0),
    ]

    def recorded(self, entries):
        stats = LinkStats(name="l")
        for message, queued_for, transmission in entries:
            stats.record(message, queued_for=queued_for, transmission=transmission)
        return stats

    @pytest.mark.parametrize("split", range(len(STREAM) + 1))
    def test_recording_the_halves_and_adding_is_recording_the_whole(self, split):
        whole = self.recorded(self.STREAM)
        first, second = self.recorded(self.STREAM[:split]), self.recorded(self.STREAM[split:])
        assert first + second == whole.snapshot()
        assert first.snapshot() + second.snapshot() == whole.snapshot()
        # On arbitrary floats the halves add in stream order: first, then second.
        assert (first + second).busy_seconds == first.busy_seconds + second.busy_seconds

    @pytest.mark.parametrize("split", range(len(STREAM) + 1))
    def test_difference_of_two_readings_is_what_happened_between(self, split):
        live = self.recorded(self.STREAM[:split])
        before = live.snapshot()
        for message, queued_for, transmission in self.STREAM[split:]:
            live.record(message, queued_for=queued_for, transmission=transmission)
        between = self.recorded(self.STREAM[split:]).snapshot()
        assert live - before == between
        assert (before + between) - before == between

    def test_snapshot_does_not_move_with_the_live_counters(self):
        live = self.recorded(self.STREAM[:2])
        reading = live.snapshot()
        frozen = (reading.message_count, reading.total_bytes, reading.busy_seconds)
        live.record(*self.STREAM[2])
        assert (reading.message_count, reading.total_bytes, reading.busy_seconds) == frozen
        assert live.message_count == reading.message_count + 1
        assert not hasattr(reading, "flows")

    def test_single_flow_child_equals_the_link_total(self):
        link = self.recorded(self.STREAM)
        trunk = LinkStats(name="trunk")
        trunk.adopt("only", link)
        assert trunk.flow("only") == link.snapshot()
        assert trunk.flow("only").rows_per_message == link.rows_per_message

    def test_execution_counters_fold_maps_key_by_key_and_peaks_by_maximum(self):
        from repro.core.execution.context import ExecutionCounters

        first = ExecutionCounters(
            downlink=self.recorded(self.STREAM[:2]).snapshot(),
            udf_invocations=3,
            client_compute_seconds=0.75,
            invocations_by_udf={"f": 2, "g": 1},
            compute_seconds_by_udf={"f": 0.5, "g": 0.25},
            input_rows=10,
            send_stall_seconds=0.5,
            index_lookups=1,
            peak_in_flight_batches=4,
        )
        second = ExecutionCounters(
            downlink=self.recorded(self.STREAM[2:]).snapshot(),
            udf_invocations=1,
            client_compute_seconds=0.5,
            invocations_by_udf={"h": 1},
            compute_seconds_by_udf={"h": 0.5},
            input_rows=5,
            peak_in_flight_batches=2,
        )
        total = first + second
        assert total.downlink == self.recorded(self.STREAM).snapshot()
        assert (total.udf_invocations, total.input_rows, total.index_lookups) == (4, 15, 1)
        assert total.invocations_by_udf == {"f": 2, "g": 1, "h": 1}
        assert total.compute_seconds_by_udf == {"f": 0.5, "g": 0.25, "h": 0.5}
        assert total.peak_in_flight_batches == 4  # a high-water mark, not a sum
        assert (ExecutionCounters() + first) == first
        since = total - first
        assert since.downlink == second.downlink
        assert (since.udf_invocations, since.client_compute_seconds) == (1, 0.5)
        assert since.invocations_by_udf == {"f": 0, "g": 0, "h": 1}
        assert since.peak_in_flight_batches == 4  # not differenced: still the peak seen


def shared_trunk(transmissions):
    """A trunk and its session links, booked as a trunk scheduler books them:
    each link adopted once, each message recorded by its link and the trunk."""
    trunk, links = LinkStats(name="trunk"), {}
    for flow, message, queued_for, transmission in transmissions:
        if flow not in links:
            links[flow] = LinkStats(name=f"{flow}.downlink")
            trunk.adopt(flow, links[flow])
        links[flow].record(message, queued_for, transmission)
        trunk.record(message, queued_for, transmission)
    return trunk, links


class TestFlowAttribution:
    """Per-flow shares of a trunk: the ledgers of the links it adopted."""

    def test_adopted_ledgers_are_the_flow_shares(self):
        trunk, _ = shared_trunk(
            [
                ("a", data_message(10), 0.2, 0.1),
                ("b", data_message(30), 0.0, 0.3),
                ("a", data_message(5), 0.1, 0.05),
                ("a", end_of_stream(), 0.0, 0.01),
            ]
        )
        flow_a = trunk.flow("a")
        assert flow_a.message_count == 3
        assert flow_a.data_message_count == 2
        assert flow_a.rows_transferred == 15
        assert flow_a.queueing_seconds == pytest.approx(0.3)
        assert trunk.flow("b").rows_transferred == 30
        # An unknown flow reads as all-zero, never a KeyError.
        assert trunk.flow("ghost").total_bytes == 0
        assert "ghost" not in trunk.flows

    def test_untagged_records_touch_no_flow(self):
        stats = LinkStats(name="l")
        stats.record(data_message(10), queued_for=0.0, transmission=0.1)
        assert stats.flows == {}
        assert stats.rows_transferred == 10

    def test_an_adopted_link_that_never_sent_is_no_flow(self):
        trunk, _ = shared_trunk([("a", data_message(1), 0.0, 0.1)])
        trunk.adopt("idle", LinkStats(name="idle.downlink"))
        assert set(trunk.flows) == {"a"}

    def test_flow_counters_sum_to_link_totals(self):
        """Regression: two interleaved sessions' shares sum to the trunk
        totals, message by message."""
        transmissions = []
        for index in range(10):
            transmissions.append(
                (
                    "s0" if index % 2 == 0 else "s1",
                    data_message(index + 1, payload_bytes=50 * (index + 1)),
                    0.01 * index,
                    0.1,
                )
            )
            stats, _ = shared_trunk(transmissions)
            flows = stats.flows.values()
            assert sum(f.total_bytes for f in flows) == stats.total_bytes
            assert sum(f.payload_bytes for f in flows) == stats.payload_bytes
            assert sum(f.message_count for f in flows) == stats.message_count
            assert sum(f.rows_transferred for f in flows) == stats.rows_transferred
            assert sum(f.busy_seconds for f in flows) == pytest.approx(
                stats.busy_seconds
            )
            assert sum(f.queueing_seconds for f in flows) == pytest.approx(
                stats.queueing_seconds
            )
        assert set(stats.flows) == {"s0", "s1"}

    def test_a_flow_folds_every_ledger_it_adopted(self):
        """Two links of one session (its downlink and uplink on one trunk,
        say) make one share; reading it leaves the ledgers as they were."""
        trunk, links = shared_trunk(
            [
                ("a", data_message(10), 0.1, 0.2),
                ("b", data_message(20), 0.0, 0.4),
            ]
        )
        second = LinkStats(name="b.uplink")
        trunk.adopt("b", second)
        second.record(data_message(5), queued_for=0.3, transmission=0.1)
        trunk.record(data_message(5), queued_for=0.3, transmission=0.1)

        assert set(trunk.flows) == {"a", "b"}
        assert trunk.flow("a").rows_transferred == 10
        assert trunk.flow("b").rows_transferred == 25
        assert trunk.flow("b").queueing_seconds == pytest.approx(0.3)
        assert trunk.flow("b").busy_seconds == pytest.approx(0.5)
        assert sum(f.total_bytes for f in trunk.flows.values()) == trunk.total_bytes
        assert links["b"].rows_transferred == 20
        assert second.rows_transferred == 5

    def test_flow_stats_merge_and_achieved_bandwidth(self):
        first = FlowStats("f")
        first.record(data_message(4, payload_bytes=84), queued_for=1.0, transmission=1.0)
        second = FlowStats("f")
        second.record(data_message(2, payload_bytes=84), queued_for=0.0, transmission=2.0)
        merged = first + second
        assert merged.total_bytes == 200
        assert merged.achieved_bandwidth == pytest.approx(200 / 4.0)
        assert FlowStats("idle").achieved_bandwidth is None

    def test_flow_bytes_feeds_fairness_metrics(self):
        trunk, _ = shared_trunk(
            [
                ("a", data_message(1, payload_bytes=84), 0.0, 0.1),
                ("b", data_message(1, payload_bytes=84), 0.0, 0.1),
            ]
        )
        assert trunk.flow_bytes() == {"a": 100, "b": 100}


class TestJainFairnessIndex:
    def test_equal_shares_are_perfectly_fair(self):
        assert jain_fairness_index([100.0, 100.0, 100.0]) == pytest.approx(1.0)

    def test_starved_flows_count_toward_n(self):
        """Regression: zero allocations used to be dropped, so one bulk flow
        plus three fully starved flows scored a "perfectly fair" 1.0.  Every
        active flow counts: the score must be 1/4."""
        assert jain_fairness_index([1000.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_partially_starved_mixture(self):
        # (sum x)^2 / (n sum x^2) with one dominant and one starved flow.
        values = [900.0, 100.0, 0.0]
        expected = (1000.0**2) / (3 * (900.0**2 + 100.0**2))
        assert jain_fairness_index(values) == pytest.approx(expected)

    def test_degenerate_inputs_are_vacuously_fair(self):
        assert jain_fairness_index([]) == 1.0
        assert jain_fairness_index([0.0, 0.0]) == 1.0
        # Negative allocations (impossible byte counts) clamp to zero.
        assert jain_fairness_index([-5.0, 10.0]) == pytest.approx(0.5)


class TestExecutorConsistency:
    """Link row accounting must agree with what the operators actually shipped."""

    @pytest.mark.parametrize("batch_size", [1, 16])
    def test_semi_join_rows_transferred(self, asymmetric_network, batch_size):
        workload = SyntheticWorkload(row_count=50, distinct_fraction=1.0)
        point = run_workload_point(
            workload, asymmetric_network, StrategyConfig.semi_join(batch_size=batch_size)
        )
        # Every distinct argument tuple crosses the downlink exactly once,
        # and every result crosses the uplink exactly once, whatever the
        # batching; control frames contribute no rows.
        assert point.parameters["row_count"] == 50

    def test_rows_match_operator_counts(self, asymmetric_network):
        from repro.client.runtime import ClientRuntime
        from repro.core.execution.context import RemoteExecutionContext
        from repro.core.execution.rewrite import build_operator
        from repro.relational.operators.scan import TableScan

        workload = SyntheticWorkload(row_count=40, distinct_fraction=0.5)
        table = workload.build_table()
        registry = workload.build_registry()
        context = RemoteExecutionContext.create(
            asymmetric_network, client=ClientRuntime(registry=registry)
        )
        operator = build_operator(
            child=TableScan(table),
            udf=registry.get(workload.udf_name),
            argument_columns=[f"{workload.relation_name}.Argument"],
            context=context,
            config=StrategyConfig.semi_join(batch_size=8),
        )
        operator.run()

        downlink = context.channel.downlink.stats
        uplink = context.channel.uplink.stats
        # The semi-join ships each *distinct* argument tuple down once and
        # receives one result per shipped tuple.
        assert downlink.rows_transferred == operator.distinct_argument_count
        assert uplink.rows_transferred == operator.distinct_argument_count
        assert operator.input_row_count == 40
        assert operator.distinct_argument_count == 20
        # Data-message framing: rows per message never exceeds the batch size.
        assert downlink.rows_per_message <= 8

    def test_client_site_join_uplink_rows_are_survivors(self, asymmetric_network):
        workload = SyntheticWorkload(row_count=40, selectivity=0.25)
        point = run_workload_point(
            workload, asymmetric_network, StrategyConfig.client_site_join(batch_size=4)
        )
        assert point.rows == 10  # 0.25 * 40 survive the pushed predicate

    def test_tuple_at_a_time_one_row_per_data_message(self, asymmetric_network):
        from repro.client.runtime import ClientRuntime
        from repro.core.execution.context import RemoteExecutionContext
        from repro.core.execution.rewrite import build_operator
        from repro.relational.operators.scan import TableScan

        workload = SyntheticWorkload(row_count=25)
        table = workload.build_table()
        registry = workload.build_registry()
        context = RemoteExecutionContext.create(
            asymmetric_network, client=ClientRuntime(registry=registry)
        )
        operator = build_operator(
            child=TableScan(table),
            udf=registry.get(workload.udf_name),
            argument_columns=[f"{workload.relation_name}.Argument"],
            context=context,
            config=StrategyConfig.semi_join(batch_size=1),
        )
        operator.run()
        downlink = context.channel.downlink.stats
        assert downlink.rows_transferred == 25
        assert downlink.data_message_count == 25
        assert downlink.rows_per_message == pytest.approx(1.0)
        # The end-of-stream control frame is counted as a message but not a row.
        assert downlink.message_count == 26
