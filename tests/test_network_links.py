"""Tests for links, channels, network configurations and transfer statistics."""

import pytest

from repro.errors import ChannelClosedError, SimulationError
from repro.network.channel import Channel
from repro.network.link import Link
from repro.network.message import (
    MESSAGE_OVERHEAD_BYTES,
    Message,
    MessageKind,
    control_message,
    end_of_stream,
    error_message,
    is_end_of_stream,
)
from repro.network.simulator import Simulator
from repro.network.topology import NetworkConfig, kilobits_per_second, megabits_per_second


def payload_message(size):
    return Message(kind=MessageKind.RECORDS, payload=None, payload_bytes=size)


class TestMessages:
    def test_size_includes_overhead(self):
        assert payload_message(100).size_bytes == 100 + MESSAGE_OVERHEAD_BYTES

    def test_sequence_numbers_increase(self):
        first = payload_message(1)
        second = payload_message(1)
        assert second.sequence > first.sequence

    def test_end_of_stream_detection(self):
        assert is_end_of_stream(end_of_stream())
        assert not is_end_of_stream(control_message("flush"))
        assert not is_end_of_stream(payload_message(1))
        assert not is_end_of_stream(None)

    def test_error_message_carries_exception(self):
        message = error_message(ValueError("bad"), sender="client")
        assert message.kind is MessageKind.ERROR
        assert isinstance(message.payload, ValueError)


class TestLink:
    def test_transmission_and_latency_timing(self):
        sim = Simulator()
        link = Link(sim, "down", bandwidth_bytes_per_sec=1000.0, latency_seconds=0.5)
        message = payload_message(1000 - MESSAGE_OVERHEAD_BYTES)  # exactly 1000 wire bytes

        def send():
            yield link.send(message)
            return sim.now

        sender_done = sim.run_process(send())
        assert sender_done == pytest.approx(1.0)  # 1000 B at 1000 B/s
        # Delivery happens after propagation latency.
        assert link.destination.occupancy == 1
        assert sim.now == pytest.approx(1.5)

    def test_serialisation_is_sequential_but_propagation_overlaps(self):
        sim = Simulator()
        link = Link(sim, "down", bandwidth_bytes_per_sec=1000.0, latency_seconds=2.0)

        def send():
            link.send(payload_message(1000 - MESSAGE_OVERHEAD_BYTES))
            link.send(payload_message(1000 - MESSAGE_OVERHEAD_BYTES))
            yield sim.timeout(0)

        sim.run_process(send())
        sim.run()
        # Two messages of 1s serialisation each: arrivals at 3s and 4s, not 6s.
        assert sim.now == pytest.approx(4.0)
        assert link.stats.message_count == 2
        assert link.stats.busy_seconds == pytest.approx(2.0)

    def test_byte_accounting_and_utilization(self):
        sim = Simulator()
        link = Link(sim, "l", bandwidth_bytes_per_sec=100.0, latency_seconds=0.0)
        link.send(payload_message(84))
        sim.run()
        assert link.bytes_transferred == 100
        # Busy the whole run: serialising is all the link did.
        assert link.stats.busy_seconds == pytest.approx(sim.now) == pytest.approx(1.0)

    def test_closed_link_rejects_sends(self):
        sim = Simulator()
        link = Link(sim, "l", bandwidth_bytes_per_sec=100.0)
        link.close()
        with pytest.raises(ChannelClosedError):
            link.send(payload_message(1))

    def test_invalid_parameters(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            Link(sim, "l", bandwidth_bytes_per_sec=0)
        with pytest.raises(SimulationError):
            Link(sim, "l", bandwidth_bytes_per_sec=10, latency_seconds=-1)


class TestChannel:
    def test_round_trip_between_server_and_client(self):
        sim = Simulator()
        channel = Channel(sim, downlink_bandwidth=1000.0, uplink_bandwidth=500.0, latency=0.1)

        def client():
            message = yield channel.receive_at_client()
            reply = Message(MessageKind.UDF_RESULT, payload=message.payload * 2, payload_bytes=84)
            yield channel.send_to_server(reply)

        def server():
            yield channel.send_to_client(Message(MessageKind.UDF_ARGUMENTS, 21, payload_bytes=84))
            reply = yield channel.receive_at_server()
            return reply.payload

        sim.process(client())
        server_process = sim.process(server())
        sim.run()
        assert server_process.value == 42
        assert channel.stats.downlink_bytes == 100
        assert channel.stats.uplink_bytes == 100

    def test_asymmetry_property(self):
        sim = Simulator()
        channel = Channel(sim, downlink_bandwidth=1000.0, uplink_bandwidth=10.0)
        assert channel.asymmetry == pytest.approx(100.0)

    def test_close_rejects_further_sends(self):
        sim = Simulator()
        channel = Channel(sim, 100.0, 100.0)
        channel.close()
        with pytest.raises(ChannelClosedError):
            channel.send_to_client(payload_message(1))
        with pytest.raises(ChannelClosedError):
            channel.send_to_server(payload_message(1))


class TestNetworkConfig:
    def test_unit_conversions(self):
        assert kilobits_per_second(28.8) == pytest.approx(3600.0)
        assert megabits_per_second(10) == pytest.approx(1_250_000.0)

    def test_presets(self):
        modem = NetworkConfig.paper_modem()
        assert modem.downlink_bandwidth == pytest.approx(3600.0)
        assert modem.asymmetry == pytest.approx(1.0)

        asymmetric = NetworkConfig.paper_asymmetric(asymmetry=100.0)
        assert asymmetric.asymmetry == pytest.approx(100.0)
        assert asymmetric.downlink_bandwidth > asymmetric.uplink_bandwidth

        lan = NetworkConfig.lan()
        assert lan.bottleneck_bandwidth > modem.bottleneck_bandwidth

    def test_symmetric_and_asymmetric_constructors(self):
        symmetric = NetworkConfig.symmetric(5000.0)
        assert symmetric.asymmetry == 1.0
        asymmetric = NetworkConfig.asymmetric(10_000.0, asymmetry=4.0)
        assert asymmetric.uplink_bandwidth == pytest.approx(2500.0)
        with pytest.raises(ValueError):
            NetworkConfig.asymmetric(10_000.0, asymmetry=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkConfig(0, 10)
        with pytest.raises(ValueError):
            NetworkConfig(10, 10, latency=-0.1)

    def test_build_channel_matches_config(self):
        sim = Simulator()
        config = NetworkConfig.asymmetric(8000.0, asymmetry=10.0, latency=0.02)
        channel = config.build_channel(sim)
        assert channel.downlink.bandwidth == pytest.approx(8000.0)
        assert channel.uplink.bandwidth == pytest.approx(800.0)
        assert channel.downlink.latency == pytest.approx(0.02)

    def test_with_drift_sets_and_sorts_schedules(self):
        base = NetworkConfig.symmetric(5000.0)
        drifted = base.with_drift(
            downlink_schedule=((2.0, 1000.0), (1.0, 2000.0)),
            uplink_schedule=((0.5, 800.0),),
        )
        assert drifted.downlink_schedule == ((1.0, 2000.0), (2.0, 1000.0))
        assert drifted.uplink_schedule == ((0.5, 800.0),)
        assert drifted.drifts
        assert drifted.name == "symmetric+drift"
        # The original config is untouched (frozen dataclass copy).
        assert not base.drifts

    def test_with_drift_preserves_omitted_direction(self):
        """Regression: layering uplink drift onto a config that already
        drifted downlink used to silently erase the downlink schedule (an
        omitted direction was replaced with ``()``)."""
        base = NetworkConfig.symmetric(5000.0).with_drift(
            downlink_schedule=((1.0, 2500.0),)
        )
        layered = base.with_drift(uplink_schedule=((2.0, 1250.0),))
        assert layered.downlink_schedule == ((1.0, 2500.0),)
        assert layered.uplink_schedule == ((2.0, 1250.0),)
        # And the mirror image: adding downlink drift keeps uplink drift.
        mirrored = base.with_drift(
            downlink_schedule=((3.0, 600.0),), uplink_schedule=((4.0, 700.0),)
        ).with_drift(downlink_schedule=((5.0, 900.0),))
        assert mirrored.uplink_schedule == ((4.0, 700.0),)
        assert mirrored.downlink_schedule == ((5.0, 900.0),)

    def test_with_drift_explicit_empty_clears_schedule(self):
        base = NetworkConfig.symmetric(5000.0).with_drift(
            downlink_schedule=((1.0, 2500.0),), uplink_schedule=((1.0, 2500.0),)
        )
        cleared = base.with_drift(downlink_schedule=(), name="flat-down")
        assert cleared.downlink_schedule == ()
        assert cleared.uplink_schedule == ((1.0, 2500.0),)
        assert cleared.name == "flat-down"
