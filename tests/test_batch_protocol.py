"""Round-trip tests for the batched wire protocol over a Channel."""

import pytest

from repro.errors import ChannelClosedError
from repro.client.protocol import ArgumentBatch, RemoteCall, ResultBatch
from repro.network.channel import Channel
from repro.network.message import (
    MESSAGE_OVERHEAD_BYTES,
    MessageKind,
    batch_message,
    end_of_stream,
    is_end_of_stream,
)
from repro.network.simulator import Simulator


def make_channel(simulator, down=10_000.0, up=10_000.0, latency=0.01):
    return Channel(simulator, down, up, latency=latency, name="test-channel")


def call_for(udf_name="Echo", width=1):
    return RemoteCall(udf_name=udf_name, argument_positions=tuple(range(width)))


class TestArgumentResultRoundTrip:
    def test_batch_round_trip_preserves_order_and_alignment(self):
        simulator = Simulator()
        channel = make_channel(simulator)
        arguments = [(i,) for i in range(5)]

        def client():
            message = yield channel.receive_at_client()
            batch: ArgumentBatch = message.payload
            assert message.kind is MessageKind.UDF_ARGUMENTS
            assert message.row_count == len(batch) == 5
            results = [args[0] * 10 for args in batch.argument_tuples]
            yield channel.send_to_server(
                batch_message(
                    MessageKind.UDF_RESULT,
                    ResultBatch(udf_name=batch.call.udf_name, results=results),
                    payload_bytes=8 * len(results),
                    row_count=len(results),
                )
            )

        def server():
            yield channel.send_batch_to_client(
                MessageKind.UDF_ARGUMENTS,
                ArgumentBatch(call=call_for(), argument_tuples=arguments),
                payload_bytes=8 * len(arguments),
                row_count=len(arguments),
            )
            reply = yield channel.receive_at_server()
            return reply

        simulator.process(client(), name="client")
        server_process = simulator.process(server(), name="server")
        simulator.run()

        reply = server_process.value
        assert reply.kind is MessageKind.UDF_RESULT
        batch: ResultBatch = reply.payload
        assert batch.udf_name == "Echo"
        # Results align positionally with the shipped argument tuples.
        assert batch.results == [i * 10 for i in range(5)]
        assert reply.row_count == 5

    def test_batch_messages_amortise_framing_overhead(self):
        simulator = Simulator()
        channel = make_channel(simulator)
        batched = batch_message(
            MessageKind.UDF_ARGUMENTS,
            ArgumentBatch(call=call_for(), argument_tuples=[(i,) for i in range(10)]),
            payload_bytes=80,
            row_count=10,
        )
        assert batched.size_bytes == 80 + MESSAGE_OVERHEAD_BYTES
        assert batched.overhead_bytes_per_row == pytest.approx(MESSAGE_OVERHEAD_BYTES / 10)

        def sender():
            yield channel.send_to_client(batched)

        simulator.run_process(sender())
        stats = channel.downlink.stats
        assert stats.message_count == 1
        assert stats.rows_transferred == 10
        assert stats.rows_per_message == pytest.approx(10.0)

    def test_multiple_batches_arrive_in_order(self):
        simulator = Simulator()
        channel = make_channel(simulator)

        def server():
            for start in range(0, 9, 3):
                yield channel.send_batch_to_client(
                    MessageKind.UDF_ARGUMENTS,
                    ArgumentBatch(
                        call=call_for(),
                        argument_tuples=[(i,) for i in range(start, start + 3)],
                    ),
                    payload_bytes=24,
                    row_count=3,
                )

        def client():
            received = []
            for _ in range(3):
                message = yield channel.receive_at_client()
                received.extend(args[0] for args in message.payload.argument_tuples)
            return received

        simulator.process(server(), name="server")
        client_process = simulator.process(client(), name="client")
        simulator.run()
        assert client_process.value == list(range(9))


class TestEndOfStream:
    def test_end_of_stream_terminates_and_is_acknowledged(self):
        simulator = Simulator()
        channel = make_channel(simulator)

        def client():
            handled = 0
            while True:
                message = yield channel.receive_at_client()
                if is_end_of_stream(message):
                    yield channel.send_to_server(end_of_stream(sender="client"))
                    return handled
                handled += len(message.payload)

        def server():
            yield channel.send_batch_to_client(
                MessageKind.UDF_ARGUMENTS,
                ArgumentBatch(call=call_for(), argument_tuples=[(1,), (2,)]),
                payload_bytes=16,
                row_count=2,
            )
            yield channel.send_to_client(end_of_stream())
            ack = yield channel.receive_at_server()
            return ack

        client_process = simulator.process(client(), name="client")
        server_process = simulator.process(server(), name="server")
        simulator.run()

        assert client_process.value == 2
        assert is_end_of_stream(server_process.value)
        # Control messages carry no rows, so the row accounting is exact —
        # and they don't dilute the achieved-batching metric either.
        assert channel.downlink.stats.rows_transferred == 2
        assert channel.uplink.stats.rows_transferred == 0
        assert channel.downlink.stats.message_count == 2
        assert channel.downlink.stats.data_message_count == 1
        assert channel.downlink.stats.rows_per_message == pytest.approx(2.0)


class TestChannelClosed:
    def test_send_after_close_raises_both_directions(self):
        simulator = Simulator()
        channel = make_channel(simulator)
        channel.close()
        assert channel.closed
        with pytest.raises(ChannelClosedError):
            channel.send_batch_to_client(
                MessageKind.UDF_ARGUMENTS,
                ArgumentBatch(call=call_for(), argument_tuples=[(1,)]),
                payload_bytes=8,
                row_count=1,
            )
        with pytest.raises(ChannelClosedError):
            channel.send_to_server(
                batch_message(
                    MessageKind.UDF_RESULT,
                    ResultBatch(udf_name="Echo", results=[1]),
                    payload_bytes=8,
                    row_count=1,
                )
            )

    def test_close_mid_stream_fails_the_sender_process(self):
        simulator = Simulator()
        channel = make_channel(simulator)

        def sender():
            yield channel.send_batch_to_client(
                MessageKind.UDF_ARGUMENTS,
                ArgumentBatch(call=call_for(), argument_tuples=[(1,)]),
                payload_bytes=8,
                row_count=1,
            )
            channel.close()
            yield channel.send_batch_to_client(
                MessageKind.UDF_ARGUMENTS,
                ArgumentBatch(call=call_for(), argument_tuples=[(2,)]),
                payload_bytes=8,
                row_count=1,
            )

        with pytest.raises(ChannelClosedError):
            simulator.run_process(sender())
