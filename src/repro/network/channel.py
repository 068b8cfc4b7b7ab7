"""A duplex client/server channel: a downlink and an uplink plus mailboxes.

The server sends on the *downlink* (server → client) and receives from the
*uplink* (client → server).  Each direction is an independent
:class:`~repro.network.link.Link`, so asymmetric connections (the paper's
cable-modem / ADSL scenario, ``N = downlink bandwidth / uplink bandwidth``)
fall out naturally.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple, Union

from repro.network.events import Event
from repro.network.link import Link
from repro.network.message import Message, MessageKind, batch_message
from repro.network.resources import Store
from repro.network.simulator import Simulator
from repro.network.stats import ChannelStats


class Channel:
    """A bidirectional connection between the server and one client."""

    def __init__(
        self,
        simulator: Simulator,
        downlink_bandwidth: float,
        uplink_bandwidth: float,
        latency: float = 0.0,
        name: str = "channel",
        downlink_schedule=None,
        uplink_schedule=None,
        downlink_scheduler=None,
        uplink_scheduler=None,
        flow: str = None,
    ) -> None:
        self.simulator = simulator
        self.name = name
        #: The session flow this channel's traffic is attributed to on shared
        #: (multi-tenant) trunks; ``None`` for a private single-query channel.
        self.flow = flow
        #: Messages sent by the server arrive here (read by the client runtime).
        self.client_inbox = Store(simulator, name=f"{name}.client_inbox")
        #: Messages sent by the client arrive here (read by the server).
        self.server_inbox = Store(simulator, name=f"{name}.server_inbox")
        self.downlink = Link(
            simulator,
            name=f"{name}.downlink",
            bandwidth_bytes_per_sec=downlink_bandwidth,
            latency_seconds=latency,
            destination=self.client_inbox,
            bandwidth_schedule=downlink_schedule,
            scheduler=downlink_scheduler,
            flow=flow,
        )
        self.uplink = Link(
            simulator,
            name=f"{name}.uplink",
            bandwidth_bytes_per_sec=uplink_bandwidth,
            latency_seconds=latency,
            destination=self.server_inbox,
            bandwidth_schedule=uplink_schedule,
            scheduler=uplink_scheduler,
            flow=flow,
        )
        self._closed = False

    # -- sending ---------------------------------------------------------------------

    def send_to_client(self, message: Message) -> Event:
        """Server → client.  Returns the sender-side completion event.

        A closed channel's links are closed with it, so the link's own check
        is the channel's.
        """
        if not message.sender:
            message.sender = "server"
        return self.downlink.send(message)

    def send_to_server(self, message: Message) -> Event:
        """Client → server.  Returns the sender-side completion event."""
        if not message.sender:
            message.sender = "client"
        return self.uplink.send(message)

    def send_batch_to_client(
        self,
        kind: MessageKind,
        payload: Any,
        payload_bytes: int,
        row_count: int,
        description: Union[str, Tuple[Any, ...]] = "",
    ) -> Event:
        """Server → client shipment of ``row_count`` rows in one frame."""
        return self.send_to_client(
            batch_message(kind, payload, payload_bytes, row_count, description=description)
        )

    def send_batch_to_server(
        self,
        kind: MessageKind,
        payload: Any,
        payload_bytes: int,
        row_count: int,
        description: Union[str, Tuple[Any, ...]] = "",
    ) -> Event:
        """Client → server shipment of ``row_count`` rows in one frame."""
        return self.send_to_server(
            batch_message(kind, payload, payload_bytes, row_count, description=description)
        )

    # -- receiving --------------------------------------------------------------------

    def receive_at_client(self) -> Event:
        """Event yielding the next message in the client's inbox."""
        return self.client_inbox.get()

    def receive_at_server(self) -> Event:
        """Event yielding the next message in the server's inbox."""
        return self.server_inbox.get()

    def poll_at_client(self) -> Optional[Message]:
        """The client's next message if it already arrived and the instant is
        quiet (:meth:`Store.get_now`); ``None`` means wait on
        :meth:`receive_at_client`."""
        return self.client_inbox.get_now()

    def poll_at_server(self) -> Optional[Message]:
        """The server-side counterpart of :meth:`poll_at_client`."""
        return self.server_inbox.get_now()

    # -- lifecycle --------------------------------------------------------------------

    def close(self) -> None:
        """Close both directions; further sends raise :class:`ChannelClosedError`."""
        self._closed = True
        self.downlink.close()
        self.uplink.close()

    @property
    def closed(self) -> bool:
        return self._closed

    # -- properties ------------------------------------------------------------------

    @property
    def asymmetry(self) -> float:
        """The paper's ``N``: downlink bandwidth divided by uplink bandwidth."""
        return self.downlink.bandwidth / self.uplink.bandwidth

    @property
    def stats(self) -> ChannelStats:
        return ChannelStats(downlink=self.downlink.stats, uplink=self.uplink.stats)

    def round_trip_time(self, request_bytes: int, response_bytes: int) -> float:
        """Unloaded round-trip time for a request/response pair of given sizes."""
        down = request_bytes / self.downlink.bandwidth + self.downlink.latency
        up = response_bytes / self.uplink.bandwidth + self.uplink.latency
        return down + up

    def __repr__(self) -> str:
        return (
            f"Channel({self.name!r}, down={self.downlink.bandwidth:g} B/s, "
            f"up={self.uplink.bandwidth:g} B/s, latency={self.downlink.latency:g}s)"
        )
