"""Shared execution context for remote (client-site) operators."""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.errors import ExecutionError
from repro.client.registry import UdfRegistry
from repro.client.runtime import ClientRuntime
from repro.network.channel import Channel
from repro.network.simulator import Simulator
from repro.network.stats import ChannelStats
from repro.network.topology import NetworkConfig


class RemoteExecutionContext:
    """Bundles the simulator, the client/server channel, and the client runtime.

    One context corresponds to one client connection.  Remote operators use
    :meth:`run_remote` to drive a coordination coroutine (their sender /
    receiver logic) together with the client's serve loop until both finish;
    simulated time accumulates across successive remote operations on the
    same context, so a whole query's elapsed time can be read from
    :attr:`elapsed_seconds` afterwards.
    """

    def __init__(
        self,
        simulator: Simulator,
        channel: Channel,
        client: ClientRuntime,
        network: Optional[NetworkConfig] = None,
    ) -> None:
        self.simulator = simulator
        self.channel = channel
        self.client = client
        self.network = network
        self.remote_operations = 0
        self._events_at_start = simulator.events_processed

    # -- construction ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        network: NetworkConfig,
        registry: Optional[UdfRegistry] = None,
        client: Optional[ClientRuntime] = None,
        channel_name: str = "channel",
    ) -> "RemoteExecutionContext":
        """Build a fresh simulator + channel + client runtime for ``network``."""
        simulator = Simulator()
        channel = network.build_channel(simulator, name=channel_name)
        if client is None:
            client = ClientRuntime(registry=registry)
        return cls(simulator, channel, client, network=network)

    # -- execution ---------------------------------------------------------------------

    def run_remote(self, coordinator: Generator, name: str = "remote-operation") -> Any:
        """Run ``coordinator`` together with the client serve loop to completion.

        Returns the coordinator's return value.  Raises
        :class:`~repro.errors.ExecutionError` if either side deadlocks or the
        coordinator fails.
        """
        self.remote_operations += 1
        return self.run_exchange(coordinator, name=name)

    def run_exchange(self, coordinator: Generator, name: str = "remote-operation") -> Any:
        """Drive one coordinator/serve-loop exchange to completion.

        Result delivery reuses it too, so *all* exchange driving funnels
        through here; :meth:`_drive_exchange` is the part a
        shared-simulation context (multi-tenancy) overrides — instead of
        running a private simulator to quiescence it parks the calling
        worker on the coordinator process and lets the traffic driver
        interleave every session's events on one clock.
        """
        serve_process = self.client.start(self.simulator, self.channel)
        coordinator_process = self.simulator.process(coordinator, name=name)
        self._drive_exchange(coordinator_process)

        if not coordinator_process.triggered:
            raise ExecutionError(
                f"remote operation {name!r} did not complete: the pipeline deadlocked "
                f"(client served {self.client.messages_handled} messages)"
            )
        if coordinator_process._exception is not None:
            exception = coordinator_process._exception
            if isinstance(exception, ExecutionError):
                raise exception
            raise ExecutionError(f"remote operation {name!r} failed: {exception}") from exception
        if serve_process.triggered and serve_process._exception is not None:
            raise ExecutionError(
                f"client runtime failed during {name!r}: {serve_process._exception}"
            ) from serve_process._exception
        return coordinator_process.value

    def _drive_exchange(self, coordinator_process: Any) -> None:
        """Advance simulated time until the exchange settles.

        The private-context default simply runs the simulator dry (this
        context owns it).  Shared-simulation contexts override this to yield
        control to the multi-tenant driver instead.
        """
        self.simulator.run()

    # -- introspection -----------------------------------------------------------------

    @property
    def elapsed_seconds(self) -> float:
        """Total simulated time elapsed on this connection so far."""
        return self.simulator.now

    @property
    def sim_events(self) -> int:
        """Simulator entries processed since this context was created.

        On a shared simulator (multi-tenancy, scatter-gather) that includes
        every session's entries processed meanwhile.
        """
        return self.simulator.events_processed - self._events_at_start

    @property
    def channel_stats(self) -> ChannelStats:
        return self.channel.stats

    @property
    def downlink_bytes(self) -> int:
        return self.channel.downlink.bytes_transferred

    @property
    def uplink_bytes(self) -> int:
        return self.channel.uplink.bytes_transferred

    def __repr__(self) -> str:
        return (
            f"RemoteExecutionContext(elapsed={self.elapsed_seconds:.3f}s, "
            f"down={self.downlink_bytes}B, up={self.uplink_bytes}B)"
        )
