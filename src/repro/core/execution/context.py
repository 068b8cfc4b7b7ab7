"""Shared execution context for remote (client-site) operators."""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Callable, Dict, Generator, List, Optional

from repro.errors import ExecutionError
from repro.client.registry import UdfRegistry
from repro.client.runtime import ClientRuntime
from repro.network.channel import Channel
from repro.network.simulator import Simulator
from repro.network.stats import ChannelStats, TransferCounters
from repro.network.topology import NetworkConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.execution.overlap import InFlightWindow


@dataclass
class ExecutionCounters:
    """What an execution moved, computed and counted — one value, folded with ``+``.

    A context reads it off its two links, its client runtime and what the
    plan's operators booked on it (:meth:`RemoteExecutionContext.counters`);
    :class:`~repro.server.metrics.ExecutionMetrics` holds it and reads its
    flat names through it.  Segments, shard workers,
    the scatter-gather coordinator and sessions all combine it the same way:
    ``a + b`` adds every field (per-UDF maps key by key;
    ``peak_in_flight_batches`` is a high-water mark, so it takes the larger),
    ``later - earlier`` is what happened between two readings.  A new counter
    is one more field here.
    """

    downlink: TransferCounters = field(default_factory=TransferCounters)
    uplink: TransferCounters = field(default_factory=TransferCounters)
    udf_invocations: int = 0
    client_cache_hits: int = 0
    client_compute_seconds: float = 0.0
    #: Per lower-cased UDF name, the breakdown of the two client totals the
    #: adaptive runtime measures per-call costs from.
    invocations_by_udf: Dict[str, int] = field(default_factory=dict)
    compute_seconds_by_udf: Dict[str, float] = field(default_factory=dict)
    remote_operations: int = 0
    # Booked on the context by the plan's operators as they run.
    input_rows: int = 0
    send_stall_seconds: float = 0.0
    index_lookups: int = 0
    index_pages_read: int = 0
    peak_in_flight_batches: int = 0

    def _combined(self, other: "ExecutionCounters", combine: Callable) -> "ExecutionCounters":
        values = []
        for name in _COUNTERS:
            mine, theirs = getattr(self, name), getattr(other, name)
            if isinstance(mine, dict):
                values.append(
                    {
                        key: combine(mine.get(key, 0), theirs.get(key, 0))
                        for key in {**mine, **theirs}
                    }
                )
            else:
                values.append(combine(mine, theirs))
        return ExecutionCounters(*values)

    def __add__(self, other: "ExecutionCounters") -> "ExecutionCounters":
        total = self._combined(other, operator.add)
        total.peak_in_flight_batches = max(
            self.peak_in_flight_batches, other.peak_in_flight_batches
        )
        return total

    def __sub__(self, other: "ExecutionCounters") -> "ExecutionCounters":
        delta = self._combined(other, operator.sub)
        delta.peak_in_flight_batches = self.peak_in_flight_batches
        return delta


_COUNTERS = tuple(f.name for f in fields(ExecutionCounters))


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
        #: What the plan's operators book as they run (the ``book_*``
        #: methods): :meth:`counters` reads the counts, the executor the last
        #: pipeline depth and window.  ``adaptations`` gets one
        #: :class:`~repro.adaptive.segmented.Adaptation` appended per
        #: segmented operator, in the order they finished.
        self.input_rows = 0
        self.send_stall_seconds = 0.0
        self.peak_in_flight_batches = 0
        self.index_lookups = 0
        self.index_pages_read = 0
        self.concurrency_factor: Optional[int] = None
        self.overlap_window: Optional[int] = None
        self.adaptations: List[Any] = []
        self._events_at_start = simulator.events_processed
        #: Whom the query runs for and where it learns, set by whoever builds
        #: the context (tenancy: the owning ``ClientSession`` and the tenant's
        #: ``RuntimeObserver``, whose store is the tenant's statistics;
        #: scatter-gather: the server ``site`` observations are filed under).
        #: ``None`` means the database-wide session, observer and store.
        self.session: Optional[Any] = None
        self.observer: Optional[Any] = None
        self.site: Optional[str] = None

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
        """Run ``coordinator`` together with the client's serving to completion.

        Returns the coordinator's return value.  Raises
        :class:`~repro.errors.ExecutionError` if either side deadlocks or the
        coordinator fails.
        """
        self.remote_operations += 1
        return self.run_exchange(coordinator, name=name)

    def run_exchange(self, coordinator: Generator, name: str = "remote-operation") -> Any:
        """Drive one coordinator / client exchange to completion.

        Result delivery reuses it too, so *all* exchange driving funnels
        through here; :meth:`_drive_exchange` is the part a
        shared-simulation context (multi-tenancy) overrides — instead of
        running a private simulator to quiescence it parks the calling
        worker on the coordinator process and lets the traffic driver
        interleave every session's events on one clock.
        """
        serving = self.client.start(self.channel)
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
        if serving.triggered and serving._exception is not None:
            raise ExecutionError(
                f"client runtime failed during {name!r}: {serving._exception}"
            ) from serving._exception
        return coordinator_process.value

    def _drive_exchange(self, coordinator_process: Any) -> None:
        """Advance simulated time until the exchange settles.

        The private-context default simply runs the simulator dry (this
        context owns it).  Shared-simulation contexts override this to yield
        control to the multi-tenant driver instead.
        """
        self.simulator.run()

    # -- what the plan's operators book ------------------------------------------------

    def book_input_rows(self, rows: int) -> None:
        """A remote operation's input; the query's is the largest one."""
        self.input_rows = max(self.input_rows, rows)

    def book_window(
        self, window: "InFlightWindow", concurrency_factor: Optional[int] = None
    ) -> None:
        """A drained operation's in-flight window: the deepest it got, the
        time senders stalled on it and, when bounded, the capacity it ended
        at — plus a semi-join's pipeline depth."""
        self.peak_in_flight_batches = max(self.peak_in_flight_batches, window.peak_in_flight)
        self.send_stall_seconds += window.stall_seconds
        if window.bounded:
            self.overlap_window = window.capacity_or_none
        if concurrency_factor is not None:
            self.concurrency_factor = concurrency_factor

    def book_index_probe(self, pages_read: int) -> None:
        """One index lookup and the index pages it pinned."""
        self.index_lookups += 1
        self.index_pages_read += pages_read

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

    def counters(self) -> ExecutionCounters:
        """A detached reading of both links, the client and what was booked here."""
        client = self.client
        return ExecutionCounters(
            downlink=self.channel.downlink.stats.snapshot(),
            uplink=self.channel.uplink.stats.snapshot(),
            udf_invocations=client.udf_invocations,
            client_cache_hits=client.cache_hits,
            client_compute_seconds=client.compute_seconds,
            invocations_by_udf=dict(client.invocations_by_udf),
            compute_seconds_by_udf=dict(client.compute_seconds_by_udf),
            remote_operations=self.remote_operations,
            input_rows=self.input_rows,
            send_stall_seconds=self.send_stall_seconds,
            index_lookups=self.index_lookups,
            index_pages_read=self.index_pages_read,
            peak_in_flight_batches=self.peak_in_flight_batches,
        )

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
