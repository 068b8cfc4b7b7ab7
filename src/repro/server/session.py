"""Client sessions: one connected client with its network and UDF registry."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional

from repro.client.registry import UdfRegistry
from repro.client.runtime import ClientRuntime
from repro.core.execution.context import ExecutionCounters, RemoteExecutionContext
from repro.network.topology import NetworkConfig
from repro.server.metrics import ExecutionMetrics

_session_ids = itertools.count(1)


@dataclass
class SessionMetrics:
    """Aggregated execution metrics across every query a session ran."""

    queries: int = 0
    rows_returned: int = 0
    #: Every query's counters, folded: bytes, messages, client work.
    counters: ExecutionCounters = field(default_factory=ExecutionCounters)
    busy_seconds: float = 0.0
    admission_wait_seconds: float = 0.0
    latencies: List[float] = field(default_factory=list)

    def record(self, metrics: ExecutionMetrics) -> None:
        self.queries += 1
        self.rows_returned += metrics.rows_returned
        self.counters.fold(metrics.counters)
        self.busy_seconds += metrics.elapsed_seconds
        self.admission_wait_seconds += metrics.admission_wait_seconds
        self.latencies.append(metrics.elapsed_seconds)

    @property
    def total_bytes(self) -> int:
        return self.counters.downlink.total_bytes + self.counters.uplink.total_bytes

    @property
    def mean_latency_seconds(self) -> float:
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)

    def latency_percentile(self, fraction: float) -> float:
        """Nearest-rank percentile of per-query elapsed times."""
        from repro.tenancy.metrics import percentile

        return percentile(self.latencies, fraction)

    def summary(self) -> str:
        return (
            f"{self.queries} queries | {self.rows_returned} rows | "
            f"{self.total_bytes} B on the wire | "
            f"mean latency {self.mean_latency_seconds:.3f}s | "
            f"p99 {self.latency_percentile(0.99):.3f}s"
        )


class ClientSession:
    """One client connection to the server.

    A session fixes the network configuration and the client's UDF registry,
    and carries a stable identity: ``tenant_id`` names the principal the
    session belongs to (several sessions may share one tenant) and
    ``session_id`` names this connection uniquely.  Every executed query's
    :class:`ExecutionMetrics` is stamped with both and folded into the
    session's running :class:`SessionMetrics` aggregate.

    Each query executed in the session gets a *fresh* execution context (its
    own simulator and channel by default; under multi-tenancy, a private
    channel on the shared simulator) so that per-query elapsed times and
    byte counts are independent, which is what the experiments measure.
    """

    def __init__(
        self,
        network: NetworkConfig,
        registry: Optional[UdfRegistry] = None,
        name: str = "client",
        tenant_id: Optional[str] = None,
        session_id: Optional[str] = None,
    ) -> None:
        self.network = network
        self.registry = registry if registry is not None else UdfRegistry()
        self.name = name
        #: The owning principal; defaults to the session name so single-tenant
        #: setups get sensible attribution for free.
        self.tenant_id = tenant_id if tenant_id is not None else name
        self.session_id = (
            session_id if session_id is not None else f"{name}#{next(_session_ids)}"
        )
        self.queries_executed = 0
        self.metrics = SessionMetrics()

    def new_context(self) -> RemoteExecutionContext:
        """A fresh execution context (simulator + channel + client runtime)."""
        self.queries_executed += 1
        client = ClientRuntime(
            registry=self.registry,
            name=f"{self.name}-{self.queries_executed}",
        )
        return RemoteExecutionContext.create(
            self.network,
            client=client,
            channel_name=f"{self.name}.channel{self.queries_executed}",
        )

    def record_query(self, metrics: ExecutionMetrics) -> None:
        """Fold one query's metrics into the session aggregate."""
        self.metrics.record(metrics)

    def __repr__(self) -> str:
        return (
            f"ClientSession({self.name!r}, tenant={self.tenant_id!r}, "
            f"session={self.session_id!r}, network={self.network.name!r})"
        )
