"""Per-query records and the aggregate multi-tenant traffic report."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.network.stats import jain_fairness_index
from repro.server.metrics import ExecutionMetrics


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in [0, 1]) of ``values``.

    Returns 0.0 for an empty sequence; deliberately simple and
    deterministic — no interpolation — because reports diff byte-for-byte
    across runs in the regression benchmarks.
    """
    if not values:
        return 0.0
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("percentile fraction must be within [0, 1]")
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


@dataclass
class QueryRecord:
    """One query's life cycle inside a multi-tenant run."""

    tenant_id: str
    session_id: str
    query_index: int
    sql: str
    label: str = ""
    arrived_at: float = 0.0
    admitted_at: float = 0.0
    completed_at: float = 0.0
    rows_returned: int = 0
    metrics: Optional[ExecutionMetrics] = None
    error: Optional[str] = None

    @property
    def latency_seconds(self) -> float:
        """Arrival to completion — what the tenant actually experiences."""
        return self.completed_at - self.arrived_at

    @property
    def admission_wait_seconds(self) -> float:
        return self.admitted_at - self.arrived_at

    @property
    def succeeded(self) -> bool:
        return self.error is None


@dataclass
class TrafficReport:
    """Aggregate outcome of one multi-tenant run."""

    records: List[QueryRecord] = field(default_factory=list)
    makespan_seconds: float = 0.0
    #: Total bytes each session flow moved on the shared trunks (empty when
    #: the run used private links).
    trunk_flow_bytes: Dict[str, int] = field(default_factory=dict)
    peak_admission_queue: int = 0

    # -- aggregates ---------------------------------------------------------------

    @property
    def completed(self) -> List[QueryRecord]:
        return [record for record in self.records if record.succeeded]

    @property
    def query_count(self) -> int:
        return len(self.records)

    @property
    def error_count(self) -> int:
        return sum(1 for record in self.records if not record.succeeded)

    @property
    def latencies(self) -> List[float]:
        return [record.latency_seconds for record in self.completed]

    @property
    def p50_latency_seconds(self) -> float:
        return percentile(self.latencies, 0.50)

    @property
    def p99_latency_seconds(self) -> float:
        return percentile(self.latencies, 0.99)

    @property
    def mean_latency_seconds(self) -> float:
        latencies = self.latencies
        return sum(latencies) / len(latencies) if latencies else 0.0

    @property
    def mean_admission_wait_seconds(self) -> float:
        waits = [record.admission_wait_seconds for record in self.completed]
        return sum(waits) / len(waits) if waits else 0.0

    @property
    def throughput_queries_per_second(self) -> float:
        if self.makespan_seconds <= 0:
            return 0.0
        return len(self.completed) / self.makespan_seconds

    @property
    def fairness_index(self) -> float:
        """Jain's index over per-tenant trunk bytes (1.0 = perfectly even)."""
        if self.trunk_flow_bytes:
            return jain_fairness_index(list(self.trunk_flow_bytes.values()))
        by_tenant = self.bytes_by_tenant()
        return jain_fairness_index(list(by_tenant.values()))

    # -- per-tenant breakdowns -----------------------------------------------------

    def bytes_by_tenant(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for record in self.completed:
            if record.metrics is not None:
                totals[record.tenant_id] = (
                    totals.get(record.tenant_id, 0) + record.metrics.total_bytes
                )
        return totals

    def tenant_latencies(self) -> Dict[str, List[float]]:
        grouped: Dict[str, List[float]] = {}
        for record in self.completed:
            grouped.setdefault(record.tenant_id, []).append(record.latency_seconds)
        return grouped

    # -- rendering -----------------------------------------------------------------

    def summary(self) -> str:
        lines = [
            (
                f"{len(self.completed)}/{self.query_count} queries in "
                f"{self.makespan_seconds:.3f}s simulated "
                f"({self.throughput_queries_per_second:.2f} q/s)"
            ),
            (
                f"latency p50 {self.p50_latency_seconds:.3f}s | "
                f"p99 {self.p99_latency_seconds:.3f}s | "
                f"mean {self.mean_latency_seconds:.3f}s | "
                f"admission wait {self.mean_admission_wait_seconds:.3f}s"
            ),
            f"fairness (Jain) {self.fairness_index:.3f}",
        ]
        for tenant, latencies in sorted(self.tenant_latencies().items()):
            lines.append(
                f"  {tenant}: {len(latencies)} queries, "
                f"p50 {percentile(latencies, 0.5):.3f}s, "
                f"p99 {percentile(latencies, 0.99):.3f}s"
            )
        if self.error_count:
            lines.append(f"errors: {self.error_count}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.summary()
