"""Transfer statistics for links and channels.

Counters exist at two granularities: the per-link totals the cost model is
validated against, and — on shared (multi-tenant) links — per-*flow*
sub-counters keyed by the session that sent each message.  The per-flow
counters are what fair-queueing attribution and the tenancy fairness metrics
read; they always sum to the link totals when every message carries a flow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.message import Message


@dataclass
class FlowStats:
    """Byte and timing accounting for one session flow on one link."""

    flow: str
    message_count: int = 0
    data_message_count: int = 0
    total_bytes: int = 0
    payload_bytes: int = 0
    rows_transferred: int = 0
    busy_seconds: float = 0.0
    queueing_seconds: float = 0.0

    def record(self, message: "Message", queued_for: float, transmission: float) -> None:
        self.message_count += 1
        if message.is_data:
            self.data_message_count += 1
        self.total_bytes += message.size_bytes
        self.payload_bytes += message.payload_bytes
        self.rows_transferred += message.row_count
        self.busy_seconds += transmission
        self.queueing_seconds += queued_for

    def merge(self, other: "FlowStats") -> "FlowStats":
        merged = FlowStats(flow=self.flow)
        merged.message_count = self.message_count + other.message_count
        merged.data_message_count = self.data_message_count + other.data_message_count
        merged.total_bytes = self.total_bytes + other.total_bytes
        merged.payload_bytes = self.payload_bytes + other.payload_bytes
        merged.rows_transferred = self.rows_transferred + other.rows_transferred
        merged.busy_seconds = self.busy_seconds + other.busy_seconds
        merged.queueing_seconds = self.queueing_seconds + other.queueing_seconds
        return merged

    @property
    def achieved_bandwidth(self) -> Optional[float]:
        """Bytes/second this flow achieved including time spent queued.

        On an uncontended link this equals the serialisation bandwidth; on a
        shared link it degrades with cross-traffic — the per-flow signal the
        contention-aware calibration plans with.
        """
        elapsed = self.busy_seconds + self.queueing_seconds
        if elapsed <= 0:
            return None
        return self.total_bytes / elapsed


@dataclass
class LinkStats:
    """Byte and timing accounting for one directed link."""

    name: str
    message_count: int = 0
    data_message_count: int = 0
    total_bytes: int = 0
    payload_bytes: int = 0
    rows_transferred: int = 0
    busy_seconds: float = 0.0
    queueing_seconds: float = 0.0
    bytes_by_kind: Dict[str, int] = field(default_factory=dict)
    #: Per-session-flow sub-counters, populated only for messages recorded
    #: with a ``flow`` (shared multi-tenant links tag every message).
    flows: Dict[str, FlowStats] = field(default_factory=dict)

    def record(
        self,
        message: "Message",
        queued_for: float,
        transmission: float,
        flow: Optional[str] = None,
    ) -> None:
        size = message.size_bytes
        self.message_count += 1
        if message.is_data:
            self.data_message_count += 1
        self.total_bytes += size
        self.payload_bytes += message.payload_bytes
        self.rows_transferred += message.row_count
        self.busy_seconds += transmission
        self.queueing_seconds += queued_for
        kind = message.kind_name
        self.bytes_by_kind[kind] = self.bytes_by_kind.get(kind, 0) + size
        if flow is not None:
            counters = self.flows.get(flow)
            if counters is None:
                counters = self.flows[flow] = FlowStats(flow=flow)
            counters.record(message, queued_for=queued_for, transmission=transmission)

    @property
    def rows_per_message(self) -> float:
        """Average batching achieved on this link: rows per *data* message
        (control and error frames carry no rows and are excluded)."""
        return (
            self.rows_transferred / self.data_message_count if self.data_message_count else 0.0
        )

    def flow(self, name: str) -> FlowStats:
        """The named flow's counters (all-zero if the flow never sent)."""
        return self.flows.get(name, FlowStats(flow=name))

    def flow_bytes(self) -> Dict[str, int]:
        """Total bytes per flow, the fairness metrics' input."""
        return {name: counters.total_bytes for name, counters in self.flows.items()}

    def merge(self, other: "LinkStats") -> "LinkStats":
        merged = LinkStats(name=self.name)
        merged.message_count = self.message_count + other.message_count
        merged.data_message_count = self.data_message_count + other.data_message_count
        merged.total_bytes = self.total_bytes + other.total_bytes
        merged.payload_bytes = self.payload_bytes + other.payload_bytes
        merged.rows_transferred = self.rows_transferred + other.rows_transferred
        merged.busy_seconds = self.busy_seconds + other.busy_seconds
        merged.queueing_seconds = self.queueing_seconds + other.queueing_seconds
        for kind, value in list(self.bytes_by_kind.items()) + list(other.bytes_by_kind.items()):
            merged.bytes_by_kind[kind] = merged.bytes_by_kind.get(kind, 0) + value
        for source in (self.flows, other.flows):
            for name, counters in source.items():
                existing = merged.flows.get(name)
                if existing is None:
                    merged.flows[name] = counters.merge(FlowStats(flow=name))
                else:
                    merged.flows[name] = existing.merge(counters)
        return merged

    def __str__(self) -> str:
        return (
            f"{self.name}: {self.message_count} msgs, {self.total_bytes} B, "
            f"busy {self.busy_seconds:.3f}s"
        )


@dataclass
class ChannelStats:
    """Combined statistics for a duplex channel (downlink + uplink)."""

    downlink: LinkStats
    uplink: LinkStats

    @property
    def total_bytes(self) -> int:
        return self.downlink.total_bytes + self.uplink.total_bytes

    @property
    def downlink_bytes(self) -> int:
        return self.downlink.total_bytes

    @property
    def uplink_bytes(self) -> int:
        return self.uplink.total_bytes

    def summary(self) -> str:
        return (
            f"downlink: {self.downlink.total_bytes} B in {self.downlink.message_count} msgs; "
            f"uplink: {self.uplink.total_bytes} B in {self.uplink.message_count} msgs"
        )


def jain_fairness_index(values: List[float]) -> float:
    """Jain's fairness index over per-flow allocations: 1.0 is perfectly fair.

    ``(sum x)^2 / (n * sum x^2)`` — equals ``1/n`` when one flow gets
    everything, 1.0 when all flows get the same share.

    Every flow that was active on the link counts towards ``n``, including
    fully *starved* flows whose allocation is zero: one bulk flow plus three
    starved flows scores 0.25, not 1.0.  (Negative inputs are clamped to
    zero; an all-zero allocation is vacuously fair.)
    """
    allocations = [max(0.0, value) for value in values]
    if not allocations:
        return 1.0
    total = sum(allocations)
    squares = sum(value * value for value in allocations)
    if squares <= 0:
        return 1.0
    return (total * total) / (len(allocations) * squares)
