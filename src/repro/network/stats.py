"""Transfer statistics for links and channels.

Counters exist at two granularities: the per-link totals the cost model is
validated against, and — on shared (multi-tenant) trunks — per-*flow*
shares keyed by the session that sent each message, folded from the session
links' own ledgers.  The per-flow shares are what fair-queueing attribution
and the tenancy fairness metrics read; they sum to the trunk totals, since
every link that sends on a trunk is attached to it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.message import Message


@dataclass
class TransferCounters:
    """What one directed stream of messages moved, and how long that took.

    The seven counters are declared here and nowhere else: a link's live
    accounting (:class:`LinkStats`), one flow's share of a shared link, the
    per-link record of a query observation and the two links of a query's
    :class:`~repro.core.execution.context.ExecutionCounters` are all this
    value.  ``a + b`` folds two streams into one; ``later - earlier`` is what
    happened between two readings of the same stream; :meth:`snapshot`
    detaches a reading from the live counters.
    """

    #: A label (the link's or the flow's name), not part of the value.
    name: str = field(default="", compare=False)
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

    def fold(self, other: "TransferCounters") -> None:
        """Add ``other`` into these counters in place: ``self + other``
        without building a value (this one keeps its name)."""
        mine, theirs = self.__dict__, other.__dict__
        for name in _COUNTERS:
            mine[name] += theirs[name]

    def _combined(self, other: "TransferCounters", combine: Callable) -> "TransferCounters":
        return TransferCounters(
            self.name,
            *(combine(getattr(self, name), getattr(other, name)) for name in _COUNTERS),
        )

    def __add__(self, other: "TransferCounters") -> "TransferCounters":
        return self._combined(other, operator.add)

    def __sub__(self, other: "TransferCounters") -> "TransferCounters":
        return self._combined(other, operator.sub)

    def snapshot(self) -> "TransferCounters":
        """A detached copy of the counters as they stand now."""
        return TransferCounters(self.name, *(getattr(self, name) for name in _COUNTERS))

    # -- the rates the planner calibrates from ------------------------------------

    @property
    def effective_bandwidth(self) -> Optional[float]:
        """Observed bytes/second while the link was serialising.

        On a stable link this recovers the configured bandwidth; on a
        drifting link it is the byte-weighted average the stream actually
        saw — the number the next query should plan with.
        """
        if self.busy_seconds <= 0:
            return None
        return self.total_bytes / self.busy_seconds

    @property
    def achieved_bandwidth(self) -> Optional[float]:
        """Observed bytes/second *including* sender-side queueing delay.

        On a private link this equals :attr:`effective_bandwidth`; on a
        shared trunk the queueing time is mostly other tenants' traffic, so
        this is the share of the trunk the stream actually achieved — the
        number a contention-aware planner should use.
        """
        occupied = self.busy_seconds + self.queueing_seconds
        if occupied <= 0:
            return None
        return self.total_bytes / occupied

    @property
    def rows_per_message(self) -> float:
        """Average batching achieved: rows per *data* message (control and
        error frames carry no rows and are excluded)."""
        if self.data_message_count <= 0:
            return 0.0
        return self.rows_transferred / self.data_message_count

    @property
    def mean_queueing_seconds(self) -> float:
        """Average sender-side queueing delay per message (congestion signal)."""
        if self.message_count <= 0:
            return 0.0
        return self.queueing_seconds / self.message_count


_COUNTERS = tuple(f.name for f in fields(TransferCounters) if f.name != "name")

#: One session flow's share of a link (``name`` is the flow).
FlowStats = TransferCounters


@dataclass
class LinkStats(TransferCounters):
    """The live accounting of one directed link, or of a trunk many links share.

    A shared trunk splits its traffic by session flow from one source: it
    *adopts* the ledger of every session link it serialises for
    (:meth:`adopt`).  Such a link carries exactly one flow and books each of
    its messages itself, so the trunk books a message once, into its own
    totals, and folds the adopted ledgers by flow when :attr:`flows` is read.
    A message is thus recorded once per ledger it belongs to.
    """

    def __post_init__(self) -> None:
        self._adopted: Dict[str, List[TransferCounters]] = {}

    def adopt(self, flow: str, ledger: TransferCounters) -> None:
        """Count ``ledger`` — a session link's own — as part of ``flow``'s share."""
        self._adopted.setdefault(flow, []).append(ledger)

    def flow(self, name: str) -> FlowStats:
        """The named flow's counters (all-zero if the flow never sent)."""
        return sum(self._adopted.get(name, ()), FlowStats(name))

    @property
    def flows(self) -> Dict[str, FlowStats]:
        """Per-session-flow sub-counters, one per flow that has sent anything."""
        shares = map(self.flow, self._adopted)
        return {share.name: share for share in shares if share.message_count}

    def flow_bytes(self) -> Dict[str, int]:
        """Total bytes per flow, the fairness metrics' input."""
        return {name: counters.total_bytes for name, counters in self.flows.items()}

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
