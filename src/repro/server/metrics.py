"""Execution metrics collected for every query run."""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.adaptive.segmented import strategies_used
from repro.core.execution.context import ExecutionCounters
from repro.core.strategies import ExecutionStrategy
from repro.storage.buffer import BufferStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.adaptive.segmented import Adaptation, PlanShape


@dataclass
class ExecutionMetrics:
    """What a query execution cost, in simulated time and network bytes.

    ``elapsed_seconds`` is the simulated wall-clock time of the whole query
    on its connection (the quantity the paper's figures plot).  The byte
    counters come straight from the links, so the cost model can be validated
    against them.
    """

    elapsed_seconds: float = 0.0
    #: Everything that adds up — both links, the client, the operators'
    #: counts.  The flat names below read through it, so a new counter is a
    #: field there and nothing here.
    counters: ExecutionCounters = field(default_factory=ExecutionCounters)
    rows_returned: int = 0
    strategy: Optional[ExecutionStrategy] = None
    concurrency_factor: Optional[int] = None
    batch_size: Optional[int] = None
    #: With adaptive batch sizing: the sizes the controller moved through
    #: and the size it judged best, ``None`` for static executions.
    batch_size_trace: Optional[Tuple[int, ...]] = None
    converged_batch_size: Optional[int] = None
    #: Every segmented operator's run, in the order they finished: the
    #: switching and re-optimization figures below are views of it.
    adaptations: Tuple["Adaptation", ...] = ()
    #: Scatter-gather replica moves, booked by the coordinator; they read
    #: out as part of :attr:`plan_migrations`.
    replica_migrations: int = 0
    #: The overlapped-shipping window capacity the run ended at (``None``
    #: when every remote operation streamed unbounded).
    overlap_window: Optional[int] = None
    #: Simulator entries processed while the query ran — the host-side work
    #: of the shipping simulation, expected to stay within a small multiple
    #: of the message count (every session's entries on a shared simulator).
    sim_events: int = 0
    plan_description: str = ""
    #: Multi-tenant attribution, stamped by the executor when the query ran
    #: inside a :class:`~repro.server.session.ClientSession` with a tenant,
    #: plus the simulated time the query waited for an executor slot before
    #: starting (0 for unbounded admission / single-query runs).
    tenant_id: Optional[str] = None
    session_id: Optional[str] = None
    admission_wait_seconds: float = 0.0
    #: Buffer-pool traffic this query caused, stamped by the
    #: :class:`~repro.server.engine.Database` when it runs over durable paged
    #: storage (all zero for in-memory databases): the pool's counters after
    #: the query minus before it, with the pool-wide pinned-page high-water
    #: mark at the end of the query.
    buffers: BufferStats = BufferStats()

    downlink_bytes = property(attrgetter("counters.downlink.total_bytes"))
    uplink_bytes = property(attrgetter("counters.uplink.total_bytes"))
    downlink_messages = property(attrgetter("counters.downlink.message_count"))
    uplink_messages = property(attrgetter("counters.uplink.message_count"))
    udf_invocations = property(attrgetter("counters.udf_invocations"))
    client_cache_hits = property(attrgetter("counters.client_cache_hits"))
    client_compute_seconds = property(attrgetter("counters.client_compute_seconds"))
    remote_operations = property(attrgetter("counters.remote_operations"))
    input_rows = property(attrgetter("counters.input_rows"))
    #: Overlapped shipping: the deepest the in-flight batch window actually
    #: got, and the simulated time senders spent stalled waiting for a slot.
    peak_in_flight_batches = property(attrgetter("counters.peak_in_flight_batches"))
    send_stall_seconds = property(attrgetter("counters.send_stall_seconds"))
    #: Secondary-index traffic: how many index probes the plan issued (one
    #: per index scan, one per index nested-loop probe) and how many index
    #: pages those probes pinned through the buffer pool.  Both zero for
    #: plans that only sequential-scan.
    index_lookups = property(attrgetter("counters.index_lookups"))
    index_pages_read = property(attrgetter("counters.index_pages_read"))
    buffer_hits = property(attrgetter("buffers.hits"))
    buffer_misses = property(attrgetter("buffers.misses"))
    buffer_evictions = property(attrgetter("buffers.evictions"))
    buffer_pinned_peak = property(attrgetter("buffers.pinned_peak"))
    buffer_accesses = property(attrgetter("buffers.accesses"))
    buffer_hit_ratio = property(attrgetter("buffers.hit_ratio"))

    @property
    def total_bytes(self) -> int:
        return self.downlink_bytes + self.uplink_bytes

    # -- views of ``adaptations`` --------------------------------------------------------
    # A switch-armed controller's changes are strategy switches; a plan-wide one's
    # boundaries are re-plan attempts and its changes plan migrations (with
    # the coordinator's replica moves).  Strategies, UDF orders and shapes
    # (``PlanShape.describe``, also ``QueryResult.shapes_used``) are listed
    # in first-use order, ``None`` when nothing adapted.

    def _runs(self, plan_wide: bool = True) -> List["Adaptation"]:
        return [a for a in self.adaptations if a.plan_wide is plan_wide]

    def _shapes(self) -> List["PlanShape"]:
        return [shape for adaptation in self._runs() for shape in adaptation.shapes]

    @property
    def strategy_switches(self) -> int:
        return sum(a.changes for a in self._runs(plan_wide=False))

    @property
    def strategies_used(self) -> Optional[Tuple[ExecutionStrategy, ...]]:
        return strategies_used(self.adaptations) or None

    @property
    def replan_attempts(self) -> int:
        return sum(len(a.decisions) for a in self._runs())

    @property
    def plan_migrations(self) -> int:
        return self.replica_migrations + sum(a.changes for a in self._runs())

    @property
    def udf_orders_used(self) -> Optional[Tuple[Tuple[str, ...], ...]]:
        return tuple(dict.fromkeys(s.udf_order for s in self._shapes())) or None

    @property
    def shapes_used(self) -> Optional[Tuple[str, ...]]:
        return tuple(dict.fromkeys(s.describe() for s in self._shapes())) or None

    def summary(self) -> str:
        """A one-paragraph human-readable summary."""
        strategy = self.strategy.value if self.strategy else "n/a"
        if self.strategies_used:
            strategy = " -> ".join(used.value for used in self.strategies_used)
        batching = f" | batch size {self.batch_size}" if self.batch_size else ""
        if self.converged_batch_size is not None:
            batching = f" | adaptive batch -> {self.converged_batch_size}"
        if self.strategy_switches:
            batching += f" | {self.strategy_switches} mid-query switch(es)"
        if self.plan_migrations:
            orders = ""
            if self.udf_orders_used:
                orders = " " + " => ".join(
                    "[" + ", ".join(order) + "]" for order in self.udf_orders_used
                )
            batching += f" | {self.plan_migrations} plan migration(s){orders}"
        if self.peak_in_flight_batches > 1:
            batching += (
                f" | overlap peak {self.peak_in_flight_batches} batches"
                f" (stalled {self.send_stall_seconds:.3f}s)"
            )
        if self.buffer_accesses > 0:
            batching += (
                f" | buffer {self.buffer_hits}/{self.buffer_accesses} hits"
                f" ({self.buffer_hit_ratio:.0%}), {self.buffer_evictions} evicted"
            )
        if self.index_lookups > 0:
            batching += (
                f" | index {self.index_lookups} lookup(s),"
                f" {self.index_pages_read} page(s)"
            )
        return (
            f"elapsed {self.elapsed_seconds:.3f}s | strategy {strategy} | "
            f"downlink {self.downlink_bytes} B in {self.downlink_messages} msgs | "
            f"uplink {self.uplink_bytes} B in {self.uplink_messages} msgs | "
            f"UDF invocations {self.udf_invocations} (cache hits {self.client_cache_hits}) | "
            f"rows {self.rows_returned}{batching}"
        )

    def __str__(self) -> str:
        return self.summary()
