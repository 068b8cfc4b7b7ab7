"""The multi-tenant traffic driver: N concurrent sessions, one simulation.

Every execution strategy in this repository is written as ordinary
synchronous host code that periodically drives the discrete-event simulator
through ``RemoteExecutionContext.run_remote`` (one exchange at a time, on a
private simulator).  Multi-tenancy needs many such queries *interleaved on
one shared clock* — without rewriting every operator as a coroutine.

The driver gets there with the strict baton-passing protocol of
:mod:`repro.tenancy.baton` (shared with the scatter-gather distribution
engine): each session runs its host code on its own worker thread, but
exactly one thread ever runs at a time, with handoffs only at deterministic
simulation points — so the whole multi-tenant run is exactly reproducible
despite the threads.

:class:`SharedExecutionContext` is the splice point: it overrides the
context's exchange driving to park the calling worker on the coordinator
process instead of running a private simulator to quiescence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ReproError
from repro.adaptive.store import TenantStatistics
from repro.client.runtime import ClientRuntime
from repro.core.execution.context import RemoteExecutionContext
from repro.network.channel import Channel
from repro.network.simulator import Simulator
from repro.server.engine import Database
from repro.server.executor import ExecutorSlots
from repro.server.session import ClientSession
from repro.tenancy.admission import AdmissionPolicy, AdmissionScheduler
from repro.tenancy.baton import BatonDriver, BatonWorker
from repro.tenancy.fairqueue import DEFAULT_QUANTUM_BYTES, shared_trunks
from repro.tenancy.metrics import QueryRecord, TrafficReport


@dataclass(frozen=True)
class QuerySpec:
    """One query a workload issues, with its execution options.

    ``options`` is forwarded verbatim to :meth:`Database.execute`
    (``strategy=...``, ``adaptive=True``, ``deliver_results=True``, ...).
    ``predicted_cost_seconds`` feeds shortest-job-first admission; when
    omitted under SJF the engine asks the optimizer for an estimate.
    """

    sql: str
    label: str = ""
    predicted_cost_seconds: Optional[float] = None
    options: Dict[str, Any] = field(default_factory=dict)

    @property
    def display_label(self) -> str:
        return self.label or self.sql[:40]


@dataclass(frozen=True)
class SessionWorkload:
    """A closed-loop session: issue, wait for the answer, think, repeat.

    Think times draw jitter from a seeded RNG (``think ± jitter_fraction``),
    so interleavings vary across seeds but are identical for equal seeds.
    """

    tenant_id: str
    queries: Sequence[QuerySpec]
    think_time_seconds: float = 0.0
    jitter_fraction: float = 0.0
    initial_delay_seconds: float = 0.0
    repeat: int = 1
    seed: int = 0

    def think_draw(self, rng: random.Random) -> float:
        think = self.think_time_seconds
        if think > 0 and self.jitter_fraction > 0:
            think *= 1.0 + self.jitter_fraction * (2.0 * rng.random() - 1.0)
        return max(0.0, think)


@dataclass(frozen=True)
class OpenLoopWorkload:
    """An open-loop session: Poisson arrivals, independent of completions.

    Inter-arrival gaps are exponential with rate ``arrival_rate_per_second``
    from a seeded RNG.  Arrivals that land while the previous query is still
    running queue behind it (one connection is one serial channel), so the
    session behaves like an open-loop source with per-session FIFO service.
    """

    tenant_id: str
    queries: Sequence[QuerySpec]
    arrival_rate_per_second: float = 1.0
    initial_delay_seconds: float = 0.0
    repeat: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.arrival_rate_per_second <= 0:
            raise ValueError("arrival rate must be positive")


Workload = Union[SessionWorkload, OpenLoopWorkload]


class SharedExecutionContext(RemoteExecutionContext):
    """An execution context on the *shared* multi-tenant simulator.

    Instead of running a private simulator dry, driving an exchange parks
    the owning session worker on the coordinator process and lets the
    traffic driver interleave every session's events.  ``elapsed_seconds``
    is measured from context creation, since the shared clock was already
    running when this query started.
    """

    def __init__(
        self,
        simulator: Simulator,
        channel: Channel,
        client: ClientRuntime,
        network=None,
        worker: Optional[BatonWorker] = None,
    ) -> None:
        super().__init__(simulator, channel, client, network=network)
        self._worker = worker
        self.started_at = simulator.now

    @classmethod
    def open(
        cls,
        worker: BatonWorker,
        simulator: Simulator,
        network: Any,
        trunks: Tuple[Any, Any],
        flow: str,
        client: ClientRuntime,
        channel_name: str,
        session: Optional[ClientSession] = None,
        observer: Optional[Any] = None,
        site: Optional[str] = None,
    ) -> "SharedExecutionContext":
        """A fresh per-query channel for ``client`` on the shared simulator.

        Each query gets its own channel (private mailboxes and per-query
        byte accounting, exactly like single-query contexts) whose links
        delegate serialisation to the shared ``(downlink, uplink)`` trunks
        under ``flow``, so cross-query contention and per-flow attribution
        happen at the trunk.  Multi-tenant sessions and scatter-gather shard
        tasks both get their contexts here, and say here whom the query runs
        for (``session``), where it learns (``observer``, whose store is the
        tenant's statistics) and which server ``site`` it observes.
        """
        channel = network.build_channel(
            simulator,
            name=channel_name,
            downlink_scheduler=trunks[0],
            uplink_scheduler=trunks[1],
            flow=flow,
        )
        context = cls(simulator, channel, client, network=network, worker=worker)
        context.session, context.observer, context.site = session, observer, site
        return context

    def _drive_exchange(self, coordinator_process: Any) -> None:
        self._worker.await_event(coordinator_process)

    @property
    def elapsed_seconds(self) -> float:
        return self.simulator.now - self.started_at


class _SessionWorker(BatonWorker):
    """One session's worker: the generic baton protocol plus session state."""

    def __init__(self, engine: "MultiTenantEngine", workload: Workload, session: ClientSession) -> None:
        super().__init__(engine._driver, name=f"tenant-{session.session_id}")
        self.engine = engine
        self.workload = workload
        self.session = session

    def run_body(self) -> None:
        self.engine._run_session(self)


class MultiTenantEngine:
    """Runs many client sessions concurrently on one shared simulation.

    ``fair_queueing`` selects the shared-trunk discipline: ``"drr"``
    (deficit round robin) or ``"fifo"`` (one shared serialisation line).
    Every session's queries contend on that trunk pair.
    ``executor_slots`` bounds server concurrency (``None`` = unbounded) and
    ``admission_policy`` decides who gets a freed slot.  With
    ``per_tenant_statistics`` each tenant calibrates from its own
    :class:`~repro.adaptive.store.StatisticsStore` (optionally
    ``contention_aware``: bandwidth estimates then reflect the trunk share
    the tenant actually achieved, so adaptive controllers shrink their
    windows under cross-traffic).
    """

    def __init__(
        self,
        db: Database,
        fair_queueing: str = "drr",
        quantum_bytes: int = DEFAULT_QUANTUM_BYTES,
        executor_slots: Optional[int] = None,
        admission_policy: Union[AdmissionPolicy, str] = AdmissionPolicy.FIFO,
        per_tenant_statistics: bool = False,
        contention_aware: bool = False,
    ) -> None:
        self.db = db
        self.simulator = Simulator()
        self.trunk_downlink, self.trunk_uplink = shared_trunks(
            self.simulator, discipline=fair_queueing, quantum_bytes=quantum_bytes
        )
        self.slots = ExecutorSlots(executor_slots)
        if isinstance(admission_policy, str):
            admission_policy = AdmissionPolicy(admission_policy)
        self.admission = AdmissionScheduler(self.simulator, self.slots, policy=admission_policy)
        self.tenant_statistics: Optional[TenantStatistics] = (
            TenantStatistics(contention_aware=contention_aware)
            if per_tenant_statistics
            else None
        )
        self.sessions: List[ClientSession] = []
        self._driver = BatonDriver(self.simulator, description="multi-tenant run")
        self._records: List[QueryRecord] = []

    # -- the driver loop -------------------------------------------------------------

    def run(self, workloads: Sequence[Workload]) -> TrafficReport:
        """Run every workload to completion; returns the traffic report."""
        if not workloads:
            return TrafficReport()
        self._records = []
        workers: List[_SessionWorker] = []
        for index, workload in enumerate(workloads):
            session = ClientSession(
                self.db.network,
                registry=self.db.udfs,
                name=f"{workload.tenant_id}-s{index}",
                tenant_id=workload.tenant_id,
                session_id=f"{workload.tenant_id}-s{index}",
            )
            self.sessions.append(session)
            workers.append(_SessionWorker(self, workload, session))

        self._driver.run(workers)
        return self._build_report()

    # -- one session's life ------------------------------------------------------------

    def _run_session(self, worker: _SessionWorker) -> None:
        workload = worker.workload
        rng = random.Random(workload.seed)
        open_loop = isinstance(workload, OpenLoopWorkload)
        next_arrival = workload.initial_delay_seconds
        index = 0
        for _ in range(max(1, workload.repeat)):
            for spec in workload.queries:
                if open_loop:
                    next_arrival += rng.expovariate(workload.arrival_rate_per_second)
                    target = next_arrival
                elif index == 0:
                    target = workload.initial_delay_seconds
                else:
                    target = self.simulator.now + workload.think_draw(rng)
                if target > self.simulator.now:
                    worker.await_event(self.simulator.timeout(target - self.simulator.now))
                self._run_query(worker, spec, index)
                index += 1

    def _run_query(self, worker: _SessionWorker, spec: QuerySpec, index: int) -> None:
        session = worker.session
        record = QueryRecord(
            tenant_id=session.tenant_id,
            session_id=session.session_id,
            query_index=index,
            sql=spec.sql,
            label=spec.display_label,
            arrived_at=self.simulator.now,
        )
        ticket = None
        context = None
        try:
            ticket = self.admission.request(
                label=f"{session.session_id}#{index}",
                predicted_cost_seconds=self._predicted_cost(spec),
                tenant_id=session.tenant_id,
                session_id=session.session_id,
            )
            worker.await_event(ticket.grant)
            record.admitted_at = self.simulator.now

            session.queries_executed += 1
            context = SharedExecutionContext.open(
                worker,
                self.simulator,
                self.db.network,
                (self.trunk_downlink, self.trunk_uplink),
                flow=session.session_id,
                client=ClientRuntime(
                    registry=session.registry,
                    name=f"{session.name}-{session.queries_executed}",
                ),
                channel_name=f"{session.name}.channel{session.queries_executed}",
                session=session,
                observer=(
                    self.tenant_statistics.observer_for(session.tenant_id)
                    if self.tenant_statistics is not None
                    else None
                ),
            )
            result = self.db.execute(spec.sql, context=context, **spec.options)
            metrics = result.metrics
            metrics.admission_wait_seconds = record.admission_wait_seconds
            session.metrics.admission_wait_seconds += record.admission_wait_seconds
            record.metrics = metrics
            record.rows_returned = metrics.rows_returned
        except Exception as exc:  # noqa: BLE001 - a failed query must not kill the session
            record.error = f"{type(exc).__name__}: {exc}"
        except BaseException:
            record.error = "aborted: run terminated while the query was in flight"
            raise
        finally:
            record.completed_at = self.simulator.now
            if record.admitted_at < record.arrived_at:
                record.admitted_at = record.completed_at
            if context is not None:
                context.channel.close()
            if ticket is not None and ticket.admitted:
                self.admission.release(ticket)
            self._records.append(record)

    def _predicted_cost(self, spec: QuerySpec) -> Optional[float]:
        """Predicted run time for SJF admission; ``None`` under FIFO."""
        if spec.predicted_cost_seconds is not None:
            return spec.predicted_cost_seconds
        if self.admission.policy is not AdmissionPolicy.SHORTEST_JOB_FIRST:
            return None
        try:
            return self.db._decide(
                self.db.bind(spec.sql), self.db.default_config, optimize=True
            ).estimated_cost
        except ReproError:  # a query that does not bind or plan is ordered last
            return None

    # -- reporting ---------------------------------------------------------------------

    def _build_report(self) -> TrafficReport:
        flow_bytes: Dict[str, int] = {}
        for trunk in (self.trunk_downlink, self.trunk_uplink):
            for flow, total in trunk.stats.flow_bytes().items():
                flow_bytes[flow] = flow_bytes.get(flow, 0) + total
        return TrafficReport(
            records=list(self._records),
            makespan_seconds=self.simulator.now,
            trunk_flow_bytes=flow_bytes,
            peak_admission_queue=self.admission.peak_queue_depth,
        )

    def __repr__(self) -> str:
        return (
            f"MultiTenantEngine(trunks={type(self.trunk_downlink).__name__}, slots={self.slots!r}, "
            f"policy={self.admission.policy.value})"
        )
