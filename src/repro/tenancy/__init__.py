"""Multi-tenant traffic engine: concurrent sessions on one shared simulation.

The paper's experiments run one query at a time, each owning its simulator.
This package generalises that to the production shape: N concurrent client
sessions against one shared topology —

* :mod:`repro.tenancy.fairqueue` — shared trunk links with FIFO or
  deficit-round-robin scheduling across session flows;
* :mod:`repro.tenancy.admission` — a server-side admission/concurrency
  scheduler (token slots, FIFO or shortest-predicted-job-first);
* :mod:`repro.tenancy.driver` — the multi-query driver interleaving whole
  query executions as coroutine exchanges on one discrete-event simulation,
  each session a closed loop of issue, wait and think;
* :mod:`repro.tenancy.metrics` — per-query records and the aggregate
  traffic report (throughput, p50/p99 latency, fairness);
* :mod:`repro.tenancy.baton` — the strict baton-passing protocol the driver
  (and the scatter-gather distribution engine) interleaves workers with.
"""

from repro.tenancy.baton import BatonDriver, BatonWorker, WorkerAborted
from repro.tenancy.admission import (
    AdmissionPolicy,
    AdmissionScheduler,
    AdmissionTicket,
)
from repro.tenancy.driver import (
    MultiTenantEngine,
    QuerySpec,
    SessionWorkload,
    SharedExecutionContext,
)
from repro.tenancy.fairqueue import (
    DeficitRoundRobinScheduler,
    FifoLinkScheduler,
    LinkScheduler,
    shared_trunks,
)
from repro.tenancy.metrics import QueryRecord, TrafficReport, percentile

__all__ = [
    "AdmissionPolicy",
    "BatonDriver",
    "BatonWorker",
    "WorkerAborted",
    "AdmissionScheduler",
    "AdmissionTicket",
    "DeficitRoundRobinScheduler",
    "FifoLinkScheduler",
    "LinkScheduler",
    "MultiTenantEngine",
    "QueryRecord",
    "QuerySpec",
    "SessionWorkload",
    "SharedExecutionContext",
    "TrafficReport",
    "percentile",
    "shared_trunks",
]
