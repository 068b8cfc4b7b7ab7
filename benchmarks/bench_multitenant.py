"""Multi-tenant traffic engine: fairness, tail latency, and adaptation.

Three experiments on the shared-trunk tenancy runtime:

* **Single-session equivalence** — one session driven through the
  :class:`~repro.tenancy.MultiTenantEngine` (shared trunk, fair queueing,
  admission armed) must produce *byte-identical* wire traces to the legacy
  private-channel path, for every execution strategy.  Multi-tenancy is pure
  infrastructure: with no competitors it changes nothing.

* **Tail latency under contention** — a population of interactive point
  sessions shares the trunk with bulk client-site-join sessions.  Swept over
  client counts, FIFO trunk + unbounded admission vs. deficit-round-robin
  fair queueing + a bounded shortest-job-first admission scheduler.  The
  asserted bar: at >= 16 client sessions the fair configuration improves the
  interactive p99 by >= 2x at equal throughput (the work is identical; only
  *whose* bytes wait changes).

* **Adaptive vs. static under cross-traffic** — a tenant running the
  paper's static default (tuple-at-a-time shipping) against the same tenant
  with adaptive batch control and a contention-aware per-tenant statistics
  store, both under identical bulk cross-traffic.  The adaptive tenant must
  be >= 1.4x faster on mean latency, and its store must have *measured* the
  contention: calibrated downlink bandwidth well under the configured trunk
  rate while the (uncontended) uplink calibration stays near configured.
"""

from __future__ import annotations

import pytest

from conftest import snapshot
from repro.core.strategies import ExecutionStrategy, StrategyConfig
from repro.tenancy import MultiTenantEngine, QuerySpec, SessionWorkload, percentile
from repro.workloads.experiments import Sized, Sweep
from repro.workloads.multitenant import (
    BULK_SQL,
    DEFAULT_NETWORK,
    POINT_SQL,
    bulk_session,
    make_tenant_database,
    point_sessions,
)

#: Each History row carries a 512-point series (~4 KB): two bulk sessions
#: visibly saturate the 200 KB/s trunk, which is the whole point.
BULK_SERIES = 512
QUANTUM = 1024


def _database():
    return make_tenant_database(bulk_series=BULK_SERIES)


def _point_tail(report):
    latencies = []
    for tenant, values in report.tenant_latencies().items():
        if tenant.startswith("point"):
            latencies.extend(values)
    latencies.sort()
    return percentile(latencies, 0.99), percentile(latencies, 0.5)


def _mixed_workloads(point_count):
    workloads = point_sessions(point_count, queries_per_session=3, seed=7)
    for index in range(2):
        workloads.append(
            bulk_session(tenant_id=f"bulk{index}", queries=2, seed=9000 + index)
        )
    return workloads


def solo_point(strategy):
    """One session through the tenancy engine vs. the private-channel path."""
    strategy = ExecutionStrategy(strategy)
    legacy = _database().execute(POINT_SQL, strategy=strategy, deliver_results=True).metrics
    engine = MultiTenantEngine(_database(), fair_queueing="drr", executor_slots=4)
    query = QuerySpec(POINT_SQL, options={"strategy": strategy, "deliver_results": True})
    report = engine.run([SessionWorkload(tenant_id="solo", queries=[query])])
    tenant = report.records[0].metrics

    def trace(metrics):
        return (
            metrics.downlink_messages,
            metrics.uplink_messages,
            metrics.downlink_bytes,
            metrics.uplink_bytes,
            metrics.rows_returned,
        )

    return {
        "downlink_bytes": tenant.downlink_bytes,
        "uplink_bytes": tenant.uplink_bytes,
        "rows": tenant.rows_returned,
        "identical": trace(legacy) == trace(tenant),
        "private_s": legacy.elapsed_seconds,
        "tenant_s": tenant.elapsed_seconds,
    }


def tail_point(point_sessions):
    """FIFO trunk + unbounded admission vs. DRR + bounded SJF admission."""
    baseline = MultiTenantEngine(_database(), fair_queueing="fifo").run(
        _mixed_workloads(point_sessions)
    )
    fair = MultiTenantEngine(
        _database(),
        fair_queueing="drr",
        quantum_bytes=QUANTUM,
        executor_slots=point_sessions,
        admission_policy="sjf",
    ).run(_mixed_workloads(point_sessions))
    base_p99, base_p50 = _point_tail(baseline)
    fair_p99, fair_p50 = _point_tail(fair)
    return {
        "clients": point_sessions + 2,
        "fifo_p99_s": base_p99,
        "fifo_p50_s": base_p50,
        "fair_p99_s": fair_p99,
        "fair_p50_s": fair_p50,
        "p99_improvement": base_p99 / fair_p99,
        "fifo_throughput_qps": baseline.throughput_queries_per_second,
        "fair_throughput_qps": fair.throughput_queries_per_second,
        "peak_admission_queue": fair.peak_admission_queue,
        "errors": baseline.error_count + fair.error_count,
    }


def probe_point(adaptive, repeats):
    """A semi-join tenant, static or adaptive, under identical bulk cross-traffic."""
    options = {"config": StrategyConfig.semi_join()}
    if adaptive:
        options["adaptive"] = True
    engine = MultiTenantEngine(
        _database(),
        fair_queueing="drr",
        quantum_bytes=QUANTUM,
        per_tenant_statistics=True,
        contention_aware=True,
    )
    report = engine.run(
        [
            SessionWorkload(
                tenant_id="probe",
                queries=[QuerySpec(BULK_SQL, options=options)],
                repeat=repeats,
                think_time_seconds=0.05,
                seed=5,
            ),
            bulk_session(tenant_id="cross0", queries=repeats, seed=9000),
            bulk_session(tenant_id="cross1", queries=repeats, seed=9001),
        ]
    )
    latencies = [r.latency_seconds for r in report.records if r.tenant_id == "probe"]
    store = engine.tenant_statistics.for_tenant("probe")
    calibrated = store.calibrated_network(DEFAULT_NETWORK)
    return {
        "mean_latency_s": sum(latencies) / len(latencies),
        "errors": report.error_count,
        "learned_batch": store.preferred_batch_size(default=1),
        "calibrated_downlink": calibrated.downlink_bandwidth,
        "calibrated_uplink": calibrated.uplink_bandwidth,
    }


SOLO = Sweep(
    "tenancy_single_session",
    solo_point,
    axes={"strategy": tuple(strategy.value for strategy in ExecutionStrategy)},
)
#: Interactive-session counts; the acceptance bar is asserted on every >= 16 clients.
TAIL = Sweep(
    "tenancy_tail_latency",
    tail_point,
    axes={"point_sessions": Sized(full=(4, 8, 16, 24), smoke=(8, 16))},
)
PROBE = Sweep(
    "tenancy_adaptive_probe",
    probe_point,
    axes={"adaptive": (False, True)},
    fixed={"repeats": Sized(full=5, smoke=3)},
)


@pytest.mark.benchmark(group="multitenant")
def test_single_session_traces_are_byte_identical(run_sweep):
    records = run_sweep(SOLO, "Single session through the tenancy engine vs. the private path")
    for record in records:
        assert record["identical"]
        assert record["tenant_s"] == pytest.approx(record["private_s"], abs=1e-9)


@pytest.mark.benchmark(group="multitenant")
def test_fair_queueing_and_admission_protect_tail_latency(run_sweep):
    records = run_sweep(
        TAIL,
        "Interactive p99 vs. client count: FIFO/unbounded vs. DRR + SJF admission",
        ["clients", "fifo_p99_s", "fair_p99_s", "p99_improvement", "fifo_throughput_qps", "fair_throughput_qps"],
    )
    snapshot(
        "multitenant",
        {"bulk_series": BULK_SERIES, "quantum_bytes": QUANTUM, "tail_latency": records},
    )

    for row in records:
        assert row["errors"] == 0
        # Same queries, same bytes: fair scheduling must not cost throughput.
        assert row["fair_throughput_qps"] >= row["fifo_throughput_qps"] * 0.99
        if row["clients"] >= 16:
            # The acceptance bar: >= 2x better interactive p99 at scale.
            assert row["p99_improvement"] >= 2.0
            # The admission bound was actually binding, not decorative.
            assert row["peak_admission_queue"] >= 1
        # Fair queueing should never make the tail *worse* than FIFO.
        assert row["fair_p99_s"] <= row["fifo_p99_s"]


@pytest.mark.benchmark(group="multitenant")
def test_adaptive_tenant_beats_static_under_cross_traffic(run_sweep):
    static, adaptive = run_sweep(
        PROBE, "Adaptive vs. the static tuple-at-a-time default, under bulk cross-traffic"
    )
    configured = DEFAULT_NETWORK.downlink_bandwidth
    assert static["errors"] == adaptive["errors"] == 0

    # Adaptive batch control wins under contention...
    assert static["mean_latency_s"] / adaptive["mean_latency_s"] >= 1.4
    assert adaptive["learned_batch"] > 1
    # ...and the contention-aware store *measured* the crushed downlink
    # share, while the uncontended uplink calibrates near the configured rate.
    assert adaptive["calibrated_downlink"] < 0.7 * configured
    assert adaptive["calibrated_uplink"] > 0.8 * configured
