"""FIFO against shortest-job-first admission, on the multi-tenant mixed workload.

    PYTHONPATH=src python tools/admission_policies.py

Runs ``benchmarks/bench_multitenant.py``'s mix (point sessions of three
queries, seed 7, beside two bulk sessions, seeds 9000 and 9001, over a
512-point History table) on a DRR trunk with a 1024-byte quantum, once per
admission policy, and prints the point sessions' p99 and p50 latency in
simulated seconds.  The first two rows have fewer executor slots than point
sessions; the last three have the ``tail_latency`` sweep's shape (one slot
per point session), where the two policies give identical latencies.
"""

from repro.tenancy import MultiTenantEngine, percentile
from repro.workloads.multitenant import bulk_session, make_tenant_database, point_sessions

#: (point sessions, executor slots)
SHAPES = ((16, 2), (16, 4), (4, 4), (8, 8), (16, 16))


def point_latency(point_count: int, slots: int, policy: str):
    workloads = point_sessions(point_count, queries_per_session=3, seed=7)
    workloads += [bulk_session(tenant_id=f"bulk{i}", queries=2, seed=9000 + i) for i in range(2)]
    engine = MultiTenantEngine(
        make_tenant_database(bulk_series=512),
        fair_queueing="drr",
        quantum_bytes=1024,
        executor_slots=slots,
        admission_policy=policy,
    )
    report = engine.run(workloads)
    latencies = sorted(
        latency
        for tenant, values in report.tenant_latencies().items()
        if tenant.startswith("point")
        for latency in values
    )
    return percentile(latencies, 0.99), percentile(latencies, 0.5)


def main() -> None:
    print("| point sessions / slots | FIFO p99 | FIFO p50 | SJF p99 | SJF p50 |")
    print("|---|---:|---:|---:|---:|")
    for point_count, slots in SHAPES:
        fifo = point_latency(point_count, slots, "fifo")
        sjf = point_latency(point_count, slots, "sjf")
        cells = " | ".join(f"{value:.2f}" for value in fifo + sjf)
        print(f"| {point_count} / {slots} | {cells} |")


if __name__ == "__main__":
    main()
