"""Names, units, directions and bounds of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root declares exactly these
(``test_selfcheck.py`` asserts it).  End-to-end metrics are what a caller of
the library sees and carry a regression bound; per-layer metrics explain
them and carry none.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

WORKLOADS = ("ship_bulk", "plan_small", "paged_mix", "tenants_mixed", "scatter_sharded")

#: name -> (unit, better, bound as a share of the parent's median)
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "host_ops_per_s": ("operations/s", "higher", 0.15),
    "host_op_p50_ms": ("ms", "lower", 0.20),
    "peak_rss_mb": ("MiB", "lower", 0.10),
    "sim_s": ("sim_s", "lower", 0.02),
    "wire_bytes": ("bytes", "lower", 0.02),
    "sim_tail_latency_s": ("sim_s", "lower", 0.02),
}

#: Reported by the full run but not declared to the driver: ``error_rate`` is
#: 0 on a healthy commit (the driver gets it as failed / attempted), and
#: ``disk_bytes_per_user_byte`` exists on ``paged_mix`` only (it is declared
#: per-layer as ``storage.disk_bytes_per_user_byte``).
REPORT_ONLY = {
    "error_rate": ("ratio", "lower", 0.0),
    "disk_bytes_per_user_byte": ("ratio", "lower", 0.02),
}

#: Operation kinds per workload (one ``kind.<kind>.host_p50_ms`` each).
KINDS: Dict[str, Tuple[str, ...]] = {
    "ship_bulk": (
        "f1_naive_b1",
        "f1_semijoin_b1",
        "f1_csj_b1",
        "f1_semijoin_b16",
        "f1_opt_adaptive",
        "f11_opt",
        "f13_opt_adaptive",
        "f13_reopt_adaptive",
    ),
    "plan_small": (
        "f1_opt",
        "f1_opt_adaptive",
        "f11_opt",
        "f11_opt_adaptive",
        "f13_opt",
        "f13_opt_adaptive",
    ),
    "paged_mix": (
        "point_lookup",
        "range_scan",
        "range_udf",
        "full_scan_udf",
        "insert_batch",
        "delete_sweep",
        "reopen_lookup",
    ),
    "tenants_mixed": ("engine_run",),
    "scatter_sharded": ("s1_plain", "s1_opt", "s4_plain", "s4_opt", "s8_plain", "s8_opt"),
}

_LAYERS: List[Tuple[str, str, str]] = [
    # sql
    ("sql.parse_host_us_per_op", "us", "lower"),
    ("sql.bind_host_us_per_op", "us", "lower"),
    # core.optimizer
    ("optimizer.host_us_per_op", "us", "lower"),
    ("optimizer.plans_considered_per_op", "count", "lower"),
    # server
    ("server.build_plan_host_us_per_op", "us", "lower"),
    ("server.execute_plan_host_ms_per_op", "ms", "lower"),
    ("server.other_host_us_per_op", "us", "lower"),
    # core.execution
    ("execution.remote_operations", "count", "lower"),
    ("execution.input_rows", "count", "lower"),
    ("execution.send_stall_sim_s", "sim_s", "lower"),
    ("execution.peak_in_flight_batches", "count", "higher"),
    ("execution.host_us_per_input_row", "us", "lower"),
    # network
    ("network.sim_events", "count", "lower"),
    ("network.events_per_input_row", "count", "lower"),
    ("network.messages_down", "count", "lower"),
    ("network.messages_up", "count", "lower"),
    ("network.bytes_down", "bytes", "lower"),
    ("network.bytes_up", "bytes", "lower"),
    ("network.step_host_s", "s", "lower"),
    ("network.host_us_per_event", "us", "lower"),
    ("network.send_host_s", "s", "lower"),
    ("network.bare_host_us_per_message", "us", "lower"),
    # client
    ("client.udf_invocations", "count", "lower"),
    ("client.cache_hits", "count", "higher"),
    ("client.cache_hit_ratio", "ratio", "higher"),
    ("client.compute_sim_s", "sim_s", "lower"),
    ("client.udf_host_s", "s", "lower"),
    ("client.udf_bare_host_us_per_call", "us", "lower"),
    # relational
    ("relational.server_subtree_host_ms", "ms", "lower"),
    ("relational.filter_host_ns_per_row", "ns", "lower"),
    ("relational.join_host_ns_per_row", "ns", "lower"),
    # adaptive
    ("adaptive.observe_host_us_per_op", "us", "lower"),
    ("adaptive.store_save_host_us_per_op", "us", "lower"),
    ("adaptive.strategy_switches", "count", "lower"),
    ("adaptive.replan_attempts", "count", "lower"),
    ("adaptive.plan_migrations", "count", "lower"),
    ("adaptive.converged_batch_size", "rows", "higher"),
    # storage
    ("storage.load_host_s", "s", "lower"),
    ("storage.btree_build_host_s", "s", "lower"),
    ("storage.hash_build_host_s", "s", "lower"),
    ("storage.buffer_hits", "count", "higher"),
    ("storage.buffer_misses", "count", "lower"),
    ("storage.buffer_hit_ratio", "ratio", "higher"),
    ("storage.buffer_evictions", "count", "lower"),
    ("storage.pages_per_point_lookup", "pages", "lower"),
    ("storage.index_pages_per_lookup", "pages", "lower"),
    ("storage.file_reads", "count", "lower"),
    ("storage.file_writes", "count", "lower"),
    ("storage.bytes_written_per_user_byte", "ratio", "lower"),
    ("storage.flush_count", "count", "lower"),
    ("storage.flush_host_ms_per_op", "ms", "lower"),
    ("storage.insert_host_us_per_row", "us", "lower"),
    ("storage.delete_host_ms_per_sweep", "ms", "lower"),
    ("storage.reopen_host_ms", "ms", "lower"),
    ("storage.disk_bytes", "bytes", "lower"),
    ("storage.disk_bytes_per_user_byte", "ratio", "lower"),
    # tenancy
    ("tenancy.queries_per_run", "count", "higher"),
    ("tenancy.baton_handoffs", "count", "lower"),
    ("tenancy.host_us_per_handoff", "us", "lower"),
    ("tenancy.host_queries_per_s", "1/s", "higher"),
    ("tenancy.sim_p50_latency_s", "sim_s", "lower"),
    ("tenancy.sim_makespan_s", "sim_s", "lower"),
    ("tenancy.fairness_index", "ratio", "higher"),
    ("tenancy.mean_admission_wait_sim_s", "sim_s", "lower"),
    ("tenancy.peak_admission_queue", "count", "lower"),
    # distribution
    ("distribution.plan_host_ms_per_op", "ms", "lower"),
    ("distribution.shard_tasks", "count", "lower"),
    ("distribution.sim_speedup_vs_single", "ratio", "higher"),
    ("distribution.migrations", "count", "lower"),
    # harness
    ("ops.count", "count", "higher"),
    ("ops.host_tail_ms", "ms", "lower"),
    ("ops.host_tail_percentile", "%", "higher"),
    ("ops.host_tail_samples", "count", "higher"),
    ("ops.host_round_spread", "ratio", "lower"),
    ("ops.raw_host_ops_per_s", "operations/s", "higher"),
    ("ops.speed_factor", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.execute_plan_share", "ratio", "lower"),
    ("trace.frontend_share", "ratio", "lower"),
    ("trace.storage_share", "ratio", "lower"),
    ("sim_digest", "hash48", "lower"),
]

#: name -> (unit, better)
PER_LAYER: Dict[str, Tuple[str, str]] = {name: (unit, better) for name, unit, better in _LAYERS}
for _workload_kinds in KINDS.values():
    for _kind in _workload_kinds:
        PER_LAYER.setdefault(f"kind.{_kind}.host_p50_ms", ("ms", "lower"))

WHY = {
    "ship_bulk": (
        "4000-company stock queries: row shipping through execution+network+client "
        "is >95% of host time; batch-1 vs batch-16/adaptive kinds split the event count"
    ),
    "plan_small": (
        "same queries at 60 companies: parse+bind+optimize+plan+observe are about half "
        "of each op; repeated and fresh literals keep a text-keyed cache honest"
    ),
    "paged_mix": (
        "durable 6000-row table 7x the 64-page pool: skewed lookups, range scans, "
        "UDF scans, insert/delete batches and reopen; the only storage-bound workload"
    ),
    "tenants_mixed": (
        "MultiTenantEngine, 16 point + 2 bulk sessions, 100 queries per run: host time "
        "is baton hand-offs, simulated p99 of point tenants is the tail"
    ),
    "scatter_sharded": (
        "scatter-gather over 1/4/8 shards with and without optimize: regression guard "
        "for distribution, which duplicates part of Database.execute"
    ),
}


def benchmark_json(run_seconds: int) -> dict:
    """The ``BENCHMARK.json`` these definitions imply."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": run_seconds,
        "workloads": [{"name": name, "why": WHY[name]} for name in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better) in PER_LAYER.items()
        ],
    }
