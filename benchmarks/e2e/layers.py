"""Per-layer metrics from the traced pass, the untraced rounds and the probes.

Layers are the packages under ``src/repro/``.  Everything here is measured
from outside: spans around public callables (:mod:`trace`), counters the
program already puts on its results, and the direct probes of :mod:`probes`.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

import metrics as names
import probes
from harness import RoundLog, Workload, host_tail, percentile, sim_digest
from trace import FRONTEND_SPANS, STORAGE_SPANS, Tracer


def per_layer(
    workload: Workload,
    untraced: Sequence[RoundLog],
    traced: RoundLog,
    tracer: Tracer,
    after_rounds: Dict[str, float],
) -> Dict[str, Tuple[float, str]]:
    """Every declared per-layer metric for one workload (zero where a layer is idle)."""
    # Span durations are clock readings: bring them to reference speed.
    scale = 1.0 / traced.speed_factor
    totals = tracer.totals(scale)
    ops = len(traced.host_s)
    op_s = totals["op"].total_s
    values: Dict[str, float] = {name: 0.0 for name in names.PER_LAYER}

    def total_s(span: str) -> float:
        return totals[span].total_s

    # sql / optimizer / server
    values["sql.parse_host_us_per_op"] = total_s("sql.parser.parse") / ops * 1e6
    values["sql.bind_host_us_per_op"] = totals["Binder.bind_sql"].self_s / ops * 1e6
    values["optimizer.host_us_per_op"] = total_s("Optimizer.optimize") / ops * 1e6
    values["optimizer.plans_considered_per_op"] = (
        sum(enumerator.plans_considered for enumerator in tracer.captured["enumerators"]) / ops
    )
    values["server.build_plan_host_us_per_op"] = total_s("server.planner.build_plan") / ops * 1e6
    values["server.execute_plan_host_ms_per_op"] = total_s("Executor.execute_plan") / ops * 1e3
    values["server.other_host_us_per_op"] = total_s("unattributed") / ops * 1e6

    # core.execution
    input_rows = traced.counter("execution.input_rows")
    values["execution.remote_operations"] = traced.counter("execution.remote_operations")
    values["execution.input_rows"] = input_rows
    values["execution.send_stall_sim_s"] = traced.counter("execution.send_stall_sim_s")
    values["execution.peak_in_flight_batches"] = traced.peak("execution.peak_in_flight_batches")
    values["execution.host_us_per_input_row"] = (
        total_s("Executor.execute_plan") / input_rows * 1e6 if input_rows else 0.0
    )

    # network
    events = totals["Simulator.step"].count
    values["network.sim_events"] = events
    values["network.events_per_input_row"] = events / input_rows if input_rows else 0.0
    values["network.messages_down"] = sum(sample.messages_down for sample in traced.samples)
    values["network.messages_up"] = sum(sample.messages_up for sample in traced.samples)
    values["network.bytes_down"] = sum(sample.bytes_down for sample in traced.samples)
    values["network.bytes_up"] = sum(sample.bytes_up for sample in traced.samples)
    values["network.step_host_s"] = total_s("Simulator.step")
    values["network.host_us_per_event"] = total_s("Simulator.step") / events * 1e6 if events else 0.0
    values["network.send_host_s"] = total_s("Link.send")
    values.update(probes.bare_simulator(tracer.captured["messages"], workload.network))

    # client
    invocations = traced.counter("client.udf_invocations")
    cache_hits = traced.counter("client.cache_hits")
    values["client.udf_invocations"] = invocations
    values["client.cache_hits"] = cache_hits
    values["client.cache_hit_ratio"] = (
        cache_hits / (cache_hits + invocations) if cache_hits + invocations else 0.0
    )
    values["client.compute_sim_s"] = traced.counter("client.compute_sim_s")
    values["client.udf_host_s"] = sum(
        entry.total_s for span, entry in totals.items() if span.startswith("udf.")
    )

    # adaptive
    values["adaptive.observe_host_us_per_op"] = total_s("RuntimeObserver.observe") / ops * 1e6
    values["adaptive.store_save_host_us_per_op"] = total_s("StatisticsStore.save") / ops * 1e6
    for counter in ("strategy_switches", "replan_attempts", "plan_migrations"):
        values[f"adaptive.{counter}"] = traced.counter(f"adaptive.{counter}")
    values["adaptive.converged_batch_size"] = traced.last("adaptive.converged_batch_size")

    # storage (spans), tenancy and distribution (spans and captures)
    values["storage.flush_count"] = totals["StorageEngine.flush"].count
    values["storage.flush_host_ms_per_op"] = total_s("StorageEngine.flush") / ops * 1e3
    values["tenancy.baton_handoffs"] = totals["BatonWorker.await_event"].count
    values["distribution.plan_host_ms_per_op"] = total_s("ClusterPlanner.plan") / ops * 1e3
    values["distribution.shard_tasks"] = sum(tracer.captured["shard_tasks"])

    # harness
    pooled = [latency for log in untraced for latency in log.host_s]
    rung, tail_ms, samples = host_tail(pooled)
    round_s = [log.total_host_s for log in untraced]
    values["ops.count"] = len(pooled)
    values["ops.host_tail_ms"] = tail_ms
    values["ops.host_tail_percentile"] = rung
    values["ops.host_tail_samples"] = samples
    values["ops.host_round_spread"] = (max(round_s) - min(round_s)) / statistics.median(round_s)
    values["ops.raw_host_ops_per_s"] = statistics.median(
        len(log.raw_host_s) / log.total_raw_host_s for log in untraced
    )
    values["ops.speed_factor"] = statistics.median(log.speed_factor for log in untraced)
    values["trace.overhead_ratio"] = traced.total_host_s / statistics.median(round_s)
    values["trace.execute_plan_share"] = total_s("Executor.execute_plan") / op_s
    values["trace.frontend_share"] = sum(total_s(span) for span in FRONTEND_SPANS) / op_s
    values["trace.storage_share"] = sum(totals[span].self_s for span in STORAGE_SPANS) / op_s
    values["sim_digest"] = float(int(sim_digest(untraced)[:12], 16))
    by_kind: Dict[str, List[float]] = defaultdict(list)
    for log in untraced:
        for kind, latency in zip(log.kinds, log.host_s):
            by_kind[kind].append(latency)
    for kind, latencies in by_kind.items():
        values[f"kind.{kind}.host_p50_ms"] = percentile(latencies, 50.0) * 1e3

    # what only the workload can measure: probes on its inputs, its own timers
    values.update(after_rounds)
    values.update(workload.layer_metrics(traced, totals))

    unknown = set(values) - set(names.PER_LAYER)
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return {name: (float(values[name]), names.PER_LAYER[name][0]) for name in names.PER_LAYER}
