"""``tenants_mixed``: the server-shaped use of the same executor.

A ``MultiTenantEngine`` (deficit-round-robin trunk, 4 executor slots,
shortest-job-first admission) runs 16 closed-loop interactive sessions of 6
point queries each against 2 bulk client-site-join sessions of 2 queries
each: 100 queries per engine run, one engine run per operation.  Host time
is ``tenancy.baton`` thread hand-offs (about 50 k simulator events per run);
simulated p99 of the point tenants is what a tenant experiences.  A
hand-off or event-loop change shows here; planner and storage work must not.

The bulk sessions start at time zero and the point sessions arrive 0.2-0.6
simulated seconds later (seeded), so the interactive traffic always meets a
trunk that is already busy — the contention the tail metric is about does
not depend on which session happened to win the first admission slot.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Sequence

import probes
from metrics import KINDS
from harness import Op, Sample, Workload
from repro.core.strategies import ExecutionStrategy
from repro.network.topology import NetworkConfig
from repro.relational.types import FLOAT, STRING, TIME_SERIES, TimeSeries
from repro.server.engine import Database
from repro.tenancy import MultiTenantEngine, QuerySpec, SessionWorkload, percentile

POINT_ROWS = 24
POINT_SERIES = 3
BULK_ROWS = 240
EXECUTOR_SLOTS = 4


def score(series: TimeSeries) -> float:
    return sum(series) / len(series)


def _median_threshold(rows: Sequence[list]) -> float:
    """A threshold exactly half of the rows' scores clear."""
    scores = sorted(score(row[1]) for row in rows)
    middle = len(scores) // 2
    return (scores[middle - 1] + scores[middle]) / 2.0


class TenantsMixed(Workload):
    name = "tenants_mixed"
    kinds = KINDS[name]

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.bulk_series = 64 if smoke else 512
        self.point_sessions = 4 if smoke else 16
        self.point_queries = 2 if smoke else 6
        self.bulk_sessions = 1 if smoke else 2
        self.bulk_queries = 1 if smoke else 2
        self.ops_per_round = 1 if smoke else 5
        self.network = NetworkConfig.symmetric(200_000.0, latency=0.01, name="shared-trunk")
        rng = random.Random(seed)
        self.quotes = [
            [f"Q{index:02d}", TimeSeries([round(rng.uniform(5.0, 45.0), 2) for _ in range(POINT_SERIES)])]
            for index in range(POINT_ROWS)
        ]
        # Every bulk row has the same size: which session is on the trunk when
        # is then the same from seed to seed, and only the jitter moves the tail.
        self.history = [
            [f"H{index:03d}", TimeSeries([round(rng.uniform(5.0, 45.0), 2) for _ in range(self.bulk_series)])]
            for index in range(BULK_ROWS)
        ]
        point_threshold = _median_threshold(self.quotes)
        bulk_threshold = _median_threshold(self.history)
        self.point_sql = f"SELECT Q.Name FROM Quotes Q WHERE Score(Q.Series) > {point_threshold}"
        self.bulk_sql = f"SELECT H.Name FROM History H WHERE Score(H.Series) > {bulk_threshold}"
        #: Oracle: rows each query must return, by label.
        self.expected_rows = {
            "point": sum(1 for row in self.quotes if score(row[1]) > point_threshold),
            "bulk": sum(1 for row in self.history if score(row[1]) > bulk_threshold),
        }
        #: One traffic seed per operation of a round; rounds repeat them.
        self.run_seeds = [rng.randrange(1 << 30) for _ in range(self.ops_per_round)]
        self.db: Any = None

    @property
    def queries_per_run(self) -> int:
        return (
            self.point_sessions * self.point_queries + self.bulk_sessions * self.bulk_queries
        )

    def config(self) -> Dict[str, Any]:
        return {
            "point_sessions": self.point_sessions,
            "bulk_sessions": self.bulk_sessions,
            "queries_per_run": self.queries_per_run,
            "bulk_series_points": self.bulk_series,
            "executor_slots": EXECUTOR_SLOTS,
            "ops_per_round": self.ops_per_round,
        }

    def setup(self) -> Dict[str, float]:
        db = Database(network=self.network)
        db.create_table("Quotes", [("Name", STRING), ("Series", TIME_SERIES)], rows=self.quotes)
        db.create_table("History", [("Name", STRING), ("Series", TIME_SERIES)], rows=self.history)
        db.register_client_udf(
            "Score",
            score,
            result_dtype=FLOAT,
            result_size_bytes=8,
            cost_per_call_seconds=0.0005,
            selectivity=0.5,
        )
        self.db = db
        return {}

    def udf_registries(self) -> List[Any]:
        return [self.db.udfs]

    def _traffic(self, seed: int) -> List[SessionWorkload]:
        rng = random.Random(seed)
        point = QuerySpec(
            self.point_sql, label="point", options={"strategy": ExecutionStrategy.SEMI_JOIN}
        )
        bulk = QuerySpec(
            self.bulk_sql, label="bulk", options={"strategy": ExecutionStrategy.CLIENT_SITE_JOIN}
        )
        sessions = [
            SessionWorkload(
                tenant_id=f"point{index}",
                queries=[point],
                repeat=self.point_queries,
                think_time_seconds=0.1,
                jitter_fraction=0.5,
                initial_delay_seconds=rng.uniform(0.2, 0.6),
                seed=rng.randrange(1 << 30),
            )
            for index in range(self.point_sessions)
        ]
        sessions.extend(
            SessionWorkload(
                tenant_id=f"bulk{index}",
                queries=[bulk],
                repeat=self.bulk_queries,
                seed=rng.randrange(1 << 30),
            )
            for index in range(self.bulk_sessions)
        )
        return sessions

    def _verify(self, report: Any) -> Sample:
        failed = 0
        detail = ""
        sample = Sample(attempted=self.queries_per_run)
        latencies: List[float] = []
        point_latencies: List[float] = []
        for record in report.records:
            wrong = record.error is not None or record.rows_returned != self.expected_rows.get(
                record.label
            )
            if wrong:
                failed += 1
                detail = record.error or (
                    f"{record.label} query returned {record.rows_returned} rows, "
                    f"expected {self.expected_rows.get(record.label)}"
                )
                continue
            metrics = record.metrics
            latencies.append(record.latency_seconds)
            if record.tenant_id.startswith("point"):
                point_latencies.append(record.latency_seconds)
            sample.bytes_down += metrics.downlink_bytes
            sample.bytes_up += metrics.uplink_bytes
            sample.messages_down += metrics.downlink_messages
            sample.messages_up += metrics.uplink_messages
            sample.rows += metrics.rows_returned
            for name, value in (
                ("execution.remote_operations", metrics.remote_operations),
                ("execution.input_rows", metrics.input_rows),
                ("execution.send_stall_sim_s", metrics.send_stall_seconds),
                ("client.udf_invocations", metrics.udf_invocations),
                ("client.cache_hits", metrics.client_cache_hits),
                ("client.compute_sim_s", metrics.client_compute_seconds),
            ):
                sample.counters[name] = sample.counters.get(name, 0) + value
            sample.peaks["execution.peak_in_flight_batches"] = max(
                sample.peaks.get("execution.peak_in_flight_batches", 0),
                metrics.peak_in_flight_batches,
            )
        failed += abs(self.queries_per_run - len(report.records))
        sample.failed = failed
        if failed:
            sample.detail = detail or (
                f"{len(report.records)} records for {self.queries_per_run} queries"
            )
        sample.sim_s = report.makespan_seconds
        sample.tail_latencies = point_latencies
        sample.counters.update(
            {
                "tenancy.queries": len(report.records),
                "tenancy.sim_makespan_s": report.makespan_seconds,
                "tenancy.sim_p50_latency_s": percentile(latencies, 0.5),
                "tenancy.fairness_index": report.fairness_index,
                "tenancy.mean_admission_wait_sim_s": report.mean_admission_wait_seconds,
            }
        )
        sample.peaks["tenancy.peak_admission_queue"] = report.peak_admission_queue
        return sample

    def round_ops(self) -> List[Op]:
        def run(seed: int) -> Any:
            engine = MultiTenantEngine(
                self.db, "drr", executor_slots=EXECUTOR_SLOTS, admission_policy="sjf"
            )
            return engine.run(self._traffic(seed))

        return [
            Op("engine_run", lambda seed=seed: run(seed), self._verify) for seed in self.run_seeds
        ]

    def layer_metrics(self, traced: Any, spans: Any) -> Dict[str, float]:
        runs = len(traced.samples)
        queries = traced.counter("tenancy.queries")
        metrics = {
            "tenancy.queries_per_run": queries / runs,
            "tenancy.host_queries_per_s": queries / traced.total_host_s,
            "tenancy.sim_p50_latency_s": traced.counter("tenancy.sim_p50_latency_s") / runs,
            "tenancy.sim_makespan_s": traced.counter("tenancy.sim_makespan_s") / runs,
            "tenancy.fairness_index": traced.counter("tenancy.fairness_index") / runs,
            "tenancy.mean_admission_wait_sim_s": traced.counter("tenancy.mean_admission_wait_sim_s")
            / runs,
            "tenancy.peak_admission_queue": traced.peak("tenancy.peak_admission_queue"),
        }
        handoffs = spans["BatonWorker.await_event"].count
        metrics.update(
            probes.baton_handoff(handoffs, workers=self.point_sessions + self.bulk_sessions)
        )
        series = [(row[1],) for row in self.quotes + self.history]
        metrics.update(probes.udf_bare_call({"Score": score}, {"Score": series}))
        metrics.update(probes.server_subtree(self.db, [self.bulk_sql]))
        return metrics
