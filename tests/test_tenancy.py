"""Tests for the multi-tenant traffic engine: driver, admission, isolation."""

from __future__ import annotations

import inspect

import pytest

from repro.adaptive import BatchSizeController, TenantStatistics
from repro.adaptive.observer import LinkObservation
from repro.core.strategies import ExecutionStrategy
from repro.network.simulator import Simulator
from repro.server.engine import Database
from repro.server.executor import ExecutorSlots
from repro.tenancy import (
    AdmissionPolicy,
    AdmissionScheduler,
    MultiTenantEngine,
    OpenLoopWorkload,
    QuerySpec,
    SessionWorkload,
    percentile,
)
from repro.workloads.multitenant import (
    BULK_SQL,
    POINT_SQL,
    bulk_query_spec,
    bulk_session,
    make_tenant_database,
    mixed_traffic,
    point_query_spec,
    point_sessions,
    poisson_point_arrivals,
)


def wire_trace(metrics):
    return (
        metrics.downlink_messages,
        metrics.uplink_messages,
        metrics.downlink_bytes,
        metrics.uplink_bytes,
        metrics.rows_returned,
    )


class TestSingleSessionEquivalence:
    """One session under tenancy must reproduce the legacy private path."""

    @pytest.mark.parametrize("strategy", list(ExecutionStrategy))
    @pytest.mark.parametrize("discipline", ["drr", "fifo", "none"])
    def test_wire_trace_byte_identical(self, strategy, discipline):
        legacy = make_tenant_database().execute(
            POINT_SQL, strategy=strategy, deliver_results=True
        )
        engine = MultiTenantEngine(make_tenant_database(), fair_queueing=discipline)
        report = engine.run(
            [
                SessionWorkload(
                    tenant_id="solo",
                    queries=[
                        QuerySpec(
                            POINT_SQL,
                            options={"strategy": strategy, "deliver_results": True},
                        )
                    ],
                )
            ]
        )
        assert len(report.records) == 1
        record = report.records[0]
        assert record.succeeded
        assert wire_trace(record.metrics) == wire_trace(legacy.metrics)
        assert record.metrics.elapsed_seconds == pytest.approx(
            legacy.metrics.elapsed_seconds, abs=1e-9
        )


class TestDeterminism:
    def test_same_seed_reproduces_exactly(self):
        workloads = mixed_traffic(point_count=4, bulk_count=1, seed=3)
        reports = [
            MultiTenantEngine(
                make_tenant_database(), fair_queueing="drr", executor_slots=2
            ).run(workloads)
            for _ in range(2)
        ]
        first, second = reports
        assert first.summary() == second.summary()
        assert [r.latency_seconds for r in first.records] == [
            r.latency_seconds for r in second.records
        ]
        assert first.trunk_flow_bytes == second.trunk_flow_bytes

    def test_concurrent_results_match_independent_runs(self):
        """K concurrent sessions return exactly what K private runs return:
        contention moves time around, never bytes or rows."""
        specs = {"point": point_query_spec(), "bulk": bulk_query_spec()}
        independent = {}
        for name, spec in specs.items():
            result = make_tenant_database().execute(spec.sql, **spec.options)
            independent[name] = wire_trace(result.metrics)

        engine = MultiTenantEngine(make_tenant_database(), fair_queueing="drr")
        report = engine.run(
            [
                SessionWorkload(tenant_id="p0", queries=[specs["point"]], repeat=2),
                SessionWorkload(tenant_id="p1", queries=[specs["point"]], repeat=2),
                bulk_session(tenant_id="b0", queries=1),
            ]
        )
        assert report.error_count == 0
        got = sorted(wire_trace(record.metrics) for record in report.records)
        want = sorted([independent["point"]] * 4 + [independent["bulk"]])
        assert got == want


class TestFlowAttribution:
    def test_interleaved_sessions_sum_to_trunk_totals(self):
        """Satellite regression: two interleaved sessions' per-flow counters
        sum exactly to the shared trunk's totals."""
        engine = MultiTenantEngine(make_tenant_database(), fair_queueing="drr")
        report = engine.run(
            [
                SessionWorkload(tenant_id="a", queries=[point_query_spec()], repeat=3),
                bulk_session(tenant_id="b", queries=1),
            ]
        )
        assert report.error_count == 0
        for trunk in (engine.trunk_downlink, engine.trunk_uplink):
            flows = trunk.stats.flows
            assert set(flows) == {"a-s0", "b-s1"}
            assert sum(f.total_bytes for f in flows.values()) == trunk.stats.total_bytes
            assert (
                sum(f.message_count for f in flows.values())
                == trunk.stats.message_count
            )
        # The report's per-flow bytes cover both directions.
        assert report.trunk_flow_bytes["a-s0"] == (
            engine.trunk_downlink.stats.flow("a-s0").total_bytes
            + engine.trunk_uplink.stats.flow("a-s0").total_bytes
        )

    def test_per_query_metrics_sum_to_session_flow(self):
        """Per-query channel accounting adds up to the session's trunk flow."""
        engine = MultiTenantEngine(make_tenant_database(), fair_queueing="fifo")
        report = engine.run(
            [SessionWorkload(tenant_id="a", queries=[point_query_spec()], repeat=3)]
        )
        total = sum(record.metrics.total_bytes for record in report.records)
        assert total == report.trunk_flow_bytes["a-s0"]


class TestAdmission:
    def make_scheduler(self, capacity, policy):
        sim = Simulator()
        return sim, AdmissionScheduler(sim, ExecutorSlots(capacity), policy=policy)

    def test_fifo_grants_in_arrival_order(self):
        sim, scheduler = self.make_scheduler(1, AdmissionPolicy.FIFO)
        first = scheduler.request("slow", predicted_cost_seconds=9.0)
        second = scheduler.request("fast", predicted_cost_seconds=1.0)
        third = scheduler.request("mid", predicted_cost_seconds=5.0)
        sim.run()
        assert first.admitted and not second.admitted and not third.admitted
        scheduler.release(first)
        sim.run()
        assert second.admitted and not third.admitted

    def test_sjf_grants_cheapest_first(self):
        sim, scheduler = self.make_scheduler(1, AdmissionPolicy.SHORTEST_JOB_FIRST)
        first = scheduler.request("slow", predicted_cost_seconds=9.0)
        second = scheduler.request("mid", predicted_cost_seconds=5.0)
        third = scheduler.request("fast", predicted_cost_seconds=1.0)
        sim.run()
        assert first.admitted  # the slot was free on arrival
        scheduler.release(first)
        sim.run()
        assert third.admitted and not second.admitted
        assert scheduler.peak_queue_depth == 2

    def test_unpredicted_jobs_go_last_under_sjf(self):
        sim, scheduler = self.make_scheduler(1, AdmissionPolicy.SHORTEST_JOB_FIRST)
        blocker = scheduler.request("blocker")
        unknown = scheduler.request("unknown", predicted_cost_seconds=None)
        cheap = scheduler.request("cheap", predicted_cost_seconds=0.5)
        sim.run()
        scheduler.release(blocker)
        sim.run()
        assert cheap.admitted and not unknown.admitted

    def test_slot_pool_bounds_concurrency(self):
        slots = ExecutorSlots(2)
        assert slots.try_acquire() and slots.try_acquire()
        assert not slots.try_acquire()
        slots.release()
        assert slots.try_acquire()
        assert slots.peak_in_use == 2
        with pytest.raises(ValueError):
            ExecutorSlots(0)

    def test_engine_respects_slot_bound(self):
        engine = MultiTenantEngine(
            make_tenant_database(), fair_queueing="drr", executor_slots=2
        )
        report = engine.run(mixed_traffic(point_count=5, bulk_count=1, seed=1))
        assert report.error_count == 0
        assert engine.slots.peak_in_use <= 2
        assert report.peak_admission_queue >= 1
        assert report.mean_admission_wait_seconds > 0.0
        for record in report.records:
            assert record.admitted_at >= record.arrived_at
            assert record.metrics.admission_wait_seconds == pytest.approx(
                record.admission_wait_seconds
            )


class TestTenantIsolation:
    def test_per_tenant_statistics_stores_are_separate(self):
        engine = MultiTenantEngine(
            make_tenant_database(),
            fair_queueing="drr",
            per_tenant_statistics=True,
        )
        db = engine.db
        before = db.statistics.queries_observed
        report = engine.run(
            [
                SessionWorkload(tenant_id="alpha", queries=[point_query_spec()], repeat=2),
                SessionWorkload(tenant_id="beta", queries=[bulk_query_spec()]),
            ]
        )
        assert report.error_count == 0
        stats = engine.tenant_statistics
        assert stats.tenant_ids == ["alpha", "beta"]
        assert stats.for_tenant("alpha").queries_observed == 2
        assert stats.for_tenant("beta").queries_observed == 1
        # The database-wide store saw none of the tenant traffic.
        assert db.statistics.queries_observed == before
        assert stats.for_tenant("alpha") is not stats.for_tenant("beta")
        # Whom a query runs for and where it learns ride on its execution
        # context; ``execute`` has no keywords for them.
        assert not {"statistics", "observer", "session"} & set(
            inspect.signature(Database.execute).parameters
        )

    def test_session_metrics_aggregate_per_session(self):
        engine = MultiTenantEngine(make_tenant_database(), fair_queueing="fifo")
        engine.run(
            [SessionWorkload(tenant_id="alpha", queries=[point_query_spec()], repeat=3)]
        )
        (session,) = engine.sessions
        assert session.tenant_id == "alpha"
        assert session.metrics.queries == 3
        assert len(session.metrics.latencies) == 3
        assert session.metrics.total_bytes > 0
        assert session.metrics.latency_percentile(0.99) >= session.metrics.latency_percentile(0.5)
        assert "3 queries" in session.metrics.summary()
        metrics = engine._records[0].metrics
        assert metrics.tenant_id == "alpha"
        assert metrics.session_id == "alpha-s0"


class TestMetricsSurface:
    #: Every flat name the benchmarks, examples and tests read off a result.
    NAMES = (
        "downlink_bytes uplink_bytes downlink_messages uplink_messages rows_returned "
        "elapsed_seconds remote_operations input_rows send_stall_seconds "
        "peak_in_flight_batches udf_invocations client_cache_hits client_compute_seconds "
        "converged_batch_size strategy_switches replan_attempts plan_migrations total_bytes "
        "index_lookups index_pages_read buffer_hits buffer_misses buffer_accesses"
    ).split()

    def test_every_name_resolves_on_every_engine(self):
        from repro.workloads.sharding import FILTER_SQL, make_sharded_setup

        engine = MultiTenantEngine(make_tenant_database(), fair_queueing="drr")
        report = engine.run([SessionWorkload(tenant_id="a", queries=[point_query_spec()])])
        _, dist = make_sharded_setup(sites=2, shards=2, rows=12, series_points=6)
        for metrics in (
            make_tenant_database().execute(POINT_SQL).metrics,
            report.records[0].metrics,
            dist.execute(FILTER_SQL).metrics,
        ):
            for name in self.NAMES:
                assert getattr(metrics, name) is None or getattr(metrics, name) >= 0, name
            assert metrics.total_bytes == metrics.downlink_bytes + metrics.uplink_bytes > 0
            assert metrics.udf_invocations > 0 and metrics.input_rows > 0
            assert f"downlink {metrics.downlink_bytes} B" in metrics.summary()


class TestOpenLoop:
    def test_poisson_arrivals_are_seeded_and_spread(self):
        engine = MultiTenantEngine(make_tenant_database(), fair_queueing="drr")
        report = engine.run(poisson_point_arrivals(2, rate_per_second=3.0, seed=11))
        assert report.error_count == 0
        arrivals = sorted(record.arrived_at for record in report.records)
        assert len(arrivals) == 6
        assert len(set(arrivals)) == 6  # exponential gaps, no collisions
        engine2 = MultiTenantEngine(make_tenant_database(), fair_queueing="drr")
        report2 = engine2.run(poisson_point_arrivals(2, rate_per_second=3.0, seed=11))
        assert [r.arrived_at for r in report2.records] == [
            r.arrived_at for r in report.records
        ]

    def test_open_loop_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            OpenLoopWorkload(tenant_id="x", queries=[], arrival_rate_per_second=0.0)


class TestFailureHandling:
    def test_failed_query_recorded_not_fatal(self):
        engine = MultiTenantEngine(make_tenant_database(), fair_queueing="drr")
        report = engine.run(
            [
                SessionWorkload(
                    tenant_id="a",
                    queries=[QuerySpec("SELECT Nope.x FROM Nope"), point_query_spec()],
                )
            ]
        )
        assert report.query_count == 2
        assert report.error_count == 1
        assert report.records[0].error is not None
        assert report.records[1].succeeded

    def test_empty_run(self):
        engine = MultiTenantEngine(make_tenant_database())
        report = engine.run([])
        assert report.query_count == 0
        assert report.summary()


class TestReportMath:
    def test_percentile_nearest_rank(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 0.5) == 3.0
        assert percentile(values, 1.0) == 5.0
        assert percentile([], 0.5) == 0.0
        with pytest.raises(ValueError):
            percentile(values, 1.5)


class TestContentionAwareAdaptation:
    def test_achieved_bandwidth_folds_in_queueing(self):
        observation = LinkObservation(
            name="l",
            total_bytes=1000,
            payload_bytes=900,
            message_count=10,
            data_message_count=10,
            rows_transferred=10,
            busy_seconds=1.0,
            queueing_seconds=3.0,
        )
        assert observation.effective_bandwidth == pytest.approx(1000.0)
        assert observation.achieved_bandwidth == pytest.approx(250.0)

    def test_tenant_statistics_contention_aware_flag_propagates(self):
        stats = TenantStatistics(contention_aware=True)
        assert stats.for_tenant("t").contention_aware is True

    def test_collapse_backoff_steps_down_immediately(self):
        def run(collapse_backoff):
            controller = BatchSizeController(
                initial_batch_size=16,
                window_batches=1,
                window_rows=1,
                collapse_backoff=collapse_backoff,
            )
            # Seed remembered estimates as if the climber had already settled
            # at 16; the first measured window then runs an order of magnitude
            # slower — a collapse.
            controller._throughput = {8: 50.0, 16: 1000.0, 32: 40.0}
            controller.observe_rows(16, 0.0)
            controller.observe_rows(16, 1.0)  # 16 rows/s << 500 rows/s
            return controller

        steady = run(collapse_backoff=False)
        backoff = run(collapse_backoff=True)
        assert steady.collapse_count == 1
        assert backoff.collapse_count == 1
        # The backoff variant immediately steps one rung down...
        assert backoff.current() == 8
        assert backoff.decisions[-1].next_batch_size == 8
        # ...while the default keeps probing from the collapsed size.
        assert steady.current() != 8
