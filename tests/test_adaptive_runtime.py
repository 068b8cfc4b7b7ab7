"""Tests for the adaptive runtime subsystem (observe → calibrate → adapt)."""

import pytest

from repro.adaptive import (
    BatchControllerBank,
    BatchSizeController,
    RuntimeObserver,
    StatisticsStore,
)
from repro.core.strategies import ExecutionStrategy, StrategyConfig
from repro.network.link import Link
from repro.network.message import Message, MessageKind
from repro.network.simulator import Simulator
from repro.network.topology import NetworkConfig
from repro.relational.types import FLOAT, INTEGER
from repro.server.engine import Database
from repro.workloads.drift import drifting_bandwidth_network, fading_uplink_scenario
from repro.workloads.experiments import run_workload_point
from repro.workloads.synthetic import SyntheticWorkload


# ---------------------------------------------------------------------------
# BatchSizeController
# ---------------------------------------------------------------------------


def feed_windows(controller, throughput_of, windows=40, rows_per_batch=None):
    """Drive the controller with synthetic observations.

    ``throughput_of(batch_size)`` gives the simulated rows/second; each
    observation reports one batch of the controller's current size.
    """
    now = 0.0
    for _ in range(windows):
        size = controller.current()
        rows = rows_per_batch or size
        now += rows / throughput_of(size)
        controller.observe_rows(rows, now)
    return now


class TestBatchSizeController:
    def test_validation(self):
        with pytest.raises(ValueError):
            BatchSizeController(min_batch_size=0)
        with pytest.raises(ValueError):
            BatchSizeController(min_batch_size=8, max_batch_size=4)
        with pytest.raises(ValueError):
            BatchSizeController(smoothing=0.0)

    def test_climbs_to_larger_batches_when_throughput_rises(self):
        controller = BatchSizeController(initial_batch_size=4, max_batch_size=128)
        # Bigger batches amortise a fixed per-message overhead: throughput
        # strictly increases with size.
        feed_windows(controller, lambda size: 100.0 * size / (size + 4), windows=60)
        assert controller.current() >= 64
        assert controller.converged_batch_size >= 64

    def test_climbs_down_when_small_batches_win(self):
        controller = BatchSizeController(initial_batch_size=64, min_batch_size=1)
        feed_windows(controller, lambda size: 100.0 / size, windows=60)
        assert controller.current() <= 2

    def test_respects_bounds(self):
        controller = BatchSizeController(
            initial_batch_size=8, min_batch_size=2, max_batch_size=32
        )
        feed_windows(controller, lambda size: float(size), windows=60)
        assert controller.current() <= 32
        controller = BatchSizeController(
            initial_batch_size=8, min_batch_size=2, max_batch_size=32
        )
        feed_windows(controller, lambda size: 1.0 / size, windows=60)
        assert controller.current() >= 2

    def test_finds_interior_optimum(self):
        controller = BatchSizeController(initial_batch_size=1, max_batch_size=256)
        # Throughput peaks at 16: overhead amortisation vs. lost overlap.
        feed_windows(
            controller,
            lambda size: 100.0 * size / (size + 4) * (1.0 / (1.0 + size / 32.0)),
            windows=80,
        )
        assert controller.converged_batch_size in (8, 16, 32)

    def test_collapse_resets_estimates_and_readapts(self):
        controller = BatchSizeController(initial_batch_size=4, max_batch_size=256)
        now = feed_windows(controller, lambda size: 100.0 * size / (size + 4), windows=40)
        before_drift = controller.current()
        assert before_drift >= 64
        # The link collapses: every batch now takes 10x longer, and small
        # batches suddenly win.  The controller must notice and re-explore.
        def after_drift(size):
            return 2.0 / size

        for _ in range(60):
            size = controller.current()
            now += size / after_drift(size)
            controller.observe_rows(size, now)
        assert controller.current() < before_drift

    def test_reprobe_after_stability(self):
        controller = BatchSizeController(
            initial_batch_size=8, max_batch_size=32, reprobe_after=3
        )
        feed_windows(controller, lambda size: 100.0 * size / (size + 4), windows=80)
        sizes = {decision.batch_size for decision in controller.decisions[-20:]}
        # The settled controller still probes neighbours now and then.
        assert len(sizes) >= 2

    def test_first_observation_only_sets_baseline(self):
        controller = BatchSizeController()
        controller.observe_rows(10, 1.0)
        assert not controller.decisions
        assert controller.rows_observed == 10

    def test_an_empty_or_earlier_reply_moves_nothing(self):
        """A reply of no rows is not a batch, and a reply stamped before the
        last one measures no elapsed time: neither counts toward a window."""
        controller = BatchSizeController()
        controller.observe_rows(0, 1.0)
        assert (controller.rows_observed, controller.batches_observed) == (0, 0)
        controller.observe_rows(10, 2.0)
        controller.observe_rows(10, 1.5)
        assert (controller.rows_observed, controller.batches_observed) == (20, 2)
        assert controller._window_batch_count == 0

    def test_size_trace_records_moves(self):
        controller = BatchSizeController(initial_batch_size=4)
        feed_windows(controller, lambda size: float(size), windows=30)
        trace = controller.size_trace()
        assert trace[0] == 4
        assert trace[1] > trace[0]  # the first move climbs on this feed
        assert max(trace) >= 64

    def test_collapse_counter_counts_resets(self):
        controller = BatchSizeController(initial_batch_size=8)
        now = feed_windows(controller, lambda size: 100.0 * size / (size + 4), windows=30)
        assert controller.collapse_count == 0
        for _ in range(20):
            size = controller.current()
            now += size / (0.5 / size)  # every batch suddenly takes ~2 s/row
            controller.observe_rows(size, now)
        assert controller.collapse_count >= 1

    def test_collapse_forgets_stale_estimates_and_probes_from_the_collapsed_size(self):
        controller = BatchSizeController(initial_batch_size=16, window_batches=1, window_rows=1)
        # Seed remembered estimates as if the climber had already settled at
        # 16; the first measured window then runs an order of magnitude
        # slower — a collapse.
        controller._throughput = {8: 50.0, 16: 1000.0, 32: 40.0}
        controller.observe_rows(16, 0.0)
        controller.observe_rows(16, 1.0)  # 16 rows/s << 500 rows/s
        assert controller.collapse_count == 1
        # Only the collapsed window's own measurement survives the reset...
        assert set(controller._throughput) == {16}
        # ...and the climber probes on from there instead of stepping down
        # to the stale winner below it.
        assert controller.decisions[-1].batch_size == 16
        assert controller.current() != 8


# ---------------------------------------------------------------------------
# Per-UDF controller bank
# ---------------------------------------------------------------------------


class TestBatchControllerBank:
    def test_lazy_creation_and_case_insensitive_keys(self):
        created = []

        def factory(name):
            created.append(name)
            return BatchSizeController(initial_batch_size=4)

        bank = BatchControllerBank(factory)
        first = bank.controller_for("Analyze")
        assert bank.controller_for("ANALYZE") is first
        assert created == ["analyze"]
        assert bank.controller_for("Other") is not first

    def test_one_udfs_drift_does_not_reset_anothers_ladder(self):
        """The satellite property: per-UDF ladders are independent."""
        bank = BatchControllerBank()
        a = bank.controller_for("A")
        b = bank.controller_for("B")
        feed_windows(a, lambda size: 100.0 * size / (size + 4), windows=40)
        feed_windows(b, lambda size: 100.0 * size / (size + 4), windows=40)
        b_converged = b.converged_batch_size
        b_estimate = b.throughput_estimate(b_converged)
        assert b_estimate is not None

        # A's link collapses violently; B sees nothing.
        now = 10_000.0
        for _ in range(20):
            size = a.current()
            now += size / (0.5 / size)
            a.observe_rows(size, now)
        assert a.collapse_count >= 1
        # B's ladder, estimates, and convergence are untouched.
        assert b.collapse_count == 0
        assert b.converged_batch_size == b_converged
        assert b.throughput_estimate(b_converged) == b_estimate

    def test_aggregate_protocol_matches_dominant_controller(self):
        bank = BatchControllerBank()
        big = bank.controller_for("big")
        small = bank.controller_for("small")
        feed_windows(big, lambda size: 100.0 * size / (size + 4), windows=40)
        feed_windows(small, lambda size: 100.0 / size, windows=10, rows_per_batch=2)
        assert bank.batches_observed == big.batches_observed + small.batches_observed
        assert bank.converged_batch_size == big.converged_batch_size
        sizes = bank.converged_sizes()
        assert set(sizes) == {"big", "small"}
        assert bank.size_trace()[: len(big.size_trace())] == big.size_trace()

    def test_empty_bank_aggregates_are_sane(self):
        bank = BatchControllerBank()
        assert bank.batches_observed == 0
        assert bank.converged_sizes() == {}
        assert bank.size_trace() == ()
        assert bank.converged_batch_size >= 1


# ---------------------------------------------------------------------------
# StrategyConfig: controller plumbing
# ---------------------------------------------------------------------------


class TestStrategyConfigBatching:
    def test_a_plain_controller_governs_every_udf_and_replace_keeps_equality(self):
        controller = BatchSizeController(initial_batch_size=16)
        config = StrategyConfig(batch_size=2).with_batch_controller(controller)
        for name in ("Score", "SCORE", None):
            assert config.controller_for(name) is controller
            assert config.next_batch_size(name) == 16
        again = config.with_batch_size(4).with_batch_size(2)
        assert again == config and hash(again) == hash(config)

    def test_without_a_controller_every_udf_batches_at_batch_size(self):
        config = StrategyConfig(batch_size=7)
        for name in ("Score", "SCORE", None):
            assert config.controller_for(name) is None
            assert config.next_batch_size(name) == 7

    def test_controller_excluded_from_equality(self):
        config = StrategyConfig(batch_size=4)
        assert config.with_batch_controller(BatchSizeController()) == config

    @pytest.mark.parametrize(
        "make_config",
        [StrategyConfig.naive, StrategyConfig.semi_join, StrategyConfig.client_site_join],
        ids=["naive", "semi_join", "client_site_join"],
    )
    def test_batch_size_honoured_on_the_wire(self, make_config, asymmetric_network):
        """All three strategies ship at ``batch_size`` — the semi-join's
        pipeline is sized from the same value it batches at."""

        def run(batch_size):
            workload = SyntheticWorkload(row_count=60, input_record_bytes=40, result_bytes=16)
            return run_workload_point(workload, asymmetric_network, make_config(batch_size=batch_size))

        single, batched = run(1), run(20)
        assert batched.result_rows == single.result_rows
        # 60 rows at 20 rows/message is far fewer frames than tuple-at-a-time.
        assert batched.downlink_messages < single.downlink_messages / 4

    def test_adaptive_execution_matches_static_results(self, asymmetric_network):
        for make_config in (
            StrategyConfig.naive,
            StrategyConfig.semi_join,
            StrategyConfig.client_site_join,
        ):
            static = run_workload_point(
                SyntheticWorkload(row_count=80), asymmetric_network, make_config()
            )
            controller = BatchSizeController()
            adaptive = run_workload_point(
                SyntheticWorkload(row_count=80),
                asymmetric_network,
                make_config().with_batch_controller(controller),
            )
            assert adaptive.result_rows == static.result_rows
            assert controller.rows_observed > 0


# ---------------------------------------------------------------------------
# Drifting links
# ---------------------------------------------------------------------------


class TestBandwidthDrift:
    def test_link_bandwidth_schedule(self):
        sim = Simulator()
        link = Link(
            sim,
            "l",
            bandwidth_bytes_per_sec=1000.0,
            bandwidth_schedule=[(10.0, 100.0), (5.0, 500.0)],
        )
        assert link.bandwidth_at(0.0) == 1000.0
        assert link.bandwidth_at(5.0) == 500.0
        assert link.bandwidth_at(10.0) == 100.0


        def serialised_at(start):
            yield sim.timeout(start - sim.now)
            yield link.send(Message(MessageKind.RECORDS, None, payload_bytes=984))  # 1000 wire bytes
            return sim.now - start

        # Through the send path: the bandwidth in effect when serialisation starts.
        assert sim.run_process(serialised_at(0.0)) == pytest.approx(1.0)
        assert sim.run_process(serialised_at(12.0)) == pytest.approx(10.0)

    def test_invalid_schedule_rejected(self):
        sim = Simulator()
        with pytest.raises(Exception):
            Link(sim, "l", 100.0, bandwidth_schedule=[(1.0, 0.0)])
        with pytest.raises(ValueError):
            NetworkConfig(100.0, 100.0, downlink_schedule=((1.0, -5.0),))

    def test_network_config_drift_builds_scheduled_channel(self):
        base = NetworkConfig.symmetric(1000.0, latency=0.0, name="base")
        drifting = drifting_bandwidth_network(base, drift_at_seconds=2.0, uplink_factor=0.1)
        assert drifting.drifts
        assert not base.drifts
        sim = Simulator()
        channel = drifting.build_channel(sim)
        assert channel.uplink.bandwidth_at(0.0) == pytest.approx(1000.0)
        assert channel.uplink.bandwidth_at(3.0) == pytest.approx(100.0)
        assert channel.downlink.bandwidth_at(3.0) == pytest.approx(1000.0)

    def test_drift_slows_execution_and_observation_sees_it(self):
        stable = NetworkConfig.paper_asymmetric(asymmetry=100.0)
        drifting = fading_uplink_scenario(drift_at_seconds=0.1, fade_factor=0.1)
        workload = dict(row_count=120, input_record_bytes=16, result_bytes=8)
        fast = run_workload_point(
            SyntheticWorkload(**workload), stable, StrategyConfig.semi_join(batch_size=16)
        )
        slow = run_workload_point(
            SyntheticWorkload(**workload), drifting, StrategyConfig.semi_join(batch_size=16)
        )
        assert slow.elapsed_seconds > fast.elapsed_seconds


# ---------------------------------------------------------------------------
# Observer and statistics store
# ---------------------------------------------------------------------------


class TestObservationAndStore:
    def make_db(self, network=None, **udf_kwargs):
        db = Database(network=network or NetworkConfig.paper_asymmetric(asymmetry=100.0))
        db.create_table(
            "T", [("K", INTEGER), ("V", FLOAT)], rows=[[i, float(i)] for i in range(100)]
        )
        kwargs = dict(cost_per_call_seconds=0.0005, selectivity=0.5)
        kwargs.update(udf_kwargs)
        db.register_client_udf("Score", lambda v: v * 2.0, **kwargs)
        return db

    def test_execute_records_observation(self):
        db = self.make_db()
        result = db.execute(
            "SELECT T.K FROM T WHERE Score(T.V) > 50", config=StrategyConfig.semi_join()
        )
        assert result.observation is not None
        assert db.statistics.queries_observed == 1
        observation = result.observation
        assert observation.downlink.effective_bandwidth == pytest.approx(
            db.network.downlink_bandwidth, rel=1e-6
        )
        assert "Score" in observation.udfs
        assert observation.udfs["Score"].invocations == 100

    def test_observe_false_skips_feedback(self):
        db = self.make_db()
        result = db.execute(
            "SELECT T.K FROM T WHERE Score(T.V) > 50",
            config=StrategyConfig.semi_join(),
            observe=False,
        )
        assert result.observation is None
        assert db.statistics.queries_observed == 0

    def test_measured_udf_cost_calibrates_planner(self):
        db = self.make_db(cost_per_call_seconds=0.0001, actual_cost_per_call_seconds=0.004)
        db.execute("SELECT T.K FROM T WHERE Score(T.V) > 50", config=StrategyConfig.semi_join())
        assert db.statistics.udf_cost("Score", 0.0) == pytest.approx(0.004)
        # The calibrated estimator charges the measured cost, so its estimate
        # exceeds the one planned from the (10x too cheap) declaration.
        from repro.core.optimizer import Optimizer

        bound = db.bind("SELECT T.K FROM T WHERE Score(T.V) > 50")
        declared = Optimizer(db.network).optimize(bound).estimated_cost
        calibrated = Optimizer(db.network, statistics=db.statistics).optimize(bound).estimated_cost
        assert calibrated > declared

    def test_client_site_join_observes_selectivity(self):
        db = self.make_db()
        db.execute(
            "SELECT T.K FROM T WHERE Score(T.V) >= 100",  # passes for V >= 50: S = 0.5
            config=StrategyConfig.client_site_join(),
        )
        observed = db.statistics.udf_selectivity("Score", -1.0)
        assert observed == pytest.approx(0.5, abs=0.02)

    def test_calibrated_network_reflects_observed_bandwidth(self):
        base = NetworkConfig.symmetric(10_000.0, latency=0.01, name="believed")
        # The link actually runs at a tenth of the configured bandwidth from t=0.
        lying = base.with_drift(
            downlink_schedule=((0.0, 1_000.0),), uplink_schedule=((0.0, 1_000.0),)
        )
        db = self.make_db(network=lying)
        db.execute("SELECT T.K FROM T WHERE Score(T.V) > 50", config=StrategyConfig.semi_join())
        calibrated = db.statistics.calibrated_network(base)
        assert calibrated.downlink_bandwidth == pytest.approx(1_000.0, rel=0.01)
        assert calibrated.uplink_bandwidth == pytest.approx(1_000.0, rel=0.01)
        assert calibrated.name.endswith("+observed")

    def test_store_blends_with_ewma(self):
        store = StatisticsStore(smoothing=0.5)
        observer = RuntimeObserver(store)
        assert observer.store is store
        from repro.adaptive.observer import QueryObservation, UdfObservation

        for cost in (0.001, 0.003):
            store.record(
                QueryObservation(
                    elapsed_seconds=1.0,
                    udfs={
                        "F": UdfObservation(
                            name="F",
                            invocations=10,
                            compute_seconds=cost * 10,
                            input_rows=10,
                            output_rows=10,
                            distinct_arguments=10,
                        )
                    },
                )
            )
        assert store.udf_cost("f", 0.0) == pytest.approx(0.002)
        assert store.udf_cost("unknown", 42.0) == 42.0

    def test_adaptive_execution_feeds_preferred_batch_size(self):
        db = self.make_db()
        first = db.execute(
            "SELECT T.K FROM T WHERE Score(T.V) > 50",
            config=StrategyConfig.semi_join(),
            adaptive=True,
        )
        assert first.metrics.converged_batch_size is not None
        assert first.metrics.batch_size_trace
        preferred = db.statistics.preferred_batch_size()
        assert preferred is not None
        # The next adaptive query warm-starts at the learned size.
        controller = db.new_controller_bank().controller_for("Score")
        assert controller.current() == preferred

    def test_adaptive_rows_match_static(self):
        db = self.make_db()
        static = db.execute(
            "SELECT T.K FROM T WHERE Score(T.V) > 50", config=StrategyConfig.semi_join()
        )
        adaptive = db.execute(
            "SELECT T.K FROM T WHERE Score(T.V) > 50",
            config=StrategyConfig.semi_join(),
            adaptive=True,
        )
        assert adaptive.row_set() == static.row_set()

    def test_observed_selectivity_not_applied_to_predicate_free_use(self):
        db = self.make_db()
        # Observe Score's predicate selectivity (~0.5) through a CSJ query ...
        db.execute(
            "SELECT T.K FROM T WHERE Score(T.V) >= 100",
            config=StrategyConfig.client_site_join(),
        )
        assert db.statistics.udf_selectivity("Score", -1.0) == pytest.approx(0.5, abs=0.02)
        # ... then plan a query that merely *computes* Score: every row
        # survives, so the calibrated estimator must not shrink cardinality.
        from repro.core.optimizer import CostEstimator, operations_for_query

        bound = db.bind("SELECT Score(T.V) FROM T")
        _, udfs = operations_for_query(bound)
        assert not udfs[0].has_predicate
        estimator = CostEstimator(db.network, bound, statistics=db.statistics)
        scan = estimator.scan(operations_for_query(bound)[0][0])
        plan = estimator.udf_variants(scan, udfs[0])[0]
        assert plan.cardinality == pytest.approx(scan.cardinality)

    def test_observed_filter_selectivity_calibrates_table_operations(self):
        db = self.make_db()
        # The server-side filter passes 30 of 100 rows; the declared estimate
        # for an inequality is the generic default, not 0.3.
        db.execute(
            "SELECT T.K FROM T WHERE T.V < 30 AND Score(T.V) > 0",
            config=StrategyConfig.semi_join(),
        )
        bound = db.bind("SELECT T.K FROM T WHERE T.V < 30 AND Score(T.V) > 0")
        from repro.core.optimizer import operations_for_query

        declared_tables, _ = operations_for_query(bound)
        observed_tables, _ = operations_for_query(bound, statistics=db.statistics)
        assert observed_tables[0].local_selectivity == pytest.approx(0.3)
        assert observed_tables[0].local_selectivity != declared_tables[0].local_selectivity

    def test_optimize_plans_with_learned_batch_size(self):
        db = self.make_db()
        db.execute(
            "SELECT T.K FROM T WHERE Score(T.V) > 50",
            config=StrategyConfig.semi_join(),
            adaptive=True,
        )
        preferred = db.statistics.preferred_batch_size()
        query = "SELECT T.K FROM T WHERE Score(T.V) > 50"
        explanation = db.explain(query, optimize=True, calibrated=True)
        assert f"batch size {preferred}" in explanation
        # Without opting in, planning ignores the feedback — plain
        # optimize=True runs stay reproducible regardless of prior queries.
        uncalibrated = db.explain(query, optimize=True)
        assert f"batch size {preferred}" not in uncalibrated

    def test_an_equality_over_a_function_call_names_no_column(self):
        """A filter's equality feeds a column's distinct count only when it
        compares a plain column with a literal, not a function's result."""
        from repro.adaptive import RuntimeObserver
        from repro.relational.expressions import ColumnRef, Comparison, FunctionCall, Literal

        column = RuntimeObserver._equality_column
        assert column(Comparison("=", Literal(3), ColumnRef("T.K"))) == "T.K"
        assert column(Comparison("=", FunctionCall("Abs", [ColumnRef("T.K")]), Literal(3))) is None


# ---------------------------------------------------------------------------
# Drift paths: collapse-reset on drifting links, per-UDF independence
# ---------------------------------------------------------------------------


class TestDriftPaths:
    def test_collapse_reset_fires_under_with_drift_schedule(self):
        """A NetworkConfig.with_drift fade collapses throughput mid-query and
        the controller discards its (now stale) ladder estimates."""
        drift = fading_uplink_scenario(drift_at_seconds=1.0, fade_factor=0.02)
        # Capped ladder so the controller has settled (and remembers
        # estimates) by the time the fade hits.
        bank = BatchControllerBank(lambda name: BatchSizeController(max_batch_size=64))
        workload = SyntheticWorkload(
            row_count=800, input_record_bytes=16, result_bytes=8, udf_cost_seconds=0.0001
        )
        point = run_workload_point(
            workload, drift, StrategyConfig.semi_join().with_batch_controller(bank)
        )
        controller = bank.controller_for(workload.udf_name)
        assert controller.batches_observed > 0
        assert controller.collapse_count >= 1
        # The same run on the stable base network never collapses.
        stable = NetworkConfig.paper_asymmetric(asymmetry=100.0)
        stable_bank = BatchControllerBank(
            lambda name: BatchSizeController(max_batch_size=64)
        )
        run_workload_point(
            SyntheticWorkload(
                row_count=800, input_record_bytes=16, result_bytes=8, udf_cost_seconds=0.0001
            ),
            stable,
            StrategyConfig.semi_join().with_batch_controller(stable_bank),
        )
        assert stable_bank.controller_for(workload.udf_name).collapse_count == 0
        assert point.rows == 400

    def test_per_udf_controllers_through_database(self):
        """adaptive=True gives each UDF its own ladder and warm start."""
        db = Database(network=NetworkConfig.paper_asymmetric(asymmetry=100.0))
        db.create_table(
            "T", [("K", INTEGER), ("V", FLOAT)], rows=[[i, float(i)] for i in range(100)]
        )
        db.register_client_udf("Score", lambda v: v * 2.0, selectivity=0.9)
        db.register_client_udf("Rank", lambda k: k * 1.0, selectivity=0.9)
        sql = "SELECT T.K FROM T WHERE Score(T.V) > 0 AND Rank(T.K) > 0"
        first = db.execute(sql, config=StrategyConfig.semi_join(), adaptive=True)
        sizes = first.observation.udf_batch_sizes
        assert set(sizes) == {"score", "rank"}
        for name in ("score", "rank"):
            assert db.statistics.preferred_batch_size_for(name) == sizes[name]
        # The next adaptive query warm-starts each UDF at its own size.
        bank = db.new_controller_bank()
        for name in ("score", "rank"):
            assert bank.controller_for(name).current() == sizes[name]
        # A UDF never seen still warm-starts from the plan-wide estimate.
        plan_wide = db.statistics.preferred_batch_size()
        assert bank.controller_for("unseen").current() == plan_wide


# ---------------------------------------------------------------------------
# Observation and store reporting surfaces
# ---------------------------------------------------------------------------


class TestReportingSurfaces:
    def make_observation(self):
        from repro.adaptive.observer import (
            LinkObservation,
            PredicateObservation,
            QueryObservation,
            UdfObservation,
        )

        link = LinkObservation(
            name="down",
            total_bytes=4000,
            payload_bytes=3200,
            message_count=4,
            data_message_count=2,
            rows_transferred=20,
            busy_seconds=2.0,
            queueing_seconds=0.4,
        )
        udf = UdfObservation(
            name="F",
            invocations=10,
            compute_seconds=0.02,
            input_rows=20,
            output_rows=5,
            distinct_arguments=10,
            filtered=True,
            predicate="F_result > 3",
        )
        return QueryObservation(
            elapsed_seconds=1.5,
            downlink=link,
            udfs={"F": udf},
            predicates=(PredicateObservation("T.V < 3", input_rows=10, output_rows=3),),
            converged_batch_size=16,
            udf_batch_sizes={"f": 16},
        )

    def test_link_observation_derived_quantities(self):
        observation = self.make_observation()
        link = observation.downlink
        assert link.effective_bandwidth == pytest.approx(2000.0)
        assert link.rows_per_message == pytest.approx(10.0)
        assert link.mean_queueing_seconds == pytest.approx(0.1)
        from repro.adaptive.observer import LinkObservation

        idle = LinkObservation("idle", 0, 0, 0, 0, 0, 0.0, 0.0)
        assert idle.effective_bandwidth is None
        assert idle.rows_per_message == 0.0
        assert idle.mean_queueing_seconds == 0.0

    def test_udf_observation_derived_quantities(self):
        udf = self.make_observation().udfs["F"]
        assert udf.measured_cost_per_call == pytest.approx(0.002)
        assert udf.observed_selectivity == pytest.approx(0.25)
        assert udf.observed_distinct_fraction == pytest.approx(0.5)
        from repro.adaptive.observer import UdfObservation

        empty = UdfObservation("G", 0, 0.0, 0, 0, 0)
        assert empty.measured_cost_per_call is None
        assert empty.observed_selectivity is None  # not filtered
        assert empty.observed_distinct_fraction is None

    def test_predicate_observation_selectivity(self):
        from repro.adaptive.observer import PredicateObservation

        assert PredicateObservation("p", 10, 3).observed_selectivity == pytest.approx(0.3)
        assert PredicateObservation("p", 0, 0).observed_selectivity is None

    def test_query_observation_summary_mentions_everything(self):
        text = self.make_observation().summary()
        assert "elapsed 1.500s" in text
        assert "down ~2000 B/s" in text
        assert "udf F" in text
        assert "selectivity 0.25" in text
        assert "batch size -> 16" in text

    def test_store_summary_and_repr(self):
        from dataclasses import replace

        store = StatisticsStore(smoothing=1.0)
        observation = self.make_observation()
        store.record(replace(observation, uplink=replace(observation.downlink, name="up")))
        text = store.summary()
        assert "statistics over 1 queries" in text
        assert "downlink ~2000 B/s" in text and "uplink ~2000 B/s" in text
        assert "udf f" in text
        assert "[F_result > 3] 0.25" in text
        assert "preferred batch size 16" in text
        assert "queries=1" in repr(store)
        assert store.preferred_batch_size_for("f") == 16
        assert store.predicate_selectivity("T.V < 3", 1.0) == pytest.approx(0.3)

    def test_store_validation_and_calibration_defaults(self):
        with pytest.raises(ValueError):
            StatisticsStore(smoothing=0.0)
        store = StatisticsStore()
        base = NetworkConfig.symmetric(1000.0, name="base")
        assert store.calibrated_network(base) is base  # nothing observed yet
        from repro.core.optimizer.cost import CostSettings

        settings = CostSettings()
        assert store.calibrated_cost_settings(settings) is settings
        store.record(self.make_observation())
        calibrated = store.calibrated_cost_settings(settings)
        assert calibrated.batch_size == 16.0
        # An explicitly pinned batch size is never overridden.
        pinned = settings.with_batch_size(4.0)
        assert store.calibrated_cost_settings(pinned) is pinned


# ---------------------------------------------------------------------------
# Regression: observed selectivities keyed by (UDF, predicate)
# ---------------------------------------------------------------------------


class TestPredicateKeyedSelectivity:
    def make_db(self):
        db = Database(network=NetworkConfig.paper_asymmetric(asymmetry=100.0))
        db.create_table(
            "T", [("K", INTEGER), ("V", FLOAT)], rows=[[i, float(i)] for i in range(100)]
        )
        db.register_client_udf("Score", lambda v: v * 2.0, selectivity=0.5)
        return db

    def test_different_predicates_do_not_blend(self):
        db = self.make_db()
        # Score(V) >= 100 passes half the rows; Score(V) >= 160 passes 20%.
        db.execute(
            "SELECT T.K FROM T WHERE Score(T.V) >= 100",
            config=StrategyConfig.client_site_join(),
        )
        db.execute(
            "SELECT T.K FROM T WHERE Score(T.V) >= 160",
            config=StrategyConfig.client_site_join(),
        )
        selectivities = db.statistics.udf_selectivities("score")
        assert selectivities["Score_result >= 100"] == pytest.approx(0.5, abs=0.02)
        assert selectivities["Score_result >= 160"] == pytest.approx(0.2, abs=0.02)
        # Exact per-predicate lookups, unblended even after both ran.
        assert db.statistics.udf_selectivity(
            "Score", -1.0, predicate="Score_result >= 100"
        ) == pytest.approx(0.5, abs=0.02)
        assert db.statistics.udf_selectivity(
            "Score", -1.0, predicate="Score_result >= 160"
        ) == pytest.approx(0.2, abs=0.02)
        # An unobserved predicate over the same UDF keeps the declared default.
        assert db.statistics.udf_selectivity(
            "Score", 0.42, predicate="Score_result >= 10"
        ) == 0.42
        # With several predicates on record, a predicate-less lookup refuses
        # to guess (it would blend unrelated filters) and returns the default.
        assert db.statistics.udf_selectivity("Score", 0.42) == 0.42

    def test_single_predicate_legacy_lookup_still_works(self):
        db = self.make_db()
        db.execute(
            "SELECT T.K FROM T WHERE Score(T.V) >= 100",
            config=StrategyConfig.client_site_join(),
        )
        assert db.statistics.udf_selectivity("Score", -1.0) == pytest.approx(0.5, abs=0.02)

    def test_calibrated_estimator_uses_the_matching_predicate(self):
        from repro.core.optimizer import CostEstimator, operations_for_query

        db = self.make_db()
        db.execute(
            "SELECT T.K FROM T WHERE Score(T.V) >= 100",
            config=StrategyConfig.client_site_join(),
        )
        db.execute(
            "SELECT T.K FROM T WHERE Score(T.V) >= 160",
            config=StrategyConfig.client_site_join(),
        )

        def calibrated_cardinality(sql):
            bound = db.bind(sql)
            tables, udfs = operations_for_query(bound)
            estimator = CostEstimator(db.network, bound, statistics=db.statistics)
            scan = estimator.scan(tables[0])
            plan = estimator.udf_variants(scan, udfs[0])[0]
            return plan.cardinality / scan.cardinality

        # Each query's estimate reflects *its own* predicate's observation.
        assert calibrated_cardinality(
            "SELECT T.K FROM T WHERE Score(T.V) >= 100"
        ) == pytest.approx(0.5, abs=0.02)
        assert calibrated_cardinality(
            "SELECT T.K FROM T WHERE Score(T.V) >= 160"
        ) == pytest.approx(0.2, abs=0.02)

    def test_operations_for_query_records_predicate_key(self):
        from repro.core.optimizer import operations_for_query

        db = self.make_db()
        bound = db.bind("SELECT T.K FROM T WHERE Score(T.V) >= 100")
        _, udfs = operations_for_query(bound)
        assert udfs[0].has_predicate
        assert udfs[0].predicate_key == "Score_result >= 100"
        # A predicate-free use records none.
        bound = db.bind("SELECT Score(T.V) FROM T")
        _, udfs = operations_for_query(bound)
        assert not udfs[0].has_predicate
        assert udfs[0].predicate_key is None

    def test_multi_udf_predicate_key_matches_under_default_order(self):
        """A predicate spanning two UDFs: the estimator's credited key equals
        the key the observer records under the default (declaration-order)
        UDF application, so the calibrated lookup hits."""
        from repro.core.optimizer import operations_for_query

        db = self.make_db()
        db.register_client_udf("Rank", lambda k: k * 1.0, selectivity=0.5)
        # Rows are K = V = 0..99: 2V + K >= 150 passes for K >= 50, K < 60
        # cuts that to 10 of 100 rows.
        sql = "SELECT T.K FROM T WHERE Score(T.V) + Rank(T.K) >= 150 AND Rank(T.K) < 60"
        db.execute(sql, config=StrategyConfig.client_site_join())
        _, udfs = operations_for_query(db.bind(sql))
        credited = {u.call.udf.name.lower(): u.predicate_key for u in udfs}
        # Both predicates are credited to the declaration-order-last UDF ...
        assert credited["score"] is None
        assert credited["rank"] is not None
        # ... under exactly the conjoined key the observer recorded, so the
        # calibrated estimator finds the observed selectivity.
        observed = db.statistics.udf_selectivity(
            "rank", -1.0, predicate=credited["rank"]
        )
        assert observed == pytest.approx(0.1, abs=0.02)
