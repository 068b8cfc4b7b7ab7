"""Tests for scatter-gather over sharded/replicated server sites."""

import pytest

from repro.errors import ExecutionError, OptimizerError, PlanError
from repro.adaptive.store import StatisticsStore
from repro.core.execution import ScatterGatherOperator, ShardResult
from repro.core.optimizer import (
    SiteSelectionEnumerator,
    scatter_gather_cost,
    CostSettings,
)
from repro.core.execution.context import ExecutionCounters
from repro.core.strategies import ExecutionStrategy, StrategyConfig
from repro.network.topology import NetworkConfig
from repro.relational.schema import Column, Schema
from repro.relational.table import Table
from repro.relational.types import FLOAT, INTEGER, STRING
from repro.server.engine import Database
from repro.distribution import (
    ClusterConfig,
    DistributedDatabase,
    MigrationPolicy,
    ShardingSpec,
    SiteConfig,
    hash_shard_of,
    shard_table,
)
from repro.workloads.sharding import (
    FILTER_SQL,
    JOIN_SQL,
    SHAPED_SQL,
    make_sharded_setup,
    site_network,
)


def int_string_table(rows):
    schema = Schema([Column("K", INTEGER), Column("Name", STRING)])
    return Table("T", schema, rows=rows)


class TestShardingSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ShardingSpec(table="T", column="K", shards=0)
        with pytest.raises(ValueError):
            ShardingSpec(table="T", column="K", shards=2, replication_factor=0)

    def test_hash_shard_is_deterministic_and_disjoint(self):
        table = int_string_table([[index, f"n{index}"] for index in range(40)])
        spec = ShardingSpec(table="T", column="K", shards=4)
        sharded = shard_table(table, spec)
        assert sharded.shard_count == 4
        assert sharded.total_rows() == 40
        # Integer keys shard by plain modulo.
        for shard, fragment in enumerate(sharded.fragments):
            assert all(row[0] % 4 == shard for row in fragment.rows)
        # Strings hash stably (CRC32, not the salted builtin hash).
        assert hash_shard_of("alpha", 8) == hash_shard_of("alpha", 8)
        assert spec.describe() == "T: 4 shards (hash on K), replication x1"

    def test_unknown_shard_column_raises(self):
        table = int_string_table([[1, "a"]])
        with pytest.raises(PlanError):
            shard_table(table, ShardingSpec(table="T", column="Nope", shards=2))

    def test_fragments_keep_name_and_schema(self):
        table = int_string_table([[index, f"n{index}"] for index in range(8)])
        sharded = shard_table(table, ShardingSpec(table="T", column="K", shards=2))
        for fragment in sharded.fragments:
            assert fragment.name == "T"
            assert fragment.schema.qualified_names() == table.schema.qualified_names()


class TestClusterConfig:
    def _cluster(self, sites=3, shards=3, replication_factor=1):
        return ClusterConfig(
            sites=[
                SiteConfig(f"site{index}", site_network(name=f"s{index}"))
                for index in range(sites)
            ],
            sharding=[
                ShardingSpec(
                    table="T",
                    column="K",
                    shards=shards,
                    replication_factor=replication_factor,
                )
            ],
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(sites=[])
        net = site_network()
        with pytest.raises(ValueError):
            ClusterConfig(sites=[SiteConfig("a", net), SiteConfig("a", net)])
        with pytest.raises(ValueError):
            ClusterConfig(
                sites=[SiteConfig("a", net)],
                sharding=[
                    ShardingSpec(table="T", column="K", shards=2, replication_factor=2)
                ],
            )

    def test_round_robin_replica_placement(self):
        cluster = self._cluster(sites=3, shards=3, replication_factor=2)
        spec = cluster.spec_for("t")
        placement = cluster.placement(spec)
        assert placement[0] == ["site0", "site1"]
        assert placement[1] == ["site1", "site2"]
        assert placement[2] == ["site2", "site0"]
        # Every replica of one shard lands on a distinct site.
        for sites in placement.values():
            assert len(set(sites)) == len(sites)

    def test_lookup_and_describe(self):
        cluster = self._cluster()
        assert cluster.site("site1").name == "site1"
        with pytest.raises(PlanError):
            cluster.site("nope")
        assert cluster.sharded_tables == ["T"]
        assert "shard 0" in cluster.describe()


class TestSiteSelectionEnumerator:
    def test_unreplicated_shards_stay_on_their_site(self):
        costs = {("shard0", "a"): 1.0, ("shard1", "b"): 2.0}
        assignment = SiteSelectionEnumerator(costs).select()
        assert assignment.site_for("shard0") == "a"
        assert assignment.site_for("shard1") == "b"
        assert assignment.makespan == pytest.approx(2.0)

    def test_replicated_shards_balance_across_sites(self):
        # Both shards could run on 'a' cheaply, but piling them up would
        # double a's load; the enumerator spreads them.
        costs = {
            ("shard0", "a"): 1.0,
            ("shard0", "b"): 1.1,
            ("shard1", "a"): 1.0,
            ("shard1", "b"): 1.1,
        }
        assignment = SiteSelectionEnumerator(costs).select()
        assert set(assignment.assignment.values()) == {"a", "b"}
        assert assignment.makespan == pytest.approx(1.1)

    def test_slow_replica_avoided(self):
        costs = {
            ("shard0", "slow"): 10.0,
            ("shard0", "fast"): 1.0,
        }
        assignment = SiteSelectionEnumerator(costs).select()
        assert assignment.site_for("shard0") == "fast"
        assert "shard0 -> fast" in assignment.describe()

    def test_empty_costs_raise(self):
        with pytest.raises(OptimizerError):
            SiteSelectionEnumerator({})


class TestScatterGatherCost:
    def test_max_over_sites_not_sum(self):
        assert scatter_gather_cost([1.0, 3.0, 2.0]) == pytest.approx(3.0)

    def test_merge_rows_charged_at_server_rate(self):
        settings = CostSettings(server_cpu_seconds_per_row=1e-3)
        assert scatter_gather_cost([1.0], merge_rows=100, settings=settings) == (
            pytest.approx(1.1)
        )

    def test_empty_fanout_is_free(self):
        assert scatter_gather_cost([]) == 0.0


class TestScatterGatherOperator:
    SCHEMA = Schema([Column("Name", STRING)])

    def test_merges_streams_and_counts_rows(self):
        def runner(tasks):
            return [
                ShardResult("shard0", self.SCHEMA, [("a",), ("b",)], site="s0"),
                ShardResult("shard1", self.SCHEMA, [("c",)], site="s1"),
            ]

        operator = ScatterGatherOperator(self.SCHEMA, ["t0", "t1"], runner)
        rows = operator.run()
        assert [tuple(row) for row in rows] == [("a",), ("b",), ("c",)]
        assert operator.rows_gathered == 3
        assert "tasks=2" in operator.describe()

    def test_schema_mismatch_is_a_protocol_error(self):
        wrong = Schema([Column("Other", STRING)])

        def runner(tasks):
            return [ShardResult("shard0", wrong, [("x",)])]

        operator = ScatterGatherOperator(self.SCHEMA, ["t0"], runner)
        with pytest.raises(ExecutionError):
            operator.run()

    def test_qualified_names_compare_bare(self):
        qualified = Schema([Column("Name", STRING, table="T")])

        def runner(tasks):
            return [ShardResult("shard0", qualified, [("x",)])]

        operator = ScatterGatherOperator(self.SCHEMA, ["t0"], runner)
        assert [tuple(row) for row in operator.run()] == [("x",)]


class TestDistributedExecution:
    def test_filter_query_matches_single_site(self):
        single, dist = make_sharded_setup(sites=3, shards=3, rows=36, series_points=8)
        base = single.execute(FILTER_SQL, deliver_results=True)
        result = dist.execute(FILTER_SQL)
        assert result.row_set() == base.row_set()
        assert result.metrics.rows_returned == base.metrics.rows_returned

    def test_join_with_replicated_dimension_table(self):
        single, dist = make_sharded_setup(sites=2, shards=4, rows=24, series_points=8)
        base = single.execute(JOIN_SQL, deliver_results=True)
        result = dist.execute(JOIN_SQL)
        assert result.row_set() == base.row_set()

    def test_coordinator_applies_order_by_and_limit_globally(self):
        single, dist = make_sharded_setup(sites=3, shards=3, rows=36, series_points=8)
        base = single.execute(SHAPED_SQL, deliver_results=True)
        result = dist.execute(SHAPED_SQL)
        # Order-sensitive comparison: shard-local ORDER BY/LIMIT would pass
        # row_set() but return the wrong global top-10.
        assert [tuple(row) for row in result.rows] == [tuple(row) for row in base.rows]

    def test_coordinator_orders_each_key_its_own_way(self):
        single, dist = make_sharded_setup(sites=3, shards=3, rows=36, series_points=8)
        sql = "SELECT T.Sector, T.Name FROM Trades T ORDER BY T.Sector DESC, T.Name"
        rows = [tuple(row) for row in dist.execute(sql).rows]
        assert rows == sorted(sorted(rows, key=lambda row: row[1]), key=lambda row: row[0], reverse=True)
        assert rows[0][0] > rows[-1][0] and rows != sorted(rows)  # several sectors: both keys matter
        assert rows == [tuple(row) for row in single.execute(sql, deliver_results=True).rows]

    @pytest.mark.parametrize(
        "strategy",
        [
            ExecutionStrategy.NAIVE,
            ExecutionStrategy.SEMI_JOIN,
            ExecutionStrategy.CLIENT_SITE_JOIN,
        ],
    )
    def test_every_strategy_gathers_the_same_multiset(self, strategy):
        single, dist = make_sharded_setup(sites=2, shards=2, rows=20, series_points=6)
        base = single.execute(FILTER_SQL, strategy=strategy, deliver_results=True)
        result = dist.execute(FILTER_SQL, strategy=strategy)
        assert result.row_set() == base.row_set()

    def test_optimized_per_site_decisions(self):
        single, dist = make_sharded_setup(sites=2, shards=2, rows=20, series_points=6)
        base = single.execute(FILTER_SQL, deliver_results=True)
        result = dist.execute(FILTER_SQL, optimize=True)
        assert result.row_set() == base.row_set()
        assert "cluster plan" in result.plan_text

    def test_unsharded_query_runs_whole_on_cheapest_site(self):
        _, dist = make_sharded_setup(sites=2, shards=2, rows=12, series_points=6)
        result = dist.execute("SELECT S.Sector FROM Sectors S")
        assert len(result.rows) == 4
        plan = dist.planner().plan(dist.bind("SELECT S.Sector FROM Sectors S"))
        assert len(plan.tasks) == 1
        assert plan.sharded_table is None

    def test_two_sharded_tables_in_one_query_rejected(self):
        net = site_network()
        cluster = ClusterConfig(
            sites=[SiteConfig("a", net), SiteConfig("b", net)],
            sharding=[
                ShardingSpec(table="L", column="K", shards=2),
                ShardingSpec(table="R", column="K", shards=2),
            ],
        )
        db = DistributedDatabase(cluster)
        db.create_table("L", [("K", INTEGER)], rows=[[1], [2]])
        db.create_table("R", [("K", INTEGER)], rows=[[1], [2]])
        with pytest.raises(PlanError):
            db.execute("SELECT L.K FROM L, R WHERE L.K = R.K")

    def test_self_join_of_a_sharded_table_rejected(self):
        """Each shard would join its fragment only with itself and lose every
        pair across shards: 6 rows here where a single site returns 12."""
        net = site_network()
        cluster = ClusterConfig(
            sites=[SiteConfig("a", net), SiteConfig("b", net)],
            sharding=[ShardingSpec(table="T", column="K", shards=2)],
        )
        db = DistributedDatabase(cluster)
        db.create_table("T", [("K", INTEGER), ("V", INTEGER)], rows=[[k, k % 3] for k in range(6)])
        with pytest.raises(PlanError, match="T A, T B"):
            db.execute("SELECT A.K, B.K FROM T A, T B WHERE A.V = B.V")

    def test_speedup_grows_with_shard_count(self):
        timings = {}
        for count in (1, 4):
            _, dist = make_sharded_setup(
                sites=count, shards=count, rows=48, series_points=32
            )
            timings[count] = dist.execute(FILTER_SQL).metrics.elapsed_seconds
        assert timings[4] < timings[1]

    def test_colocated_shards_contend_on_the_site_trunk(self):
        # 1 site x 4 shards: every task shares one trunk, so the fan-out
        # cannot beat the single-shard wire time by much.
        _, striped = make_sharded_setup(sites=4, shards=4, rows=48, series_points=32)
        _, piled = make_sharded_setup(sites=1, shards=4, rows=48, series_points=32)
        fast = striped.execute(FILTER_SQL).metrics.elapsed_seconds
        slow = piled.execute(FILTER_SQL).metrics.elapsed_seconds
        assert fast < slow

    def test_per_site_observations_feed_the_store(self):
        store = StatisticsStore()
        _, dist = make_sharded_setup(
            sites=2, shards=2, rows=20, series_points=6, statistics=store
        )
        dist.execute(FILTER_SQL)
        assert set(store.site_ids) == {"site0", "site1"}
        down, up = store.observed_site_bandwidth("site0")
        assert down is not None and down > 0

    def test_metrics_report_what_the_shards_did(self):
        """Regression: the coordinator's fold was written for seven of the
        counters, so the overlap and index counters read 0 whatever the
        shards did.  Shards, workers and coordinator now fold one value."""
        network = NetworkConfig.symmetric(120_000.0, latency=0.01)
        columns = [("Name", STRING), ("V", FLOAT), ("Bucket", INTEGER)]
        rows = [[f"T{i:04d}", float(i % 37), i] for i in range(400)]
        sql = "SELECT T.Name FROM Trades T WHERE Score(T.V) > 30"
        config = StrategyConfig.semi_join(batch_size=8, overlap_window=2)
        single = Database(network=network)
        dist = DistributedDatabase(
            ClusterConfig(
                sites=[SiteConfig(f"site{index}", network) for index in range(4)],
                sharding=[ShardingSpec(table="Trades", column="Bucket", shards=4)],
            )
        )
        for db in (single, dist):
            db.create_table("Trades", columns, rows=rows)
            db.register_client_udf(
                "Score",
                lambda v: v * 2.0,
                result_dtype=FLOAT,
                result_size_bytes=8,
                cost_per_call_seconds=0.0005,
                selectivity=0.5,
            )
        base = single.execute(sql, config=config).metrics
        assert base.peak_in_flight_batches == 2
        assert base.send_stall_seconds == pytest.approx(0.048)

        result = dist.execute(sql, config=config)
        metrics = result.metrics
        assert len(result.rows) == 224
        # A high-water mark is the maximum over shards, stall time their sum.
        assert metrics.peak_in_flight_batches == 2
        assert metrics.send_stall_seconds == pytest.approx(0.192)
        assert metrics.udf_invocations == 148
        assert metrics.input_rows == 400
        assert metrics.remote_operations == 4
        assert (metrics.downlink_bytes, metrics.uplink_bytes) == (3712, 1632)

    def test_index_counters_survive_the_fold(self, tmp_path):
        """No shard plan can use an index yet (fragments live in memory), so
        the indexed case feeds a real indexed run's counters through the same
        ``+`` the shard workers and the coordinator fold with."""
        db = Database(
            network=site_network(),
            storage_dir=str(tmp_path),
            cost_settings=CostSettings(block_access_seconds=0.005),
        )
        db.create_table(
            "T", [("K", INTEGER), ("Name", STRING)], rows=[[i, f"n{i}"] for i in range(400)]
        )
        db.create_index("t_k", "T", "K")
        db.analyze("T")
        indexed = db.execute("SELECT T.Name FROM T WHERE T.K = 7", optimize=True).metrics
        assert indexed.index_lookups == 1 and indexed.index_pages_read > 0
        plain = db.execute("SELECT T.Name FROM T WHERE T.K = 7").metrics
        assert plain.index_lookups == 0

        folded = ExecutionCounters() + indexed.counters + plain.counters + indexed.counters
        assert folded.index_lookups == 2
        assert folded.index_pages_read == 2 * indexed.index_pages_read
        db.close()

    def test_replica_pricing_avoids_the_slow_site(self):
        # site0 is 100x slower than site1 on a transfer-dominated fragment;
        # with full replication every shard has both candidates, and piling
        # both on the fast site still beats touching the slow one.
        _, dist = make_sharded_setup(
            sites=2,
            shards=2,
            replication_factor=2,
            rows=48,
            series_points=64,
            bandwidths=[2_000.0, 200_000.0],
        )
        plan = dist.planner().plan(dist.bind(FILTER_SQL))
        assert {task.site for task in plan.tasks} == {"site1"}


class TestMigration:
    def _setups(self):
        nets = [
            NetworkConfig.symmetric(150_000.0, latency=0.01, name="degrading").with_drift(
                downlink_schedule=((0.001, 2_000.0),),
                uplink_schedule=((0.001, 2_000.0),),
            ),
            site_network(bandwidth=120_000.0, name="healthy"),
        ]
        return [
            make_sharded_setup(
                sites=2,
                shards=1,
                replication_factor=2,
                rows=48,
                series_points=32,
                networks=nets,
            )[1]
            for _ in range(2)
        ]

    def test_migration_beats_staying_on_a_degraded_replica(self):
        stay_db, move_db = self._setups()
        stay = stay_db.execute(FILTER_SQL, segments=4, migrate=False)
        move = move_db.execute(
            FILTER_SQL, segments=4, migration_policy=MigrationPolicy(hysteresis=0.25)
        )
        assert move.row_set() == stay.row_set()
        assert move.metrics.plan_migrations >= 1
        assert move.metrics.elapsed_seconds < stay.metrics.elapsed_seconds

    def test_policy_hysteresis_damps_marginal_switches(self):
        policy = MigrationPolicy(hysteresis=0.5)
        assert not policy.should_migrate(current_estimate=1.0, candidate_estimate=0.8)
        assert policy.should_migrate(current_estimate=1.0, candidate_estimate=0.5)

    def test_policy_without_hysteresis_migrates_on_any_strict_gain(self):
        policy = MigrationPolicy(hysteresis=0.0)
        assert policy.should_migrate(current_estimate=1.0, candidate_estimate=0.99)
        assert not policy.should_migrate(current_estimate=1.0, candidate_estimate=1.0)

    def test_segments_without_migration_still_match(self):
        single, dist = make_sharded_setup(sites=2, shards=2, rows=24, series_points=8)
        base = single.execute(FILTER_SQL, deliver_results=True)
        result = dist.execute(FILTER_SQL, segments=3)
        assert result.row_set() == base.row_set()
