"""``scatter_sharded``: scatter-gather over 1, 4 and 8 shards.

A regression guard for ``distribution`` (cluster planner, scatter-gather,
per-site execution contexts), which re-implements part of
``Database.execute``: a pipeline-unification change must keep it flat.  It
shares ``tenancy.baton`` with ``tenants_mixed`` but uses it as fan-out, not
contention.  ``Trades`` (4000 rows, 64-point series) is hash-sharded on
``Bucket`` with one site per shard; the bulk UDF filter runs with and without
``optimize=True``.  The oracle evaluates the filter in plain Python; the
matched single-site ``Database`` only supplies the speed-up ratio.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

import probes
from metrics import KINDS
from harness import Op, Workload, sample_from_result
from repro.distribution import ClusterConfig, DistributedDatabase, ShardingSpec, SiteConfig
from repro.network.topology import NetworkConfig
from repro.relational.types import FLOAT, INTEGER, STRING, TIME_SERIES, TimeSeries
from repro.server.engine import Database

SHARD_COUNTS = (1, 4, 8)
SITE_BANDWIDTH = 120_000.0
SITE_LATENCY = 0.01
SECTORS = (("energy", 1.25), ("tech", 2.0), ("retail", 0.75), ("bonds", 0.5))


def score(series: TimeSeries) -> float:
    return sum(series) / len(series)


def _site_network(name: str) -> NetworkConfig:
    return NetworkConfig.symmetric(SITE_BANDWIDTH, latency=SITE_LATENCY, name=name)


class ScatterSharded(Workload):
    name = "scatter_sharded"
    kinds = KINDS[name]

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.rows = 120 if smoke else 4000
        self.series_points = 16 if smoke else 64
        self.network = _site_network("site-link")
        rng = random.Random(seed)
        buckets = list(range(self.rows))
        rng.shuffle(buckets)
        self.trades = [
            [
                f"T{index:04d}",
                SECTORS[rng.randrange(len(SECTORS))][0],
                # A few points more or less per row: sizes differ from seed to seed.
                TimeSeries(
                    [
                        round(rng.uniform(5.0, 45.0), 2)
                        for _ in range(self.series_points + rng.randint(-4, 4))
                    ]
                ),
                buckets[index],
            ]
            for index in range(self.rows)
        ]
        scores = sorted(score(row[2]) for row in self.trades)
        threshold = (scores[self.rows // 2 - 1] + scores[self.rows // 2]) / 2.0
        self.sql = f"SELECT T.Name FROM Trades T WHERE Score(T.Series) > {threshold}"
        self.expected = sorted((row[0],) for row in self.trades if score(row[2]) > threshold)
        self.clusters: Dict[int, Any] = {}
        self.single: Any = None

    def config(self) -> Dict[str, Any]:
        return {
            "rows": self.rows,
            "series_points": self.series_points,
            "shard_counts": list(SHARD_COUNTS),
            "ops_per_round": len(self.kinds),
        }

    def _populate(self, db: Any) -> None:
        db.create_table(
            "Trades",
            [("Name", STRING), ("Sector", STRING), ("Series", TIME_SERIES), ("Bucket", INTEGER)],
            rows=self.trades,
        )
        db.create_table("Sectors", [("Sector", STRING), ("Weight", FLOAT)], rows=SECTORS)
        db.register_client_udf(
            "Score",
            score,
            result_dtype=FLOAT,
            result_size_bytes=8,
            cost_per_call_seconds=0.0005,
            selectivity=0.5,
        )

    def setup(self) -> Dict[str, float]:
        self.single = Database(network=_site_network("single-site-link"))
        self._populate(self.single)
        self.clusters = {}
        for count in SHARD_COUNTS:
            cluster = ClusterConfig(
                sites=[
                    SiteConfig(name=f"site{index}", network=_site_network(f"site{index}-link"))
                    for index in range(count)
                ],
                sharding=[ShardingSpec(table="Trades", column="Bucket", shards=count)],
            )
            distributed = DistributedDatabase(cluster)
            self._populate(distributed)
            self.clusters[count] = distributed
        return {}

    def udf_registries(self) -> List[Any]:
        return [cluster.udfs for cluster in self.clusters.values()]

    def round_ops(self) -> List[Op]:
        def verify(result: Any) -> Any:
            sample = sample_from_result(result, self.expected)
            # On a distributed result this field counts replica migrations.
            sample.counters["distribution.migrations"] = sample.counters.pop(
                "adaptive.plan_migrations"
            )
            return sample

        return [
            Op(
                f"s{count}_{'opt' if optimize else 'plain'}",
                lambda count=count, optimize=optimize: self.clusters[count].execute(
                    self.sql, optimize=optimize
                ),
                verify,
            )
            for count in SHARD_COUNTS
            for optimize in (False, True)
        ]

    def layer_metrics(self, traced: Any, spans: Any) -> Dict[str, float]:
        single = self.single.execute(self.sql, deliver_results=True)
        distributed_sim = traced.sim_s_total / len(traced.samples)
        metrics = {
            "distribution.sim_speedup_vs_single": (
                single.metrics.elapsed_seconds / distributed_sim if distributed_sim else 0.0
            ),
            "distribution.migrations": traced.counter("distribution.migrations"),
        }
        handoffs = spans["BatonWorker.await_event"].count
        metrics.update(probes.baton_handoff(handoffs, workers=max(SHARD_COUNTS)))
        series = [(row[2],) for row in self.trades]
        metrics.update(probes.udf_bare_call({"Score": score}, {"Score": series}))
        metrics.update(probes.server_subtree(self.single, [self.sql]))
        return metrics
