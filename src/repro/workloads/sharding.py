"""Canonical sharded scatter-gather scenarios.

Builds matched single-site / distributed setups over the *same* logical
data, so every experiment (and the Hypothesis equivalence sweep) can check
the distributed answer against the single-site ground truth, then measure
what the fan-out buys: a bulk client-site UDF scan whose wire time shrinks
with the shard count, because each site's channel carries only its
fragment.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.adaptive.store import StatisticsStore
from repro.network.topology import NetworkConfig
from repro.relational.types import FLOAT, INTEGER, STRING, TIME_SERIES, TimeSeries
from repro.server.engine import Database
from repro.distribution import (
    ClusterConfig,
    DistributedDatabase,
    ShardingSpec,
    SiteConfig,
)

#: Per-site link: modest enough that shipping a whole fragment dominates.
DEFAULT_SITE_BANDWIDTH = 120_000.0
DEFAULT_LATENCY = 0.01

#: The bulk scan every scenario measures: a client-site UDF over the series.
FILTER_SQL = "SELECT T.Name FROM Trades T WHERE Score(T.Series) > 10"
#: Same scan joined against the replicated dimension table.
JOIN_SQL = (
    "SELECT T.Name, S.Weight FROM Trades T, Sectors S "
    "WHERE T.Sector = S.Sector AND Score(T.Series) > 10"
)
#: Output shaping exercised at the coordinator, not per shard.
SHAPED_SQL = (
    "SELECT T.Name FROM Trades T WHERE Score(T.Series) > 10 "
    "ORDER BY T.Name LIMIT 10"
)


def _score(series) -> float:
    return sum(series) / len(series)


def trade_rows(rows: int, series_points: int = 48) -> List[list]:
    """Deterministic trade rows: names, sectors, series, and a shard key."""
    sectors = ["energy", "tech", "retail", "bonds"]
    return [
        [
            f"T{index:04d}",
            sectors[index % len(sectors)],
            TimeSeries([5 + (index * 7 + step) % 40 for step in range(series_points)]),
            index,
        ]
        for index in range(rows)
    ]


def sector_rows() -> List[list]:
    return [
        ["energy", 1.25],
        ["tech", 2.0],
        ["retail", 0.75],
        ["bonds", 0.5],
    ]


def _populate(db, rows: int, series_points: int) -> None:
    db.create_table(
        "Trades",
        [
            ("Name", STRING),
            ("Sector", STRING),
            ("Series", TIME_SERIES),
            ("Bucket", INTEGER),
        ],
        rows=trade_rows(rows, series_points),
    )
    db.create_table("Sectors", [("Sector", STRING), ("Weight", FLOAT)], rows=sector_rows())
    db.register_client_udf(
        "Score",
        _score,
        result_dtype=FLOAT,
        result_size_bytes=8,
        cost_per_call_seconds=0.0005,
        selectivity=0.5,
    )


def site_network(
    bandwidth: float = DEFAULT_SITE_BANDWIDTH,
    latency: float = DEFAULT_LATENCY,
    name: str = "site-link",
) -> NetworkConfig:
    return NetworkConfig.symmetric(bandwidth, latency=latency, name=name)


def make_cluster(
    sites: int,
    shards: int,
    replication_factor: int = 1,
    bandwidths: Optional[List[float]] = None,
    networks: Optional[List[NetworkConfig]] = None,
) -> ClusterConfig:
    """A cluster of ``sites`` symmetric sites sharding Trades on Bucket."""
    if networks is None:
        networks = [
            site_network(
                bandwidth=(bandwidths[index] if bandwidths else DEFAULT_SITE_BANDWIDTH),
                name=f"site{index}-link",
            )
            for index in range(sites)
        ]
    return ClusterConfig(
        sites=[
            SiteConfig(name=f"site{index}", network=networks[index])
            for index in range(sites)
        ],
        sharding=[
            ShardingSpec(
                table="Trades",
                column="Bucket",
                shards=shards,
                replication_factor=replication_factor,
            )
        ],
    )


def make_sharded_setup(
    sites: int = 4,
    shards: int = 4,
    replication_factor: int = 1,
    rows: int = 96,
    series_points: int = 48,
    bandwidths: Optional[List[float]] = None,
    networks: Optional[List[NetworkConfig]] = None,
    statistics: Optional[StatisticsStore] = None,
) -> Tuple[Database, DistributedDatabase]:
    """Matched (single-site, distributed) databases over identical data.

    The single-site baseline runs behind one site-grade link, so speedups
    measure the fan-out, not a faster network.
    """
    single = Database(
        network=site_network(
            bandwidth=(bandwidths[0] if bandwidths else DEFAULT_SITE_BANDWIDTH),
            name="single-site-link",
        )
    )
    _populate(single, rows, series_points)
    cluster = make_cluster(
        sites,
        shards,
        replication_factor=replication_factor,
        bandwidths=bandwidths,
        networks=networks,
    )
    distributed = DistributedDatabase(cluster, statistics=statistics)
    _populate(distributed, rows, series_points)
    return single, distributed
