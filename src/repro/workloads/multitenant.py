"""Canonical multi-tenant scenarios: mixed point/bulk traffic on one trunk.

The single-query experiments answer "which strategy is fastest for *this*
query"; the multi-tenant scenarios answer the production question the paper
leaves open: what happens when many clients run those strategies *at once*
over one shared connection.  The canonical mix is deliberately adversarial —
a population of cheap point queries sharing the trunk with one or more bulk
client-site-join sessions — because that is where FIFO trunks and unbounded
admission destroy tail latency.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.strategies import ExecutionStrategy
from repro.network.topology import NetworkConfig
from repro.relational.types import FLOAT, STRING, TIME_SERIES, TimeSeries
from repro.server.engine import Database
from repro.tenancy.driver import QuerySpec, SessionWorkload

#: A modest shared trunk: fast enough that point queries are sub-second when
#: alone, slow enough that one bulk session visibly congests it.
DEFAULT_NETWORK = NetworkConfig.symmetric(200_000.0, latency=0.01, name="shared-trunk")


def make_tenant_database(
    network: Optional[NetworkConfig] = None,
    point_rows: int = 24,
    bulk_rows: int = 240,
    point_series: int = 3,
    bulk_series: int = 3,
) -> Database:
    """A database with a small point-query table and a large bulk table.

    Both carry a time-series column analysed by a client-site UDF, so every
    query in the mix exercises the client-site execution strategies over the
    shared trunk.  ``bulk_series`` controls how many observations each
    History row carries (8 bytes each): at a few hundred points per row a
    bulk client-site join ships hundreds of kilobytes and visibly saturates
    the default trunk, which is what the contention benchmarks need.
    """
    db = Database(network=network if network is not None else DEFAULT_NETWORK)
    db.create_table(
        "Quotes",
        [("Name", STRING), ("Series", TIME_SERIES)],
        rows=[
            [
                f"Q{index}",
                TimeSeries([10 + index + step for step in range(point_series)]),
            ]
            for index in range(point_rows)
        ],
    )
    db.create_table(
        "History",
        [("Name", STRING), ("Series", TIME_SERIES)],
        rows=[
            [
                f"H{index}",
                TimeSeries(
                    [5 + (index + step) % 40 for step in range(bulk_series)]
                ),
            ]
            for index in range(bulk_rows)
        ],
    )
    db.register_client_udf(
        "Score",
        lambda series: sum(series) / len(series),
        result_dtype=FLOAT,
        result_size_bytes=8,
        cost_per_call_seconds=0.0005,
        selectivity=0.5,
    )
    return db


POINT_SQL = "SELECT Q.Name FROM Quotes Q WHERE Score(Q.Series) > 15"
BULK_SQL = "SELECT H.Name FROM History H WHERE Score(H.Series) > 10"


def point_query_spec(
    strategy: ExecutionStrategy = ExecutionStrategy.SEMI_JOIN, **options
) -> QuerySpec:
    return QuerySpec(
        POINT_SQL, label="point", options={"strategy": strategy, **options}
    )


def bulk_query_spec(
    strategy: ExecutionStrategy = ExecutionStrategy.CLIENT_SITE_JOIN, **options
) -> QuerySpec:
    return QuerySpec(BULK_SQL, label="bulk", options={"strategy": strategy, **options})


def point_sessions(
    count: int,
    tenant_prefix: str = "point",
    queries_per_session: int = 2,
    think_time_seconds: float = 0.1,
    seed: int = 0,
) -> List[SessionWorkload]:
    """``count`` closed-loop sessions of cheap point queries, seeded jitter."""
    spec = point_query_spec()
    return [
        SessionWorkload(
            tenant_id=f"{tenant_prefix}{index}",
            queries=[spec],
            repeat=queries_per_session,
            think_time_seconds=think_time_seconds,
            jitter_fraction=0.5,
            seed=seed + index,
        )
        for index in range(count)
    ]


def bulk_session(
    tenant_id: str = "bulk",
    queries: int = 2,
    seed: int = 1000,
    **options,
) -> SessionWorkload:
    """One closed-loop bulk session that hogs the trunk when unchecked."""
    return SessionWorkload(
        tenant_id=tenant_id,
        queries=[bulk_query_spec(**options)],
        repeat=queries,
        think_time_seconds=0.0,
        seed=seed,
    )


def mixed_traffic(
    point_count: int = 8,
    bulk_count: int = 1,
    queries_per_session: int = 2,
    seed: int = 0,
) -> List[SessionWorkload]:
    """The canonical adversarial mix: many point sessions + bulk session(s)."""
    workloads: List[SessionWorkload] = list(
        point_sessions(
            point_count, queries_per_session=queries_per_session, seed=seed
        )
    )
    for index in range(bulk_count):
        workloads.append(bulk_session(tenant_id=f"bulk{index}", seed=seed + 1000 + index))
    return workloads
