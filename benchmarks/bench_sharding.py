"""Scatter-gather over sharded/replicated sites: scale-out and migration.

Two experiments on the distribution layer:

* **Speedup vs. shard count** — the canonical bulk UDF scan fanned out over
  N sites, N = 1..8, against a single-site baseline behind one site-grade
  link over identical data.  Each site's channel carries only its fragment,
  so elapsed time must *strictly shrink* at every doubling of the fan-out,
  and every configuration must gather exactly the baseline's row multiset.

* **Degraded replica: migrate vs. stay** — one shard, replicated on two
  sites; the committed replica's link collapses to 2 KB/s just after the
  query starts.  Run segmented with migration disarmed (stay) and armed
  (move): the armed run must record at least one mid-query migration and
  beat staying by >= 2x, with the identical answer.
"""

from __future__ import annotations

import pytest

from conftest import snapshot
from repro.distribution import MigrationPolicy
from repro.network.topology import NetworkConfig
from repro.workloads.experiments import Sized, Sweep, plain
from repro.workloads.sharding import (
    FILTER_SQL,
    make_sharded_setup,
    site_network,
)

#: The collapsing link of the degraded-replica experiment: 2 KB/s both ways
#: from just after the query starts.
DEGRADING = NetworkConfig.symmetric(150_000.0, latency=0.01, name="degrading").with_drift(
    downlink_schedule=((0.001, 2_000.0),),
    uplink_schedule=((0.001, 2_000.0),),
)


def scale_out_point(shards, rows, series_points):
    """The bulk UDF scan over ``shards`` sites against one site-grade link."""
    single, dist = make_sharded_setup(
        sites=shards, shards=shards, rows=rows, series_points=series_points
    )
    base = single.execute(FILTER_SQL, deliver_results=True)
    result = dist.execute(FILTER_SQL)
    return {
        "single_site_s": base.metrics.elapsed_seconds,
        "distributed_s": result.metrics.elapsed_seconds,
        "speedup": base.metrics.elapsed_seconds / result.metrics.elapsed_seconds,
        "rows_returned": result.metrics.rows_returned,
        "matches_baseline": result.row_set() == base.row_set(),
        "_sizes": {"rows": rows, "series_points": series_points},
    }


def degraded_replica_point(migrate):
    """One shard on two replicas, the committed one collapsing; four segments."""
    dist = make_sharded_setup(
        sites=2,
        shards=1,
        replication_factor=2,
        rows=48,
        series_points=32,
        networks=[DEGRADING, site_network(bandwidth=120_000.0, name="healthy")],
    )[1]
    if migrate:
        result = dist.execute(
            FILTER_SQL, segments=4, migration_policy=MigrationPolicy(hysteresis=0.25)
        )
    else:
        result = dist.execute(FILTER_SQL, segments=4, migrate=False)
    return {
        "elapsed_s": result.metrics.elapsed_seconds,
        "migrations": result.metrics.plan_migrations,
        "_rows": result.row_set(),
    }


#: Rows / series length sized so the fragment transfer dominates the wire.
SCALE_OUT = Sweep(
    "scale_out",
    scale_out_point,
    axes={"shards": Sized(full=(1, 2, 4, 8), smoke=(1, 2, 4))},
    fixed={"rows": Sized(full=96, smoke=64), "series_points": 64},
)
DEGRADED = Sweep("degraded_replica", degraded_replica_point, axes={"migrate": (False, True)})


@pytest.mark.benchmark(group="sharding")
def test_speedup_grows_with_shard_count(run_sweep):
    records = run_sweep(
        SCALE_OUT, "Scatter-gather speedup vs. shard count (one site per shard)"
    )
    snapshot("sharding", {**records[0]["_sizes"], "scale_out": [plain(r) for r in records]})

    for record in records:
        assert record["matches_baseline"]
    # One shard on one site-grade link is the baseline, give or take the
    # coordinator merge; beyond that the fan-out must pay off monotonically.
    assert records[0]["speedup"] == pytest.approx(1.0, rel=0.05)
    for narrower, wider in zip(records, records[1:]):
        assert wider["speedup"] > narrower["speedup"]
    assert records[-1]["speedup"] >= 1.5


@pytest.mark.benchmark(group="sharding")
def test_migrating_off_a_collapsed_replica(run_sweep):
    stay, move = run_sweep(
        DEGRADED, "Degraded replica: stay vs. migrate (1 shard x 2 replicas, 4 segments)"
    )
    snapshot(
        "sharding",
        {
            "degraded_replica": {
                "stay_s": stay["elapsed_s"],
                "migrate_s": move["elapsed_s"],
                "speedup": stay["elapsed_s"] / move["elapsed_s"],
                "migrations": move["migrations"],
            }
        },
    )
    assert move["_rows"] == stay["_rows"]
    assert move["migrations"] >= 1
    # Migrating off the collapsed replica must at least halve the elapsed time.
    assert move["elapsed_s"] * 2.0 < stay["elapsed_s"]
