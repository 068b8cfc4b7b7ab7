"""Durable statistics — a restarted database plans like a converged one.

The durable layer's promise: everything the adaptive runtime learns about a
workload (calibrated UDF costs, measured selectivities, converged batch
sizes) survives a restart.  A database re-opened over the same storage
directory warm-starts from the persisted statistics snapshot and its *first*
query runs like the converged steady state — not like the cold first query
that had to explore and to plan from misdeclared UDF parameters.

The scenario stacks both failure modes of a cold optimizer on the paper's
asymmetric network (N = 100):

* ``Sieve`` is declared expensive and unselective but is actually cheap and
  filters 90% of the rows — a cold plan postpones it;
* ``Heavy`` is declared nearly free but actually dominates the query — a
  cold plan happily applies it to every row.

Only observation can invert the order, and only persistence carries that
knowledge across the restart.  Asserted criteria:

* warm restart within 15% of the converged in-session time;
* warm restart at least 1.3x faster than the cold first query.
"""

from __future__ import annotations

import tempfile

import pytest

from conftest import snapshot
from repro.network.topology import NetworkConfig
from repro.relational.types import FLOAT, INTEGER
from repro.server.engine import Database
from repro.workloads.experiments import Sized, Sweep, plain

NETWORK = NetworkConfig.paper_asymmetric(asymmetry=100.0)


def _open_database(directory: str, row_count: int) -> Database:
    """Open (or re-open) the benchmark database over ``directory``.

    On re-open the table comes back from the paged storage; the UDFs are
    session state and are re-registered with the same (misdeclared)
    parameters, so the workload fingerprint matches and the persisted
    statistics snapshot is restored.
    """
    db = Database(network=NETWORK, storage_dir=directory)
    if "T" not in db.catalog.table_names():
        db.create_table(
            "T",
            [("K", INTEGER), ("V", FLOAT)],
            rows=[(i, float(i)) for i in range(row_count)],
        )
    # Declared expensive and unselective; actually cheap and sharp.
    db.register_client_udf(
        "Sieve",
        lambda v: v * 1.0,
        cost_per_call_seconds=0.004,
        actual_cost_per_call_seconds=0.00005,
        selectivity=0.9,
    )
    # Declared nearly free; actually dominates the query.
    db.register_client_udf(
        "Heavy",
        lambda v: v * 2.0,
        cost_per_call_seconds=0.00005,
        actual_cost_per_call_seconds=0.004,
        selectivity=0.9,
    )
    return db


def restart_point(row_count, converge_runs):
    """Cold → converged → restart: the restarted first query stays warm."""
    sql = f"SELECT T.K FROM T WHERE Sieve(T.V) < {row_count // 10} AND Heavy(T.V) < {row_count * 2}"
    with tempfile.TemporaryDirectory() as directory:
        db = _open_database(directory, row_count)
        cold = db.execute(sql, optimize=True, adaptive=True)
        converged = cold
        for _ in range(converge_runs):
            converged = db.execute(sql, optimize=True, adaptive=True)
        observed = db.statistics.queries_observed
        db.close()

        restarted = _open_database(directory, row_count)
        warm = restarted.execute(sql, optimize=True, adaptive=True)
        restored = restarted.statistics.queries_observed
        restarted.close()
    cold_s, converged_s, warm_s = (
        result.metrics.elapsed_seconds for result in (cold, converged, warm)
    )
    return {
        "row_count": row_count,
        "cold_seconds": round(cold_s, 6),
        "converged_seconds": round(converged_s, 6),
        "warm_restart_seconds": round(warm_s, 6),
        "cold_over_warm": round(cold_s / warm_s, 3),
        "warm_over_converged": round(warm_s / converged_s, 3),
        "_same_rows": cold.row_set() == warm.row_set(),
        "_queries_observed": (observed, restored),
    }


SWEEP = Sweep(
    "durable_stats",
    restart_point,
    fixed={"row_count": Sized(full=200, smoke=120), "converge_runs": Sized(full=5, smoke=3)},
)


@pytest.mark.benchmark(group="durable-stats")
def test_warm_restart_matches_converged_plan(run_sweep):
    (record,) = run_sweep(
        SWEEP, "Durable statistics across a restart — asymmetric network (N = 100)"
    )
    snapshot("durable_stats", plain(record))

    # Same answers whatever the plan.
    assert record["_same_rows"]
    # The snapshot really was restored: the restarted store continues the
    # observation count instead of starting at zero.
    observed, restored = record["_queries_observed"]
    assert restored == observed + 1

    # Criterion (a): warm restart within 15% of the converged steady state.
    assert record["warm_restart_seconds"] <= 1.15 * record["converged_seconds"]
    # Criterion (b): at least 1.3x better than the cold first query.
    assert record["warm_restart_seconds"] * 1.3 <= record["cold_seconds"]
