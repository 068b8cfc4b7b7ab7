"""Mid-query re-optimization vs. a committed-but-wrong plan *shape*.

The System-R enumerator commits to a UDF application order from *declared*
selectivities.  On the misordered-UDF workload the declarations are wrong in
both directions (ProbeA declares 0.05 but keeps 0.95; ProbeB declares 0.95
but keeps 0.05), so the committed order runs the wrong filter first for
nearly the whole query.  A re-optimizing execution starts under the committed
shape, observes the contradiction in the first probe segments, re-prices
every UDF order over the remaining input with the observed statistics, and
migrates the tail to the reordered plan.

Asserted:

* the enumerator really commits the wrong order from the declarations, and
  the oracle (actual-selectivity) order differs;
* the re-optimized run migrates (``plan_migrations >= 1``) from the
  committed order to the oracle order;
* it returns exactly the committed plan's result rows;
* it is **strictly faster** than the committed wrong plan shape;
* it lands **within 20%** of the oracle static plan (the right order chosen
  up front with oracle knowledge of the true selectivities).

It is one scenario at one size; the smoke run records every simulated figure
below in ``BENCH_reoptimization.json``.
"""

from __future__ import annotations

import pytest

from conftest import snapshot
from repro.core.strategies import StrategyConfig
from repro.workloads.experiments import Sweep, query_record
from repro.workloads.misestimation import MisorderedUdfScenario


def reoptimization_point(run, scenario):
    """``committed`` / ``static``: the enumerator's plan from the declarations;
    ``oracle``: the right UDF order up front, at the committed plan's batch
    size; ``reoptimized``: segmented, free to migrate mid-query."""
    database = scenario.build_database()
    if run == "reoptimized":
        result = database.execute(
            scenario.sql, reoptimize=True, replan_policy=scenario.replan_policy()
        )
    else:
        result = database.execute(scenario.sql, optimize=True)
        if run == "oracle":
            result = scenario.build_database().execute(
                scenario.sql,
                udf_order=list(scenario.oracle_udf_order),
                config=StrategyConfig.semi_join(batch_size=result.metrics.batch_size or 1),
            )
    return {**query_record(result), "_result": result}


MISORDERED = Sweep(
    "misordered",
    reoptimization_point,
    axes={"run": ("committed", "oracle", "reoptimized")},
    fixed={"scenario": MisorderedUdfScenario()},
)
#: Truthful declarations: the committed shape is already the right one.
CORRECT = Sweep(
    "correct_declarations",
    reoptimization_point,
    axes={"run": ("static", "reoptimized")},
    fixed={
        "scenario": MisorderedUdfScenario(declared_selectivity_a=0.95, declared_selectivity_b=0.05)
    },
)

COLUMNS = ["run", "elapsed_s", "replan_attempts", "plan_migrations", "udf_orders_used"]


def _run(run_sweep, sweep):
    records = run_sweep(sweep, sweep.fixed["scenario"].describe(), COLUMNS)
    results = {record["run"]: record["_result"] for record in records}
    snapshot(
        "reoptimization",
        {sweep.name: {run: query_record(result) for run, result in results.items()}},
    )
    return results


@pytest.mark.benchmark(group="reoptimization")
def test_reoptimized_run_beats_wrong_shape_and_tracks_oracle(run_sweep):
    scenario = MISORDERED.fixed["scenario"]
    results = _run(run_sweep, MISORDERED)
    committed, oracle, reopt = (results[run] for run in MISORDERED.axes["run"])

    # The declarations really commit the wrong shape.
    assert reopt.metrics.udf_orders_used is not None
    assert reopt.metrics.udf_orders_used[0] == scenario.committed_udf_order
    assert scenario.committed_udf_order != scenario.oracle_udf_order
    # The run migrated to the oracle order mid-query.
    assert reopt.metrics.plan_migrations >= 1
    assert reopt.metrics.udf_orders_used[-1] == scenario.oracle_udf_order
    # Equivalence: migration never changes the answer.
    assert reopt.row_set() == committed.row_set()
    assert reopt.row_set() == oracle.row_set()
    # Strictly faster than the committed wrong plan shape ...
    assert reopt.metrics.elapsed_seconds < committed.metrics.elapsed_seconds
    # ... and within 20% of the oracle static plan.
    assert reopt.metrics.elapsed_seconds <= 1.20 * oracle.metrics.elapsed_seconds


@pytest.mark.benchmark(group="reoptimization")
def test_no_replan_overhead_when_the_shape_was_right(run_sweep):
    """Truthful declarations: zero migrations, bounded segmentation overhead."""
    results = _run(run_sweep, CORRECT)
    static, reopt = results["static"], results["reoptimized"]
    assert reopt.row_set() == static.row_set()
    assert reopt.metrics.plan_migrations == 0
    assert reopt.metrics.elapsed_seconds <= 1.20 * static.metrics.elapsed_seconds
