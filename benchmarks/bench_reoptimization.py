"""Mid-query re-optimization vs. a committed-but-wrong plan *shape*.

The System-R enumerator commits to a UDF application order from *declared*
selectivities.  On the misordered-UDF workload the declarations are wrong in
both directions (ProbeA declares 0.05 but keeps 0.95; ProbeB declares 0.95
but keeps 0.05), so the committed order runs the wrong filter first for
nearly the whole query.  A re-optimizing execution starts under the committed
shape, observes the contradiction in the first probe segments, re-enters the
enumerator over the remaining input with the observed statistics, and
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

Runs unchanged under ``REPRO_BENCH_SMOKE=1`` (it is already one scenario);
that configuration records every simulated figure below in
``BENCH_reoptimization.json``.
"""

from __future__ import annotations

import pytest

from repro.core.strategies import StrategyConfig
from repro.workloads.experiments import format_records
from repro.workloads.misestimation import MisorderedUdfScenario

#: Sections of ``BENCH_reoptimization.json``, filled test by test.
_SNAPSHOT: dict = {}


def _result_record(result) -> dict:
    """The simulated figures of one run (deterministic, so diffable)."""
    metrics = result.metrics
    return {
        "elapsed_s": metrics.elapsed_seconds,
        "downlink_bytes": metrics.downlink_bytes,
        "uplink_bytes": metrics.uplink_bytes,
        "downlink_messages": metrics.downlink_messages,
        "uplink_messages": metrics.uplink_messages,
        "udf_invocations": metrics.udf_invocations,
        "rows": metrics.rows_returned,
        "strategy_switches": metrics.strategy_switches,
        "replan_attempts": metrics.replan_attempts,
        "plan_migrations": metrics.plan_migrations,
        "udf_orders_used": [list(order) for order in metrics.udf_orders_used or ()],
        "shapes_used": list(metrics.shapes_used or ()),
    }


def _record(section: str, runs: dict) -> None:
    from conftest import write_snapshot

    _SNAPSHOT[section] = {name: _result_record(result) for name, result in runs.items()}
    write_snapshot("reoptimization", _SNAPSHOT)


@pytest.mark.benchmark(group="reoptimization")
def test_reoptimized_run_beats_wrong_shape_and_tracks_oracle(benchmark, once):
    scenario = MisorderedUdfScenario()

    def run():
        committed = scenario.build_database().execute(scenario.sql, optimize=True)
        oracle = scenario.build_database().execute(
            scenario.sql,
            udf_order=list(scenario.oracle_udf_order),
            config=StrategyConfig.semi_join(
                batch_size=committed.metrics.batch_size or 1
            ),
        )
        reopt = scenario.build_database().execute(
            scenario.sql, reoptimize=True, replan_policy=scenario.replan_policy()
        )
        return committed, oracle, reopt

    committed, oracle, reopt = once(benchmark, run)

    records = [
        {"config": "committed (wrong order)", "elapsed_s": committed.metrics.elapsed_seconds},
        {"config": "oracle static order", "elapsed_s": oracle.metrics.elapsed_seconds},
        {"config": "mid-query re-optimized", "elapsed_s": reopt.metrics.elapsed_seconds},
    ]
    print(f"\n{scenario.describe()}")
    print(format_records(records, ["config", "elapsed_s"]))
    print(
        f"migrations {reopt.metrics.plan_migrations} in "
        f"{reopt.metrics.replan_attempts} boundary(ies); orders "
        f"{reopt.metrics.udf_orders_used} "
        f"({reopt.metrics.elapsed_seconds / oracle.metrics.elapsed_seconds:.2f}x oracle)"
    )
    _record(
        "misordered",
        {"committed": committed, "oracle": oracle, "reoptimized": reopt},
    )

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
def test_no_replan_overhead_when_the_shape_was_right(benchmark, once):
    """Truthful declarations: zero migrations, bounded segmentation overhead."""
    scenario = MisorderedUdfScenario(
        declared_selectivity_a=0.95, declared_selectivity_b=0.05
    )

    def run():
        static = scenario.build_database().execute(scenario.sql, optimize=True)
        reopt = scenario.build_database().execute(
            scenario.sql, reoptimize=True, replan_policy=scenario.replan_policy()
        )
        return static, reopt

    static, reopt = once(benchmark, run)
    print(
        f"\ncorrect declarations: static {static.metrics.elapsed_seconds:.2f}s, "
        f"segmented-but-unmigrated {reopt.metrics.elapsed_seconds:.2f}s"
    )
    _record("correct_declarations", {"static": static, "reoptimized": reopt})
    assert reopt.row_set() == static.row_set()
    assert reopt.metrics.plan_migrations == 0
    assert reopt.metrics.elapsed_seconds <= 1.20 * static.metrics.elapsed_seconds
