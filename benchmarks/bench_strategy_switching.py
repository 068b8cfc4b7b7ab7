"""Mid-query strategy switching vs. a committed-but-wrong plan.

The optimizer commits to semi-join / client-site-join from the UDF's
*declared* selectivity.  On the misestimated-selectivity workloads the
declaration is wrong by 9x, so the committed plan is the wrong strategy for
nearly the whole query.  A mid-query switching execution starts under the
committed (wrong) strategy, observes the true selectivity within the first
probe segments, re-costs the remaining rows per strategy, and hands the tail
to the right executor.

Asserted, for both directions of the misestimate (declared too high → the
plan wrongly commits semi-join; declared too low → wrongly commits the
client-site join):

* the switched run returns exactly the committed plan's result rows,
* the switched run is **strictly faster** than the committed static plan,
* the switched run lands **within 15%** of the best static strategy chosen
  with oracle knowledge of the true selectivity.

The smoke run covers the overestimated direction only and records every
simulated figure below in ``BENCH_switching.json``.
"""

from __future__ import annotations

import pytest

from conftest import snapshot
from repro.core.strategies import ExecutionStrategy, StrategyConfig
from repro.workloads.experiments import Sized, Sweep, run_workload_point
from repro.workloads.misestimation import (
    overestimated_selectivity_scenario,
    underestimated_selectivity_scenario,
)

#: Rows per message for every run (static and switched), so the comparison
#: isolates the *strategy* choice from batching effects.
BATCH_SIZE = 8

#: By declared selectivity: 0.9 (actual 0.1) and 0.1 (actual 0.9).
SCENARIOS = {0.9: overestimated_selectivity_scenario(), 0.1: underestimated_selectivity_scenario()}
STATIC = tuple(f"static_{strategy.value}" for strategy in ExecutionStrategy)


def switching_point(declared, run, truthful):
    """A static strategy, or the committed one armed to switch mid-query.

    ``truthful``: same data, but the declaration tells the truth — the
    committed strategy is then the oracle's.
    """
    scenario = SCENARIOS[declared]
    workload = scenario.workload()
    committed = scenario.committed_strategy
    if truthful:
        workload.declared_selectivity = workload.selectivity
        committed = scenario.oracle_strategy
    if run == "switched":
        config = StrategyConfig(strategy=committed, batch_size=BATCH_SIZE).with_switch_policy(
            scenario.switch_policy()
        )
    else:
        strategy = committed if run == "static" else ExecutionStrategy(run[len("static_"):])
        config = StrategyConfig(strategy=strategy, batch_size=BATCH_SIZE)
    point = run_workload_point(workload, scenario.network, config)
    return {**point.record(), "_point": point}


MISESTIMATED = Sweep(
    "switching_misestimated",
    switching_point,
    axes={"declared": Sized(full=(0.9, 0.1), smoke=(0.9,)), "run": STATIC + ("switched",)},
    fixed={"truthful": False},
)
TRUTHFUL = Sweep(
    "switching_truthful",
    switching_point,
    axes={"run": ("static", "switched")},
    fixed={"declared": 0.9, "truthful": True},
)

COLUMNS = ["declared", "run", "elapsed_s", "strategy_switches", "strategies_used"]


@pytest.mark.benchmark(group="strategy-switching")
def test_switched_run_beats_wrong_plan_and_tracks_oracle(run_sweep):
    """Switched run < committed wrong plan; within 15% of the oracle static."""
    records = run_sweep(
        MISESTIMATED, "Mid-query strategy switching on a 9x selectivity misestimate", COLUMNS
    )
    for declared in {record["declared"] for record in records}:
        scenario = SCENARIOS[declared]
        print(scenario.describe())
        assert scenario.plan_is_wrong, "the misestimate must actually flip the choice"
        assert scenario.misestimation_factor >= 5.0

        points = {r["run"]: r["_point"] for r in records if r["declared"] == declared}
        snapshot(
            "switching",
            {f"declared{declared:g}": {run: point.record() for run, point in points.items()}},
        )
        switched = points.pop("switched")
        committed = points[f"static_{scenario.committed_strategy.value}"]
        oracle = min(points.values(), key=lambda point: point.elapsed_seconds)

        # The cost model's oracle choice is also the measured best static.
        assert oracle.strategy is scenario.oracle_strategy
        # The run actually switched, from the committed strategy to the oracle's.
        assert switched.strategy_switches >= 1
        assert switched.strategies_used[0] is scenario.committed_strategy
        assert switched.strategies_used[-1] is scenario.oracle_strategy
        # Equivalence: switching never changes the answer.
        assert switched.result_rows == committed.result_rows
        assert switched.result_rows == oracle.result_rows
        # Strictly faster than the committed wrong plan ...
        assert switched.elapsed_seconds < committed.elapsed_seconds
        # ... and within 15% of the oracle static choice.
        assert switched.elapsed_seconds <= 1.15 * oracle.elapsed_seconds


@pytest.mark.benchmark(group="strategy-switching")
def test_no_switch_when_declaration_is_right(run_sweep):
    """A correctly-declared plan runs committed: zero switches, same time shape."""
    records = run_sweep(TRUTHFUL, "Correct declaration: static vs. segmented-but-unswitched", COLUMNS[1:])
    static, switched = (record["_point"] for record in records)
    snapshot(
        "switching",
        {"correct_declaration": {"static": static.record(), "switched": switched.record()}},
    )
    assert switched.result_rows == static.result_rows
    # The estimate was right, so no switch fires ...
    assert switched.strategy_switches == 0
    # ... and the segmentation overhead without a switch stays small.
    assert switched.elapsed_seconds <= 1.15 * static.elapsed_seconds
