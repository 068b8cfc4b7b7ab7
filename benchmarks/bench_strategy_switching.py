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

Set ``REPRO_BENCH_SMOKE=1`` to run the reduced CI configuration (the
overestimated direction only); that configuration records every simulated
figure below in ``BENCH_switching.json``.
"""

from __future__ import annotations

import os

import pytest

from repro.core.strategies import ExecutionStrategy, StrategyConfig
from repro.workloads.experiments import format_records, run_workload_point
from repro.workloads.misestimation import (
    MisestimatedSelectivityScenario,
    overestimated_selectivity_scenario,
    underestimated_selectivity_scenario,
)

#: Reduced configuration for the CI smoke job.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: Rows per message for every run (static and switched), so the comparison
#: isolates the *strategy* choice from batching effects.
BATCH_SIZE = 8

SCENARIOS = [overestimated_selectivity_scenario()]
if not SMOKE:
    SCENARIOS.append(underestimated_selectivity_scenario())

#: Sections of ``BENCH_switching.json``, filled test by test.
_SNAPSHOT: dict = {}


def _point_record(point) -> dict:
    """The simulated figures of one run (deterministic, so diffable)."""
    return {
        "elapsed_s": point.elapsed_seconds,
        "downlink_bytes": point.downlink_bytes,
        "uplink_bytes": point.uplink_bytes,
        "downlink_messages": point.downlink_messages,
        "uplink_messages": point.uplink_messages,
        "udf_invocations": point.udf_invocations,
        "rows": point.rows,
        "strategy_switches": point.strategy_switches,
        "strategies_used": [strategy.value for strategy in point.strategies_used],
    }


def _record(section: str, runs: dict) -> None:
    from conftest import write_snapshot

    _SNAPSHOT[section] = {name: _point_record(point) for name, point in runs.items()}
    write_snapshot("switching", _SNAPSHOT)


def _run_scenario(scenario: MisestimatedSelectivityScenario):
    statics = {
        strategy: run_workload_point(
            scenario.workload(),
            scenario.network,
            StrategyConfig(strategy=strategy, batch_size=BATCH_SIZE),
        )
        for strategy in ExecutionStrategy
    }
    switched = run_workload_point(
        scenario.workload(),
        scenario.network,
        StrategyConfig(
            strategy=scenario.committed_strategy, batch_size=BATCH_SIZE
        ).with_switch_policy(scenario.switch_policy()),
    )
    return statics, switched


@pytest.mark.benchmark(group="strategy-switching")
@pytest.mark.parametrize(
    "scenario", SCENARIOS, ids=lambda scenario: f"declared{scenario.declared_selectivity:g}"
)
def test_switched_run_beats_wrong_plan_and_tracks_oracle(benchmark, once, scenario):
    """Switched run < committed wrong plan; within 15% of the oracle static."""
    assert scenario.plan_is_wrong, "the misestimate must actually flip the choice"
    assert scenario.misestimation_factor >= 5.0

    statics, switched = once(benchmark, lambda: _run_scenario(scenario))

    committed = statics[scenario.committed_strategy]
    oracle_strategy, oracle = min(
        statics.items(), key=lambda item: item[1].elapsed_seconds
    )

    records = [
        {"config": f"static {strategy.value}", "elapsed_s": point.elapsed_seconds}
        for strategy, point in statics.items()
    ]
    records.append({"config": "adaptive switched", "elapsed_s": switched.elapsed_seconds})
    print(f"\n{scenario.describe()}")
    print(format_records(records, ["config", "elapsed_s"]))
    print(
        f"committed (wrong) {committed.elapsed_seconds:.2f}s, oracle "
        f"{oracle_strategy.value} {oracle.elapsed_seconds:.2f}s, switched "
        f"{switched.elapsed_seconds:.2f}s "
        f"({switched.elapsed_seconds / oracle.elapsed_seconds:.2f}x oracle)"
    )
    _record(
        f"declared{scenario.declared_selectivity:g}",
        {
            **{f"static_{strategy.value}": point for strategy, point in statics.items()},
            "switched": switched,
        },
    )

    # The cost model's oracle choice is also the measured best static.
    assert oracle_strategy is scenario.oracle_strategy
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
def test_no_switch_when_declaration_is_right(benchmark, once):
    """A correctly-declared plan runs committed: zero switches, same time shape."""
    scenario = overestimated_selectivity_scenario()
    workload = scenario.workload()
    # Same data, but the declaration now tells the truth.
    workload.declared_selectivity = workload.selectivity

    def run():
        static = run_workload_point(
            workload,
            scenario.network,
            StrategyConfig(strategy=scenario.oracle_strategy, batch_size=BATCH_SIZE),
        )
        switched = run_workload_point(
            workload,
            scenario.network,
            StrategyConfig(
                strategy=scenario.oracle_strategy, batch_size=BATCH_SIZE
            ).with_switch_policy(scenario.switch_policy()),
        )
        return static, switched

    static, switched = once(benchmark, run)
    print(
        f"\ncorrect declaration: static {static.elapsed_seconds:.2f}s, "
        f"segmented-but-unswitched {switched.elapsed_seconds:.2f}s"
    )
    _record("correct_declaration", {"static": static, "switched": switched})
    assert switched.result_rows == static.result_rows
    # The estimate was right, so no switch fires ...
    assert switched.strategy_switches == 0
    # ... and the segmentation overhead without a switch stays small.
    assert switched.elapsed_seconds <= 1.15 * static.elapsed_seconds
