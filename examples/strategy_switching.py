"""Mid-query strategy switching: recovering from a misestimated selectivity.

The optimizer's semi-join vs. client-site-join choice hinges on the UDF's
predicate selectivity — which it takes on faith from the UDF's declaration.
Here the declaration is wrong by 9x, so the committed plan is the wrong
strategy for nearly the whole query.  With ``switch_strategies=True`` the
executor runs the input in segments, observes the *true* selectivity in the
first probe segment, re-costs the remaining rows under every strategy, and
hands the unprocessed tail to the right one — beating the committed plan and
landing near the oracle static choice.

Run with::

    python examples/strategy_switching.py
"""

from __future__ import annotations

from repro.core.strategies import ExecutionStrategy, StrategyConfig
from repro.workloads.experiments import run_workload_point
from repro.workloads.misestimation import overestimated_selectivity_scenario


def main() -> None:
    scenario = overestimated_selectivity_scenario()
    print(scenario.describe())
    print()

    statics = {}
    for strategy in ExecutionStrategy:
        point = run_workload_point(
            scenario.workload(),
            scenario.network,
            StrategyConfig(strategy=strategy, batch_size=8),
        )
        statics[strategy] = point
        print(f"static {strategy.value:18s} {point.elapsed_seconds:8.2f}s")

    switched = run_workload_point(
        scenario.workload(),
        scenario.network,
        StrategyConfig(
            strategy=scenario.committed_strategy, batch_size=8
        ).with_switch_policy(scenario.switch_policy()),
    )
    committed = statics[scenario.committed_strategy]
    oracle = min(statics.values(), key=lambda point: point.elapsed_seconds)
    path = " -> ".join(strategy.value for strategy in switched.strategies_used)
    print(f"adaptive switched     {switched.elapsed_seconds:8.2f}s   ({path})")
    # Every segment-boundary verdict, as the operator booked it on its context.
    for adaptation in switched.adaptations:
        for decision in adaptation.decisions:
            print(f"  boundary under {decision.shape.describe()}: {decision.reason}")
    print()
    print(f"vs committed (wrong) plan: {committed.elapsed_seconds / switched.elapsed_seconds:.1f}x faster")
    print(f"vs oracle static choice:   {switched.elapsed_seconds / oracle.elapsed_seconds:.2f}x its time")
    print(f"identical results: {switched.result_rows == committed.result_rows}")


if __name__ == "__main__":
    main()
