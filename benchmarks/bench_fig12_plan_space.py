"""Figures 12 & 14 — plan space for the Figure 11 query (one client-site UDF).

The paper enumerates four placements of ``ClientAnalysis`` for the two-table
query of Figure 11 (before the join, after the join, after the join with the
pushable selection at the client, fused with result delivery).  This bench
runs the extended System-R optimizer on that query, prints the surviving
plans with their costs, and then *executes* the best decision, checking that
it is at least as fast as the fixed baselines.
"""

from __future__ import annotations

import pytest

from repro.core.optimizer import Optimizer
from repro.core.strategies import StrategyConfig
from repro.workloads.experiments import Sweep
from repro.workloads.stock import StockWorkload


def plan_space_point(company_count, seed):
    db = StockWorkload(company_count=company_count, seed=seed).build()
    query = StockWorkload.figure11_query()
    bound = db.bind(query)
    optimizer = Optimizer(db.network)
    plans = optimizer.plan_space(bound)
    decision = optimizer.optimize(bound, include_baselines=True)
    optimized = db.execute(query, optimize=True)
    naive = db.execute(query, config=StrategyConfig.naive())
    return {
        "plans_kept": len(plans),
        "plan_costs": [plan.cost for plan in plans],
        # Where the UDF sits among the joins, per surviving plan.
        "udf_placements": sorted(
            {"-".join(step.kind for step in plan.steps if step.kind in ("join", "udf")) for plan in plans}
        ),
        "estimated_cost": decision.estimated_cost,
        "baseline_costs": {name: plan.cost for name, plan in decision.alternatives.items()},
        "optimized_s": optimized.metrics.elapsed_seconds,
        "naive_s": naive.metrics.elapsed_seconds,
        "same_rows": optimized.row_set() == naive.row_set(),
        "_plans": plans,
        "_decision": decision,
    }


SWEEP = Sweep("fig12", plan_space_point, fixed={"company_count": 40, "seed": 3})


@pytest.mark.benchmark(group="figure-12")
def test_fig12_plan_space_and_chosen_plan(run_sweep):
    (record,) = run_sweep(
        SWEEP,
        "Figure 12 — the Figure 11 query: plan space, decision, execution",
        ["plans_kept", "estimated_cost", "optimized_s", "naive_s"],
        pin="paper",
    )
    for index, plan in enumerate(record["_plans"][:8]):
        print(f"plan #{index + 1}:")
        print(plan.describe())
    print("\nchosen decision:")
    print(record["_decision"].describe())

    # The enumerator keeps genuinely different placements (UDF before vs.
    # after the join), mirroring Figure 12's alternatives (a) and (b)-(d).
    assert len(record["udf_placements"]) >= 2

    # The chosen plan is never worse than any baseline's estimate.
    for name, cost in record["baseline_costs"].items():
        assert record["estimated_cost"] <= cost + 1e-9, name

    # Executing the decision matches the rows of a fixed-strategy execution
    # and is not slower than the naive (rank-order style) execution.
    assert record["same_rows"]
    assert record["optimized_s"] <= record["naive_s"] * 1.05
