"""Optimizer comparison — extended System-R vs. rank-order and heuristics.

Section 5's claim is that a traditional optimizer (rank ordering of expensive
predicates, naive remote execution, no site awareness) produces poor plans
for client-site UDF queries.  This bench compares, on the stock workload and
on both symmetric and asymmetric networks:

* the *executed* runtime of the plan the extended optimizer chooses,
* the executed runtime of the naive / fixed-strategy alternatives,
* the optimizers' own cost estimates.
"""

from __future__ import annotations

import pytest

from repro.core.optimizer import Optimizer
from repro.core.strategies import ExecutionStrategy, StrategyConfig
from repro.network.topology import NetworkConfig
from repro.workloads.experiments import Sweep
from repro.workloads.stock import StockWorkload

NETWORKS = {
    "symmetric": NetworkConfig.paper_symmetric(),
    "asymmetric-50": NetworkConfig.paper_asymmetric(asymmetry=50.0),
}
QUERIES = {
    "figure1": StockWorkload.figure1_query(),
    "figure11": StockWorkload.figure11_query(),
    "figure13": StockWorkload.figure13_query(),
}


def comparison_point(network, query, company_count, seed):
    db = StockWorkload(company_count=company_count, seed=seed, network=NETWORKS[network]).build()
    bound = db.bind(QUERIES[query])
    decision = Optimizer(db.network).optimize(bound, include_baselines=True)
    optimized = db.execute(bound, optimize=True)
    record = {
        "estimated_cost": decision.estimated_cost,
        "baseline_estimates": {name: plan.cost for name, plan in decision.alternatives.items()},
        "optimizer_s": optimized.metrics.elapsed_seconds,
        "same_rows": True,
    }
    for strategy in ExecutionStrategy:
        result = db.execute(bound, config=StrategyConfig().with_strategy(strategy))
        record[f"{strategy.value}_s"] = result.metrics.elapsed_seconds
        record["same_rows"] &= result.row_set() == optimized.row_set()
    return record


SWEEP = Sweep(
    "optimizer_comparison",
    comparison_point,
    axes={"network": tuple(NETWORKS), "query": tuple(QUERIES)},
    fixed={"company_count": 30, "seed": 13},
)

FIXED = [f"{strategy.value}_s" for strategy in ExecutionStrategy]


@pytest.mark.benchmark(group="optimizer-comparison")
def test_optimizer_beats_naive_and_matches_best_fixed_strategy(run_sweep):
    records = run_sweep(
        SWEEP,
        "Optimizer comparison — executed simulated seconds, symmetric and asymmetric (N=50)",
        ["network", "query", "optimizer_s", *FIXED],
        pin="paper",
    )

    for record in records:
        assert record["same_rows"]
        # The optimizer's plan always beats tuple-at-a-time naive execution...
        assert record["optimizer_s"] < record["naive_s"]
        # ...and is within 10% of the best fixed single-strategy execution
        # (it cannot do worse than picking that strategy for every UDF).
        assert record["optimizer_s"] <= min(record[name] for name in FIXED) * 1.10
