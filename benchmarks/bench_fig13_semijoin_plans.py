"""Figures 13 & 16 — semi-join groupings for the query with a second UDF.

Adding ``Volatility(S.Quotes, S.FuturePrices)`` to the Figure 11 query opens
the groupings of Section 5.1.2: shipping shared argument columns once,
reusing columns already resident at the client after an earlier semi-join,
or avoiding duplicates by separating the UDFs.  This bench exercises the
column-location physical property: it compares the costed plan space with and
without that property and executes the optimizer's decision.
"""

from __future__ import annotations

import pytest

from repro.core.optimizer import CostEstimator, Optimizer, operations_for_query
from repro.core.strategies import ExecutionStrategy, StrategyConfig
from repro.workloads.experiments import Sweep
from repro.workloads.stock import StockWorkload


def _semi_join_variant(estimator, plan, udf):
    return next(
        variant
        for variant in estimator.udf_variants(plan, udf)
        if variant.udf_strategies[udf.name] is ExecutionStrategy.SEMI_JOIN
    )


def plan_space_point(company_count, seed):
    db = StockWorkload(company_count=company_count, seed=seed).build()
    query = StockWorkload.figure13_query()
    bound = db.bind(query)
    full = Optimizer(db.network, exhaustive_properties=True)
    full_plans = full.plan_space(bound)
    reduced_plans = Optimizer(db.network, exhaustive_properties=False).plan_space(bound)
    decision = full.optimize(bound)

    # The Figure 16 effect, measured directly on the cost estimator: pricing
    # ClientRating's semi-join after Volatility's left its arguments at the
    # client, against pricing it from the bare scan.
    estimator = CostEstimator(db.network, bound)
    tables, udfs = operations_for_query(bound)
    base = estimator.scan(next(op for op in tables if op.alias == "S"))
    volatility = next(op for op in udfs if op.name == "Volatility")
    rating = next(op for op in udfs if op.name == "ClientRating")
    resident = _semi_join_variant(estimator, _semi_join_variant(estimator, base, volatility), rating)
    fresh = _semi_join_variant(estimator, base, rating)

    result = db.execute(query, optimize=True)
    reference = db.execute(query, config=StrategyConfig.semi_join())
    return {
        "plans_with_column_locations": len(full_plans),
        "plans_with_site_only": len(reduced_plans),
        "best_cost_with_column_locations": full_plans[0].cost,
        "best_cost_with_site_only": reduced_plans[0].cost,
        "rating_cost_resident_arguments": resident.steps[-1].cost,
        "rating_cost_shipped_arguments": fresh.steps[-1].cost,
        "optimized_s": result.metrics.elapsed_seconds,
        "semi_join_s": reference.metrics.elapsed_seconds,
        "same_rows": result.row_set() == reference.row_set(),
        "_decision": decision,
    }


SWEEP = Sweep("fig13", plan_space_point, fixed={"company_count": 40, "seed": 5})


@pytest.mark.benchmark(group="figure-13")
def test_fig13_second_udf_plan_space(run_sweep):
    (record,) = run_sweep(
        SWEEP,
        "Figure 13/16 — plan space with the column-location property",
        [
            "plans_with_column_locations",
            "plans_with_site_only",
            "rating_cost_resident_arguments",
            "rating_cost_shipped_arguments",
        ],
        pin="paper",
    )
    print("\nbest plan:")
    print(record["_decision"].describe())

    # The richer property set keeps at least as many alternatives and never
    # yields a more expensive best plan.
    assert record["plans_with_column_locations"] >= record["plans_with_site_only"]
    assert (
        record["best_cost_with_column_locations"] <= record["best_cost_with_site_only"] + 1e-9
    )
    # Reusing client-resident argument columns is cheaper than re-shipping them.
    assert record["rating_cost_resident_arguments"] < record["rating_cost_shipped_arguments"]
    # The decision still executes correctly.
    assert record["same_rows"]
