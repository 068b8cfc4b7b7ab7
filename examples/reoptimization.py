"""Mid-query re-optimization: migrating the plan *shape*, not just a strategy.

The System-R enumerator commits to a UDF application order from *declared*
selectivities.  Here both declarations lie: ``ProbeA`` declares itself very
selective (so the enumerator applies it first) but actually keeps 95% of the
rows, while ``ProbeB`` declares itself unselective but actually filters 95%.
The committed plan shape therefore runs the wrong filter first for nearly the
whole query.

With ``reoptimize=True`` the whole UDF chain runs inside one plan-migration
operator: at segment boundaries a ``ReOptimizer`` snapshots what the run has
observed — per-predicate selectivities (keyed by canonical predicate
identity, so they survive reordering), measured per-UDF cost, effective
bandwidths — prices every UDF order and strategy assignment over the
*remaining* input, and, under hysteresis plus a re-plan budget, migrates the
tail to the reordered plan.  The result set is identical; the time lands near the oracle
static plan.

Run with::

    python examples/reoptimization.py
"""

from __future__ import annotations

from repro.core.strategies import StrategyConfig
from repro.workloads.misestimation import MisorderedUdfScenario


def main() -> None:
    scenario = MisorderedUdfScenario()
    print(scenario.describe())
    print()

    # The committed plan: the enumerator's choice from the declarations.
    committed = scenario.build_database().execute(scenario.sql, optimize=True)
    print(f"committed (wrong order)   {committed.metrics.elapsed_seconds:8.2f}s")

    # The oracle static plan: the right order, known only with hindsight.
    oracle = scenario.build_database().execute(
        scenario.sql,
        udf_order=list(scenario.oracle_udf_order),
        config=StrategyConfig.semi_join(batch_size=committed.metrics.batch_size or 1),
    )
    print(f"oracle static order       {oracle.metrics.elapsed_seconds:8.2f}s")

    # Mid-query re-optimization: starts under the committed shape, observes
    # the contradiction, re-prices the UDF orders, migrates the tail.
    reopt = scenario.build_database().execute(
        scenario.sql, reoptimize=True, replan_policy=scenario.replan_policy()
    )
    orders = " => ".join(
        "[" + ", ".join(order) + "]" for order in (reopt.metrics.udf_orders_used or ())
    )
    print(f"mid-query re-optimized    {reopt.metrics.elapsed_seconds:8.2f}s   {orders}")
    # Every segment-boundary verdict, as the operator booked it on its context.
    for adaptation in reopt.metrics.adaptations:
        for decision in adaptation.decisions:
            print(f"  boundary under {decision.shape.describe()}: {decision.reason}")
    print()
    print(
        f"plan migrations: {reopt.metrics.plan_migrations} "
        f"(in {reopt.metrics.replan_attempts} boundary decisions)"
    )
    print(
        f"vs committed (wrong) shape: "
        f"{committed.metrics.elapsed_seconds / reopt.metrics.elapsed_seconds:.1f}x faster"
    )
    print(
        f"vs oracle static plan:      "
        f"{reopt.metrics.elapsed_seconds / oracle.metrics.elapsed_seconds:.2f}x its time"
    )
    print(f"identical results: {reopt.row_set() == committed.row_set()}")

    # The observed selectivities landed in the statistics store under
    # canonical predicate-identity keys: a repeat query plans calibrated.
    db = scenario.build_database()
    db.execute(scenario.sql, reoptimize=True, replan_policy=scenario.replan_policy())
    print()
    print(db.statistics.summary())


if __name__ == "__main__":
    main()
