"""Fixed-placement heuristic baselines.

Besides the rank-order baseline, two simple heuristics bracket the plan
space that Section 5.1 explores for the Figure 11 query:

* **UDFs first** — apply every client-site UDF as early as its arguments are
  available (before the joins); the motivation from the paper is that this
  avoids the duplicates a join may generate and that the result may be usable
  by the join (Figure 12a).
* **UDFs last** — apply every client-site UDF after all joins, benefiting
  from the joins' selectivity (Figure 12b/c).

Both use the configured execution strategy for every UDF, so comparing them
against the extended System-R optimizer isolates the value of enumerating
placements and strategies jointly.
"""

from __future__ import annotations

from typing import List

from repro.errors import OptimizerError
from repro.core.optimizer.cost import CostEstimator
from repro.core.optimizer.plans import CandidatePlan, TableOperation, UdfOperation
from repro.core.strategies import ExecutionStrategy

HEURISTIC_UDFS_FIRST = "udfs-first"
HEURISTIC_UDFS_LAST = "udfs-last"


def heuristic_plan(
    estimator: CostEstimator,
    tables: List[TableOperation],
    udfs: List[UdfOperation],
    placement: str = HEURISTIC_UDFS_LAST,
    strategy: ExecutionStrategy = ExecutionStrategy.SEMI_JOIN,
) -> CandidatePlan:
    """Cost the fixed-placement heuristic plan for the given placement rule."""
    if not tables:
        raise OptimizerError("cannot build a heuristic plan without tables")
    if placement not in (HEURISTIC_UDFS_FIRST, HEURISTIC_UDFS_LAST):
        raise OptimizerError(f"unknown heuristic placement {placement!r}")

    pending = list(udfs)
    plan = estimator.scan(tables[0])
    if placement == HEURISTIC_UDFS_FIRST:
        plan, pending = _apply_available_udfs(estimator, plan, pending, strategy)

    for table in tables[1:]:
        plan = estimator.join(plan, table)
        if placement == HEURISTIC_UDFS_FIRST:
            plan, pending = _apply_available_udfs(estimator, plan, pending, strategy)

    # Whatever is still pending (and everything, under "udfs-last") goes here.
    for operation in list(pending):
        plan = _apply_with_strategy(estimator, plan, operation, strategy)
    return estimator.finalize(plan)


def _apply_available_udfs(
    estimator: CostEstimator,
    plan: CandidatePlan,
    pending: List[UdfOperation],
    strategy: ExecutionStrategy,
):
    remaining: List[UdfOperation] = []
    for operation in pending:
        if plan.has_columns(operation.argument_columns):
            plan = _apply_with_strategy(estimator, plan, operation, strategy)
        else:
            remaining.append(operation)
    return plan, remaining


def _apply_with_strategy(
    estimator: CostEstimator,
    plan: CandidatePlan,
    operation: UdfOperation,
    strategy: ExecutionStrategy,
) -> CandidatePlan:
    variants = estimator.udf_variants(plan, operation)
    pool = [variant for variant in variants if variant.strategy is strategy] or variants
    return min(pool, key=lambda candidate: candidate.cost)
