"""The rank-ordering baseline optimizer ([HS93], [CS97]).

This is the approach the paper argues is inadequate for client-site UDFs:
each expensive predicate (here: each client-site UDF) is characterised by a
*rank*::

    rank = per-tuple cost / (1 - selectivity)

and expensive predicates are applied in ascending rank order, after the joins
(the classical heuristic of evaluating cheap predicates and joins first).
The per-tuple cost is taken to be the naive tuple-at-a-time round-trip time —
what a traditional optimizer that treats the UDF as a server-site black box
would measure — and the execution it implies is the naive strategy.

Two of the paper's observations are therefore *built into* this baseline by
design: it ignores the dependence of a UDF's cost on its neighbours in the
plan (no grouping, no fusion with result delivery) and it ignores argument
duplicates (costs are per input tuple, not per distinct argument tuple).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.optimizer.cost import CostEstimator
from repro.core.optimizer.plans import CandidatePlan, PlanStep, TableOperation, UdfOperation
from repro.core.optimizer.properties import PhysicalProperties, PlanSite
from repro.core.strategies import ExecutionStrategy
from repro.network.message import MESSAGE_OVERHEAD_BYTES
from repro.network.topology import NetworkConfig


@dataclass(frozen=True)
class RankedUdf:
    """A client-site UDF with its rank-order score."""

    operation: UdfOperation
    per_tuple_cost_seconds: float
    selectivity: float

    @property
    def rank(self) -> float:
        margin = max(1e-9, 1.0 - self.selectivity)
        return self.per_tuple_cost_seconds / margin


class RankOrderOptimizer:
    """Places client-site UDFs by rank order and executes them naively."""

    def __init__(
        self,
        estimator: CostEstimator,
        tables: List[TableOperation],
        udfs: List[UdfOperation],
    ) -> None:
        self.estimator = estimator
        self.network: NetworkConfig = estimator.network
        self.tables = tables
        self.udfs = udfs

    # -- rank computation ---------------------------------------------------------------------

    def ranked_udfs(self, plan: CandidatePlan) -> List[RankedUdf]:
        ranked: List[RankedUdf] = []
        for operation in self.udfs:
            udf = operation.call.udf
            argument_bytes = plan.columns_size(operation.argument_columns) + MESSAGE_OVERHEAD_BYTES
            result_bytes = float(udf.result_size_bytes or 8) + MESSAGE_OVERHEAD_BYTES
            per_tuple = (
                argument_bytes / self.network.downlink_bandwidth
                + result_bytes / self.network.uplink_bandwidth
                + 2 * self.network.latency
                + udf.cost_per_call_seconds
            )
            selectivity = operation.predicate_selectivity
            ranked.append(
                RankedUdf(
                    operation=operation,
                    per_tuple_cost_seconds=per_tuple,
                    selectivity=selectivity,
                )
            )
        ranked.sort(key=lambda item: item.rank)
        return ranked

    # -- plan construction ------------------------------------------------------------------------

    def best_plan(self) -> CandidatePlan:
        """Joins first (FROM order), then UDFs in ascending rank, executed naively."""
        plan = self.estimator.scan(self.tables[0])
        for table in self.tables[1:]:
            plan = self.estimator.join(plan, table)

        for ranked in self.ranked_udfs(plan):
            plan = self._apply_naive(plan, ranked)
        return self.estimator.finalize(plan)

    def _apply_naive(self, plan: CandidatePlan, ranked: RankedUdf) -> CandidatePlan:
        operation = ranked.operation
        udf = operation.call.udf
        # Tuple-at-a-time: every input tuple pays the full round trip; no
        # pipelining, no duplicate elimination.
        transfer = plan.cardinality * ranked.per_tuple_cost_seconds
        cardinality = plan.cardinality * operation.predicate_selectivity

        column_sizes = dict(plan.column_sizes)
        column_sizes[udf.result_column_name] = float(udf.result_size_bytes or 8)
        column_distinct = dict(plan.column_distinct)
        column_distinct[udf.result_column_name] = max(1.0, plan.cardinality)

        step = PlanStep(
            kind="udf",
            name=udf.name,
            strategy=ExecutionStrategy.NAIVE,
            detail=f"rank {ranked.rank:.4g}, tuple-at-a-time",
            cost=transfer,
            cardinality=cardinality,
        )
        return plan.extended(
            operations=plan.operations | {operation.key},
            cost=plan.cost + transfer,
            cardinality=cardinality,
            row_bytes=sum(column_sizes.values()),
            column_sizes=column_sizes,
            column_distinct=column_distinct,
            properties=PhysicalProperties(site=PlanSite.SERVER),
            steps=plan.steps + (step,),
            input=plan,
            operation=operation,
            strategy=ExecutionStrategy.NAIVE,
            path=None,
        )
