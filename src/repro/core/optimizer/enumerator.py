"""Bottom-up dynamic-programming enumeration (the Figure 15 algorithm).

Operations are real joins (one per FROM entry) plus virtual UDF joins (one
per client-site UDF call).  The table below each subset size keeps the
cheapest plan *per physical-property class* — (subset, result site, client
column set) — so alternatives that left data at the client, or that left
useful columns there after a semi-join, survive pruning even when they are
locally more expensive, exactly as interesting orders survive in System R.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.errors import OptimizerError
from repro.core.optimizer.cost import CostEstimator
from repro.core.optimizer.plans import CandidatePlan, TableOperation, UdfOperation

#: A DP state: which operations are applied plus the plan's physical properties
#: (site and client columns, spelled out: plain values hash and compare in C).
StateKey = Tuple[FrozenSet[str], str, FrozenSet[str]]


class SystemREnumerator:
    """Enumerates left-deep interleavings of joins and client-site UDFs."""

    def __init__(
        self,
        estimator: CostEstimator,
        tables: List[TableOperation],
        udfs: List[UdfOperation],
        exhaustive_properties: bool = True,
    ) -> None:
        if not tables:
            raise OptimizerError("cannot optimize a query without tables")
        self.estimator = estimator
        self.tables = tables
        self.udfs = udfs
        #: With ``exhaustive_properties`` False, only the site (not the column
        #: location set) is used for pruning — the ablation of Section 5.2.3.
        self.exhaustive_properties = exhaustive_properties
        self.plans_considered = 0
        self.plans_kept = 0

    # -- public API -----------------------------------------------------------------------

    def best_plan(self) -> CandidatePlan:
        """Run the DP and return the cheapest complete plan including delivery."""
        return self.best_plan_from(None)

    def best_plan_from(self, seed: Optional[CandidatePlan] = None) -> CandidatePlan:
        """Re-enter the DP from a *partial-progress* state and finish the plan.

        ``seed`` describes work already executed — its ``operations`` are the
        applied operation keys (typically every table: the join tree has run
        and its output is materialised), its cardinality/byte statistics the
        *observed* shape of the unprocessed tail, and its cost the sunk cost
        (usually zero: only the remaining work is being compared).  The DP
        then enumerates every interleaving of the not-yet-applied operations
        — all remaining UDF orders and strategy variants, and, when tables
        remain unapplied, the remaining join orders too — exactly as the
        from-scratch enumeration would, but anchored at the seed.  With
        ``seed=None`` this is the ordinary full enumeration.

        This is the optimizer surface mid-query re-optimization calls: the
        :class:`~repro.adaptive.reoptimizer.ReOptimizer` snapshots observed
        statistics into the estimator and re-enters here over the remaining
        input at segment boundaries.
        """
        finished = self._complete_plans(seed)
        if not finished:
            raise OptimizerError("the enumerator produced no complete plan")
        return min(finished, key=lambda plan: plan.cost)

    def all_complete_plans(self) -> List[CandidatePlan]:
        """Every complete plan kept by the DP (finalized), for plan-space studies."""
        return sorted(self._complete_plans(None), key=lambda plan: plan.cost)

    # -- internals -------------------------------------------------------------------------

    def _complete_plans(self, seed: Optional[CandidatePlan]) -> List[CandidatePlan]:
        """The one DP loop: every complete plan kept, finalized, in kept order."""
        operations = {op.key: op for op in self.tables}
        operations.update({op.key: op for op in self.udfs})
        all_keys = frozenset(operations.keys())

        best: Dict[StateKey, CandidatePlan] = {}

        if seed is None:
            # Step 1: single-operation plans.  Only table operations can
            # start a plan (a UDF needs an input relation).  Each table
            # contributes every access path the estimator generates — the
            # seq scan plus any index-scan alternatives.
            for table in self.tables:
                for variant in self.estimator.scan_variants(table):
                    self._keep(best, variant)
        else:
            unknown = seed.operations - all_keys
            if unknown:
                raise OptimizerError(
                    f"partial-progress state applies unknown operations: {sorted(unknown)}"
                )
            self._keep(best, seed)

        # Extend every kept plan by one not-yet-applied operation.  A layer's
        # candidates go straight into the table: they are one operation
        # larger than anything the layer reads.  Layers below the seed's size
        # are simply empty and skipped.
        start = 2 if seed is None else len(seed.operations) + 1
        for size in range(start, len(operations) + 1):
            for (applied, _site, _columns), plan in list(best.items()):
                if len(applied) != size - 1:
                    continue
                for key, operation in operations.items():
                    if key in applied:
                        continue
                    for candidate in self._apply(plan, operation):
                        self._keep(best, candidate)

        return [
            self.estimator.finalize(plan)
            for (applied, _site, _columns), plan in best.items()
            if applied == all_keys
        ]

    def _apply(self, plan: CandidatePlan, operation) -> List[CandidatePlan]:
        self.plans_considered += 1
        if isinstance(operation, TableOperation):
            return self.estimator.join_variants(plan, operation)
        if isinstance(operation, UdfOperation):
            if not self.estimator.resolver.has_columns(plan.column_sizes, operation.argument_columns):
                return []  # the UDF's arguments are not available yet
            return self.estimator.udf_variants(plan, operation)
        raise OptimizerError(f"unknown operation type {type(operation).__name__}")

    def _keep(self, table: Dict[StateKey, CandidatePlan], plan: CandidatePlan) -> None:
        properties = plan.properties
        columns = properties.client_columns if self.exhaustive_properties else frozenset()
        key: StateKey = (plan.operations, properties.site.value, columns)
        existing = table.get(key)
        if existing is None or plan.cost < existing.cost:
            table[key] = plan
            self.plans_kept += 1


class SiteSelectionEnumerator:
    """Grows the DP's decision space by one dimension: *where* each shard runs.

    Input is the candidate cost table of a scatter-gather fan-out —
    ``costs[(shard, site)]`` is the estimated overlapped cost of running
    ``shard``'s plan on replica ``site`` (priced from that site's calibrated
    bandwidth).  Only replicas actually holding the shard appear as keys.

    Because shard plans run concurrently, the objective is the *makespan*:
    the maximum, over sites, of the summed costs of the shards assigned to
    that site.  Exact makespan minimisation is NP-hard (multiprocessor
    scheduling), so this uses the classical LPT greedy — shards sorted by
    their cheapest candidate cost, largest first, each assigned to the
    replica that minimises that site's resulting load — which is within 4/3
    of optimal and, for the common replication factors here (1–3), usually
    exact.  Replica *choice* is where the win is: a shard priced high on a
    congested replica moves to a cheap one, and co-located shards queue.
    """

    def __init__(self, costs: Dict[Tuple[str, str], float]) -> None:
        if not costs:
            raise OptimizerError("site selection needs at least one (shard, site) candidate")
        self.costs = dict(costs)
        self.shards = sorted({shard for shard, _ in self.costs})
        for shard in self.shards:
            if not any(key[0] == shard for key in self.costs):
                raise OptimizerError(f"shard {shard!r} has no candidate site")

    def select(self) -> "SiteAssignment":
        """Assign every shard to one replica site, minimising the makespan."""
        loads: Dict[str, float] = {}
        assignment: Dict[str, str] = {}

        def candidates(shard: str) -> List[Tuple[str, float]]:
            return [(site, cost) for (s, site), cost in self.costs.items() if s == shard]

        # Largest (by cheapest candidate) first: LPT order.
        order = sorted(
            self.shards,
            key=lambda shard: min(cost for _, cost in candidates(shard)),
            reverse=True,
        )
        for shard in order:
            best_site = None
            best_finish = None
            best_cost = 0.0
            for site, cost in sorted(candidates(shard)):
                finish = loads.get(site, 0.0) + cost
                if best_finish is None or finish < best_finish:
                    best_site, best_finish, best_cost = site, finish, cost
            assignment[shard] = best_site
            loads[best_site] = loads.get(best_site, 0.0) + best_cost
        makespan = max(loads.values()) if loads else 0.0
        return SiteAssignment(assignment=assignment, site_loads=loads, makespan=makespan)


class SiteAssignment:
    """The outcome of site selection: shard → site, per-site loads, makespan."""

    def __init__(
        self,
        assignment: Dict[str, str],
        site_loads: Dict[str, float],
        makespan: float,
    ) -> None:
        self.assignment = dict(assignment)
        self.site_loads = dict(site_loads)
        self.makespan = makespan

    def site_for(self, shard: str) -> str:
        return self.assignment[shard]

    def describe(self) -> str:
        parts = [
            f"{shard} -> {site}" for shard, site in sorted(self.assignment.items())
        ]
        return f"site selection: {', '.join(parts)} (makespan {self.makespan:.3f}s)"

    def __repr__(self) -> str:
        return f"SiteAssignment({self.assignment}, makespan={self.makespan:.3f})"
