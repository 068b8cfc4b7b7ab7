"""The optimizer facade and its decisions."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.errors import OptimizerError
from repro.core.optimizer.cost import CostEstimator, CostSettings
from repro.core.optimizer.enumerator import SystemREnumerator
from repro.core.optimizer.heuristics import (
    HEURISTIC_UDFS_FIRST,
    HEURISTIC_UDFS_LAST,
    heuristic_plan,
)
from repro.core.optimizer.plans import (
    CandidatePlan,
    operations_for_query,
    statistics_or_empty,
)
from repro.core.optimizer.rank_order import RankOrderOptimizer
from repro.core.strategies import ExecutionStrategy, StrategyConfig
from repro.network.topology import NetworkConfig
from repro.sql.logical import BoundQuery

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.adaptive.store import StatisticsStore

#: Batch sizes the optimizer considers when picking a plan-wide ``batch_size``.
CANDIDATE_BATCH_SIZES: Tuple[int, ...] = (1, 16, 64, 256)
#: The optimizer prefers the *smallest* candidate whose cost is within this
#: relative tolerance of the cheapest, so fast networks (where batching buys
#: nothing) keep the paper's tuple-at-a-time wire behaviour.
BATCH_CHOICE_TOLERANCE = 0.01


@dataclass
class OptimizationDecision:
    """The one value that says which plan runs: ``server.planner`` realises it whole.

    ``plan`` is the costed candidate and owns the shape — the left-deep join
    order over table aliases, the order client-site UDFs are applied in, the
    per-UDF execution strategy and the non-sequential access path per table
    alias (none = all scans); the properties below read it, they are not
    copies.  ``batch_size`` is the plan-wide number of rows per network
    message the cost-based sweep selected (also folded into
    ``strategy_config``); ``alternatives`` are the costed baseline plans.
    """

    plan: CandidatePlan
    strategy_config: StrategyConfig
    batch_size: int = 1
    alternatives: Dict[str, CandidatePlan] = field(default_factory=dict)

    @classmethod
    def pinned(cls, config: StrategyConfig, **shape) -> "OptimizationDecision":
        """The decision of a caller who dictates the plan instead of pricing it.

        ``shape`` names any of ``table_order`` / ``udf_order`` /
        ``udf_strategies`` / ``access_paths``; whatever it leaves out keeps
        the planner's default (FROM order, order of appearance,
        ``config.strategy``, sequential scans).
        """
        return cls(CandidatePlan(frozenset(), 0.0, 0.0, 0.0, **shape), config, config.batch_size)

    table_order = property(lambda self: self.plan.table_order)
    udf_order = property(lambda self: self.plan.udf_order)
    udf_strategies = property(lambda self: self.plan.udf_strategies)
    access_paths = property(lambda self: self.plan.access_paths)
    estimated_cost = property(lambda self: self.plan.cost)

    def describe(self) -> str:
        lines = [
            f"optimizer decision: cost {self.estimated_cost:.3f}s, "
            f"join order {list(self.table_order)}, UDF order {list(self.udf_order)}, "
            f"batch size {self.batch_size}",
        ]
        for path in self.access_paths.values():
            lines.append(f"  {path.describe()}")
        for name, strategy in self.udf_strategies.items():
            lines.append(f"  UDF {name}: {strategy.value}")
        for step in self.plan.steps:
            lines.append("  " + step.describe())
        if self.alternatives:
            lines.append("baselines:")
            for name, alternative in sorted(self.alternatives.items(), key=lambda kv: kv[1].cost):
                lines.append(f"  {name}: estimated cost {alternative.cost:.3f}s")
        return "\n".join(lines)


class Optimizer:
    """The extended System-R optimizer plus the baseline optimizers.

    ``statistics`` is the observed-statistics feedback source (a
    :class:`~repro.adaptive.store.StatisticsStore` or an overlay of one; an
    absent store is an empty one): where it has observations the optimizer
    plans against the *calibrated* network (observed effective bandwidths),
    measured per-UDF costs and observed selectivities, and the batch size
    adaptive executions converged to — instead of the configured and
    declared values.
    """

    def __init__(
        self,
        network: NetworkConfig,
        default_config: Optional[StrategyConfig] = None,
        settings: Optional[CostSettings] = None,
        exhaustive_properties: bool = True,
        statistics: Optional["StatisticsStore"] = None,
    ) -> None:
        self.statistics = statistics_or_empty(statistics)
        self.network = self.statistics.calibrated_network(network)
        self.default_config = default_config if default_config is not None else StrategyConfig()
        self.settings = settings
        self.exhaustive_properties = exhaustive_properties

    # -- helpers -----------------------------------------------------------------------------

    def _estimator(
        self,
        query: BoundQuery,
        allow_deferred_return: bool = True,
        settings: Optional[CostSettings] = None,
    ) -> CostEstimator:
        return CostEstimator(
            self.network,
            query,
            settings=settings if settings is not None else self.settings,
            allow_deferred_return=allow_deferred_return,
            statistics=self.statistics,
        )

    def enumerator(
        self,
        query: BoundQuery,
        allow_deferred_return: bool = True,
        settings: Optional[CostSettings] = None,
    ) -> SystemREnumerator:
        tables, udfs = operations_for_query(query, statistics=self.statistics)
        return SystemREnumerator(
            self._estimator(query, allow_deferred_return=allow_deferred_return, settings=settings),
            tables,
            udfs,
            exhaustive_properties=self.exhaustive_properties,
        )

    # -- main entry points ----------------------------------------------------------------------

    def optimize(self, query: BoundQuery, include_baselines: bool = False) -> OptimizationDecision:
        """Choose join/UDF order, per-UDF strategies and batch size for ``query``.

        The batch size is a plan-wide physical property: every kept plan is
        costed at each candidate batch size (:data:`CANDIDATE_BATCH_SIZES`)
        and the decision keeps the *smallest* batch whose best plan is within
        :data:`BATCH_CHOICE_TOLERANCE` of the overall cheapest — on fast networks
        the per-message overhead is negligible and the sweep collapses to the
        paper's tuple-at-a-time behaviour, while on slow or asymmetric links
        it amortises the fixed framing and latency costs over many rows.
        The sweep is incremental: the plan space is enumerated at the two
        endpoint candidate sizes and re-costed per candidate from recorded
        transfer profiles instead of re-enumerating per candidate.

        Deferred-return client-site joins (fusion with result delivery) are
        excluded here because the executor cannot realise them; use
        :meth:`plan_space` to study the full plan space including them.
        """
        settings = self.statistics.calibrated_cost_settings(
            self.settings if self.settings is not None else CostSettings()
        )
        # A caller who configured an explicit batch size — through the
        # strategy config or the cost settings — pinned that tunable; the
        # sweep then only costs the plan at that size instead of
        # second-guessing it.
        if self.default_config.batch_size != 1:
            candidates: Tuple[int, ...] = (self.default_config.batch_size,)
        elif settings.batch_size != 1:
            candidates = (int(settings.batch_size),)
        elif settings.per_message_overhead_bytes == 0:
            # Without per-message costs batching cannot change any estimate,
            # so skip the redundant enumerations.
            candidates = (1,)
        else:
            candidates = CANDIDATE_BATCH_SIZES

        # The sweep is *incremental*: instead of one full enumeration per
        # candidate, the plan space is enumerated at the two endpoint batch
        # sizes only and every kept complete plan is re-costed per candidate
        # from its recorded transfer profiles.  DP pruning is batch-size
        # dependent (per-message overhead shifts which plan wins a property
        # class), so enumerating at both extremes keeps the plans favoured by
        # tuple-at-a-time *and* by heavy batching; interior candidates are
        # pure re-costing arithmetic.  Plans pruned at both endpoints but
        # optimal strictly in the interior can still be missed — an accepted
        # approximation of the incremental sweep.
        at = {size: settings.with_batch_size(float(size)) for size in candidates}
        kept: List[Tuple[CandidatePlan, int]] = []  # with the endpoint each was priced at
        seen_shapes = set()
        estimator = None
        for endpoint in dict.fromkeys((min(candidates), max(candidates))):
            enumerator = self.enumerator(query, allow_deferred_return=False, settings=at[endpoint])
            if estimator is not None:
                # Same query, same statistics snapshot: the second endpoint
                # prices what the first derived instead of deriving it again.
                enumerator.estimator = estimator.repriced(at[endpoint])
            estimator = enumerator.estimator
            for plan in enumerator.all_complete_plans():
                shape = tuple((step.kind, step.name, step.strategy) for step in plan.steps)
                if shape not in seen_shapes:
                    seen_shapes.add(shape)
                    kept.append((plan, endpoint))
        # Cost only: steps are materialised for the one plan that is chosen,
        # and a plan already stands at its own endpoint's price.
        costed: List[Tuple[int, float, CandidatePlan]] = []
        for batch_size in candidates:
            costs = [
                plan.cost
                if endpoint == batch_size
                else plan.cost + estimator.recost_delta(plan, at[batch_size])
                for plan, endpoint in kept
            ]
            cost = min(costs)
            costed.append((batch_size, cost, kept[costs.index(cost)][0]))
        cheapest = min(cost for _, cost, _ in costed)
        batch_size, best = next(
            (b, plan)
            for b, cost, plan in sorted(costed, key=lambda candidate: candidate[0])
            if cost <= cheapest * (1.0 + BATCH_CHOICE_TOLERANCE)
        )
        best = estimator.recost(best, at[batch_size])
        estimator.release()

        # The primary strategy config: keep the caller's tunables, adopt the
        # strategy the optimizer chose for the first UDF (per-UDF overrides
        # carry the rest) and the batch size the sweep selected.
        primary_strategy = None
        for name in best.udf_order:
            primary_strategy = best.udf_strategies.get(name)
            break
        chosen = {"batch_size": batch_size}
        if primary_strategy is not None:
            chosen["strategy"] = primary_strategy
        config = replace(self.default_config, **chosen)

        alternatives: Dict[str, CandidatePlan] = {}
        if include_baselines:
            alternatives = self.baseline_plans(query)

        return OptimizationDecision(
            plan=best, strategy_config=config, batch_size=batch_size, alternatives=alternatives
        )

    def baseline_plans(self, query: BoundQuery) -> Dict[str, CandidatePlan]:
        """Costed plans of the baseline optimizers, for comparison benchmarks."""
        estimator = self._estimator(query)
        tables, udfs = operations_for_query(query, statistics=self.statistics)
        baselines: Dict[str, CandidatePlan] = {}
        if udfs:
            baselines["rank-order (naive execution)"] = RankOrderOptimizer(
                estimator, tables, udfs
            ).best_plan()
            for placement in (HEURISTIC_UDFS_FIRST, HEURISTIC_UDFS_LAST):
                for strategy in (ExecutionStrategy.SEMI_JOIN, ExecutionStrategy.CLIENT_SITE_JOIN):
                    name = f"{placement}, {strategy.value}"
                    try:
                        baselines[name] = heuristic_plan(
                            estimator, tables, udfs, placement=placement, strategy=strategy
                        )
                    except OptimizerError:
                        continue
        else:
            baselines["system-r (no client UDFs)"] = self.enumerator(query).best_plan()
        return baselines

    def plan_space(self, query: BoundQuery) -> List[CandidatePlan]:
        """All complete plans the enumerator keeps (for Figures 12/13/14/16 studies)."""
        return self.enumerator(query).all_complete_plans()
