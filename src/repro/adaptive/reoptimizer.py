"""Mid-query re-optimization: re-entering the System-R enumerator mid-run.

Mid-query *strategy switching* can hand one UDF's unprocessed tail to a
different shipping strategy, but it stays locked into the committed plan
*shape*: the order in which UDFs are applied, and which predicates run where.
When the declared selectivities are wrong, the shape itself is often the
expensive mistake — an unselective-but-cheap UDF applied last should have run
first, shrinking everything downstream.

The :class:`ReOptimizer` closes that gap: it is the plan-wide
:class:`~repro.adaptive.segmented.SegmentController`.  At the segment
boundaries of a
:class:`~repro.core.execution.adaptive.PlanMigrationOperator` that owns the
whole client-site UDF chain it snapshots the observed per-predicate
selectivities (keyed by *canonical predicate identity*, so a reordered plan's
observations still match), measured per-UDF costs and effective bandwidths
into a calibrated statistics view (:class:`RuntimeStatisticsView`, falling
back to the database's :class:`~repro.adaptive.store.StatisticsStore` priors
and then the declarations), re-enters the
:class:`~repro.core.optimizer.enumerator.SystemREnumerator` over the
*remaining* input via
:meth:`~repro.core.optimizer.enumerator.SystemREnumerator.best_plan_from`
(the executed join tree is the partial-progress seed), and prices the
resulting candidate shapes — alongside every small-k permutation — with
:func:`~repro.core.optimizer.cost.remaining_plan_cost`.  The shared
hysteresis ladder then decides whether the tail migrates; unlike a strategy
switcher, a re-optimizer also *settles* (see :attr:`ReOptimizer.settled`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import permutations, product
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.adaptive.segmented import (
    PlanShape,
    PredicateSpec,
    SegmentController,
    SegmentObservation,
    SegmentPolicy,
    assign_predicates_to_stages,
)
from repro.adaptive.store import (
    StatisticsOverlay,
    StatisticsStore,
    canonical_predicate_key,
)
from repro.core.optimizer.cost import (
    CostEstimator,
    CostSettings,
    RemainingStage,
    remaining_plan_cost,
)
from repro.core.strategies import ExecutionStrategy
from repro.network.topology import NetworkConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sql.logical import BoundQuery


@dataclass(frozen=True)
class ReOptimizationPolicy(SegmentPolicy):
    """Declarative knobs of mid-query re-optimization.

    The segmentation fields mirror :class:`~repro.adaptive.switcher.SwitchPolicy`
    (the migration operator runs the input in the same geometrically growing
    segments); the hysteresis fields guard *plan-shape* migration, whose
    ``max_replans`` budget is deliberately tighter than the strategy-switch
    budget — a shape migration rebuilds the whole remaining pipeline.
    """

    initial_segment_rows: int = 24
    segment_growth: float = 2.0
    max_segment_rows: int = 512
    min_rows_before_replan: int = 16
    hysteresis: float = 0.25
    cooldown_segments: int = 1
    #: The re-plan budget: at most this many plan-shape migrations per query.
    max_replans: int = 2
    #: After this many *consecutive* fully-priced boundaries that confirmed
    #: the incumbent shape, the controller settles: further boundaries would
    #: be pure overhead (extra messages, pipeline fills), so the executor
    #: drains the remaining input in one segment.  0 disables settling.
    confirmation_boundaries: int = 2
    candidate_strategies: Tuple[ExecutionStrategy, ...] = (
        ExecutionStrategy.SEMI_JOIN,
        ExecutionStrategy.CLIENT_SITE_JOIN,
    )

    floor_field = "min_rows_before_replan"
    budget_field = "max_replans"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.confirmation_boundaries < 0:
            raise ValueError("confirmation_boundaries must be non-negative")


class ReOptimizer(SegmentController):
    """Per-query controller deciding whether the remaining plan shape changes.

    Constructed by :meth:`~repro.server.engine.Database.execute` (or tests)
    with the planning inputs — the bound query, the configured network, the
    cost settings, and the database's statistics store — and *bound* by the
    :class:`~repro.core.execution.adaptive.PlanMigrationOperator` to the
    concrete stages once the plan is built.  ``query=None`` disables the
    enumerator re-entry (operator-level harnesses without SQL); candidate
    shapes then come from the bounded permutation search alone.
    """

    plan_wide = True
    policy_type = ReOptimizationPolicy
    change_marker = "MIGRATE"

    #: Permutation search is exhaustive only up to this many stages; beyond
    #: it, candidates come from the enumerator re-entry (and strategy
    #: reassignments of the incumbent order).
    MAX_PERMUTATION_STAGES = 3

    def __init__(
        self,
        policy: Optional[ReOptimizationPolicy] = None,
        query: Optional["BoundQuery"] = None,
        network: Optional[NetworkConfig] = None,
        settings: Optional[CostSettings] = None,
        statistics: Optional[StatisticsStore] = None,
        table_order: Optional[Sequence[str]] = None,
    ) -> None:
        super().__init__(policy, settings, statistics)
        self.query = query
        self.network = network
        self.table_order = tuple(table_order) if table_order else None
        self.enumerations = 0

    def bind(
        self, initial_shape: PlanShape, predicates: Sequence[PredicateSpec] = ()
    ) -> None:
        super().bind(initial_shape, predicates)
        self.enumerations = 0

    @property
    def replan_count(self) -> int:
        return self.change_count

    @property
    def settled(self) -> bool:
        """Whether further segment boundaries can no longer change the shape.

        True once the re-plan budget is spent, or once
        ``confirmation_boundaries`` consecutive fully-priced boundaries all
        confirmed the incumbent — the executor then drains the remaining
        input in one segment instead of paying boundary overhead for
        decisions that cannot (or will not) migrate.
        """
        if self.change_count >= self.policy.max_replans:
            return True
        window = self.policy.confirmation_boundaries
        if window <= 0 or len(self.decisions) < window:
            return False
        recent = self.decisions[-window:]
        # Only fully-priced keeps count as confirmation: an evidence-floor or
        # cooldown keep never compared the candidate shapes at all.
        return all((not decision.changed) and decision.costs for decision in recent)

    # -- pricing ---------------------------------------------------------------------------

    def _stage_sequence(
        self,
        shape: PlanShape,
        observation: SegmentObservation,
        selectivities: Mapping[str, float],
    ) -> List[RemainingStage]:
        """The :func:`remaining_plan_cost` stages of ``shape`` over the tail.

        Predicates are assigned per :func:`assign_predicates_to_stages` —
        the same rule the migration operator uses when it builds the segment
        pipeline, so pricing and execution agree on where each filter runs.
        """
        assignment = assign_predicates_to_stages(shape.udf_order, self._predicates)
        stages: List[RemainingStage] = []
        for (name, strategy), indexes in zip(shape.udf_strategies, assignment):
            selectivity = 1.0
            for index in indexes:
                predicate = self._predicates[index]
                selectivity *= max(
                    0.0,
                    selectivities.get(predicate.key, predicate.declared_selectivity),
                )
            stages.append(
                RemainingStage(
                    strategy=strategy,
                    selectivity=selectivity,
                    distinct_fraction=observation.stage_distinct_fraction.get(name, 1.0),
                    udf_seconds_per_call=observation.stage_seconds_per_call.get(name, 0.0),
                    argument_bytes=observation.stage_argument_bytes.get(name, 8.0),
                    result_bytes=observation.stage_result_bytes.get(name, 8.0),
                )
            )
        return stages

    # -- candidate shapes ----------------------------------------------------------------

    def _candidate_shapes(
        self,
        observation: SegmentObservation,
        selectivities: Mapping[str, float],
    ) -> List[PlanShape]:
        shape = self.current_shape
        # Enumerate from the committed order, whatever shape runs now, so the
        # candidate (tie-breaking) order does not depend on migration history.
        names = self._shapes[0].udf_order
        candidates: List[PlanShape] = [shape]

        if len(names) <= self.MAX_PERMUTATION_STAGES:
            for order in permutations(names):
                for assignment in product(
                    self.policy.candidate_strategies, repeat=len(order)
                ):
                    candidates.append(
                        PlanShape.of(order, dict(zip(order, assignment)))
                    )
        else:
            # Too many stages to enumerate orders exhaustively here: keep the
            # incumbent order but revisit every strategy assignment.
            for assignment in product(
                self.policy.candidate_strategies, repeat=len(names)
            ):
                candidates.append(PlanShape.of(names, dict(zip(names, assignment))))

        enumerated = self._enumerated_shape(observation, selectivities)
        if enumerated is not None:
            candidates.append(enumerated)

        unique: List[PlanShape] = []
        for candidate in candidates:
            if candidate not in unique:
                unique.append(candidate)
        return unique

    def _price(
        self,
        observation: SegmentObservation,
        selectivities: Mapping[str, float],
    ) -> Dict[PlanShape, float]:
        return {
            candidate: remaining_plan_cost(
                self._stage_sequence(candidate, observation, selectivities),
                observation.remaining_rows,
                record_bytes=observation.remaining_record_bytes,
                downlink_bandwidth=observation.downlink_bandwidth,
                uplink_bandwidth=observation.uplink_bandwidth,
                latency=observation.latency,
                settings=self.settings,
                batch_size=observation.batch_size,
            )
            for candidate in self._candidate_shapes(observation, selectivities)
        }

    # -- the enumerator re-entry ----------------------------------------------------------

    def _enumerated_shape(
        self,
        observation: SegmentObservation,
        selectivities: Mapping[str, float],
    ) -> Optional[PlanShape]:
        """Re-enter the System-R enumerator over the remaining input.

        The executed join tree is the partial-progress seed (every table
        operation applied, cardinality and byte shape overridden to the
        observed tail); the DP then explores every remaining UDF order and
        strategy variant with the calibrated estimator.
        """
        if self.query is None or self.network is None:
            return None
        from repro.core.optimizer.enumerator import SystemREnumerator
        from repro.core.optimizer.plans import operations_for_query
        from repro.core.optimizer.properties import PhysicalProperties

        view = RuntimeStatisticsView(
            selectivities=selectivities,
            udf_costs=dict(observation.stage_seconds_per_call),
            distinct_fractions=dict(observation.stage_distinct_fraction),
            store=self.statistics,
        )
        network = replace(
            self.network,
            downlink_bandwidth=observation.downlink_bandwidth
            if observation.downlink_bandwidth > 0
            else self.network.downlink_bandwidth,
            uplink_bandwidth=observation.uplink_bandwidth
            if observation.uplink_bandwidth > 0
            else self.network.uplink_bandwidth,
        )
        settings = self.settings.with_batch_size(max(1.0, observation.batch_size))
        estimator = CostEstimator(
            network,
            self.query,
            settings=settings,
            allow_deferred_return=False,
            statistics=view,
        )
        tables, udfs = operations_for_query(self.query, statistics=view)
        if not udfs:
            return None

        by_alias = {operation.alias.lower(): operation for operation in tables}
        order = [alias.lower() for alias in (self.table_order or by_alias.keys())]
        order = [alias for alias in order if alias in by_alias] or list(by_alias)
        seed = estimator.scan(by_alias[order[0]])
        for alias in order[1:]:
            seed = estimator.join(seed, by_alias[alias])
        # The join tree has executed: its cost is sunk, its output is the
        # observed tail.  Distinct counts are capped at the tail cardinality.
        remaining = float(observation.remaining_rows)
        seed = seed.extended(
            cost=0.0,
            cardinality=remaining,
            steps=(),
            column_distinct={
                name: max(1.0, min(value, remaining))
                for name, value in seed.column_distinct.items()
            },
            properties=PhysicalProperties(),
        )
        enumerator = SystemREnumerator(estimator, tables, udfs)
        self.enumerations += 1
        plan = enumerator.best_plan_from(seed)
        if not plan.udf_order:
            return None
        return PlanShape.of(plan.udf_order, plan.udf_strategies)

    def _headline(self) -> str:
        return (
            f"re-optimizer: {self.replan_count} migration(s) in "
            f"{self.attempt_count} boundary(ies), {self.enumerations} "
            f"enumerator re-entries"
        )


class RuntimeStatisticsView(StatisticsOverlay):
    """What *this* run has measured so far, over the store, over the defaults.

    The per-predicate-identity selectivities, per-UDF costs and distinct
    fractions of the running query are fresher than the database's
    cross-query :class:`~repro.adaptive.store.StatisticsStore` priors; every
    other look-up (joins, column evidence, planning inputs — the re-optimizer
    applies this run's bandwidths and batch size itself) is the store's.
    Handed to :class:`~repro.core.optimizer.cost.CostEstimator` and
    :func:`~repro.core.optimizer.plans.operations_for_query` when the
    enumerator is re-entered mid-query.
    """

    def __init__(
        self,
        selectivities: Mapping[str, float],
        udf_costs: Mapping[str, float],
        distinct_fractions: Mapping[str, float],
        store: Optional[StatisticsStore] = None,
    ) -> None:
        super().__init__(store)
        self._selectivities = {
            key: min(1.0, max(0.0, value)) for key, value in selectivities.items() if key
        }
        # A non-positive per-call cost is no measurement: the store's stands.
        self._udf_costs = {
            name.lower(): value for name, value in udf_costs.items() if value and value > 0
        }
        self._distinct = {
            name.lower(): min(1.0, max(0.0, value))
            for name, value in distinct_fractions.items()
        }

    # Each look-up: this run's number, else the store's, else the default.

    def udf_cost(self, name: str, default: float) -> float:
        return self._udf_costs.get(name.lower(), self._store.udf_cost(name, default))

    def udf_selectivity(
        self, name: str, default: float, predicate: Optional[str] = None
    ) -> float:
        prior = self._store.udf_selectivity(name, default, predicate)
        return self._selectivities.get(canonical_predicate_key(predicate), prior)

    def udf_distinct_fraction(self, name: str, default: float) -> float:
        return self._distinct.get(name.lower(), self._store.udf_distinct_fraction(name, default))

    def predicate_selectivity(self, predicate: str, default: float) -> float:
        prior = self._store.predicate_selectivity(predicate, default)
        return self._selectivities.get(canonical_predicate_key(predicate), prior)
