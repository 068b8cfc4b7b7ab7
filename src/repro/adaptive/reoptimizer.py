"""Mid-query re-optimization: re-choosing UDF order and strategies mid-run.

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
whole client-site UDF chain it takes the observed per-predicate
selectivities (keyed by *canonical predicate identity*, so a reordered plan's
observations still match, falling back to the database's
:class:`~repro.adaptive.store.StatisticsStore` priors and then the
declarations), measured per-UDF costs and effective bandwidths, and prices
one candidate list — every UDF order × every assignment of the policy's
candidate strategies — with
:func:`~repro.core.optimizer.cost.remaining_plan_cost`.  The shared
hysteresis ladder then decides whether the tail migrates; unlike a strategy
switcher, a re-optimizer also *settles* (see :attr:`ReOptimizer.settled`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from typing import Dict, List, Mapping, Tuple

from repro.adaptive.segmented import (
    PlanShape,
    SegmentController,
    SegmentObservation,
    SegmentPolicy,
    assign_predicates_to_stages,
)
from repro.core.optimizer.cost import RemainingStage, remaining_plan_cost
from repro.core.strategies import ExecutionStrategy


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
    with a policy and the database's statistics store, and *bound* by the
    :class:`~repro.core.execution.adaptive.PlanMigrationOperator` to the
    concrete stages once the plan is built.
    """

    plan_wide = True
    policy_type = ReOptimizationPolicy
    change_marker = "MIGRATE"

    #: Candidate UDF orders are every permutation up to this many stages;
    #: beyond it, only the strategies of the committed order are revisited.
    MAX_PERMUTATION_STAGES = 3

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

    def _candidate_shapes(self) -> List[PlanShape]:
        """The incumbent, then every UDF order × policy strategy assignment.

        Orders are permuted up to :attr:`MAX_PERMUTATION_STAGES` stages; a
        longer chain keeps its committed order and revisits its strategies.
        """
        # Enumerate from the committed order, whatever shape runs now, so the
        # candidate (tie-breaking) order does not depend on migration history.
        names = self._shapes[0].udf_order
        orders = permutations(names) if len(names) <= self.MAX_PERMUTATION_STAGES else (names,)
        candidates = [self.current_shape]
        for order in orders:
            for assignment in product(self.policy.candidate_strategies, repeat=len(order)):
                candidates.append(PlanShape.of(order, dict(zip(order, assignment))))
        return list(dict.fromkeys(candidates))

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
                batch_size=observation.batch_size,
            )
            for candidate in self._candidate_shapes()
        }

    def _headline(self) -> str:
        return (
            f"re-optimizer: {self.replan_count} migration(s) in "
            f"{self.attempt_count} boundary(ies)"
        )

