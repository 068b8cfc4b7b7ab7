"""Mid-query adaptation: segments, boundaries, one ladder, one controller.

A segmented execution
(:class:`~repro.core.execution.adaptive.PlanMigrationOperator`) runs its input
in geometrically growing row slices and, at every segment boundary, hands its
:class:`ReOptimizer` what the run observed plus the exact byte shape of the
unprocessed tail (a :class:`SegmentObservation`).  The controller prices the
*remaining* rows under one candidate list — the incumbent, then every UDF
order × every assignment of the policy's candidate strategies — with
:func:`~repro.core.optimizer.cost.remaining_plan_cost`, and climbs one
hysteresis ladder (:meth:`ReOptimizer.consider`) to decide whether the tail
runs under a different :class:`PlanShape`:

* **evidence floor** — no change before enough input rows were observed, so
  one tiny probe segment cannot flip the plan (waived when an earlier run
  already measured every predicate: a statistics-store prior);
* **relative margin** — the challenger must beat the incumbent's remaining
  cost by more than ``hysteresis`` (a fraction), so near-ties never move;
* **cooldown and budget** — after a change, ``cooldown_segments`` boundaries
  must pass before the next one, and a hard budget bounds the changes per
  query, so noise around a crossover cannot thrash the executor.

Strategy switching is re-optimization with the UDF order held: a one-stage
operator has one order, so its candidates are that UDF under each candidate
strategy (:data:`SWITCHING_POLICY` lists all three).  Whether a config's
``switch_policy`` or its ``reoptimizer`` armed the controller decides only
which metric its changes count toward (:attr:`ReOptimizer.plan_wide`).  The
controller never touches the simulator or the operators, and records every
verdict in :attr:`ReOptimizer.decisions`; the operator books them, detached,
as one :class:`Adaptation` on its execution context when it finishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import permutations, product
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.adaptive.store import StatisticsStore
from repro.core.optimizer.cost import RemainingStage, remaining_plan_cost
from repro.core.strategies import ExecutionStrategy


@dataclass(frozen=True)
class AdaptationPolicy:
    """Declarative knobs of mid-query adaptation.

    The policy is plain configuration (hashable, comparable); the mutable
    per-query state lives in the :class:`ReOptimizer` that runs under it.
    The defaults guard plan-shape migration, which rebuilds the whole
    remaining pipeline; :data:`SWITCHING_POLICY` holds the switching ones.

    Parameters
    ----------
    initial_segment_rows:
        Rows of the first (probe) segment.  Small enough that a wrong
        committed shape only processes a sliver of the input before the
        first re-costing; large enough to observe a meaningful selectivity.
    segment_growth:
        Multiplicative growth of successive segments, bounding the total
        segment-boundary overhead at O(log n) extra round trips.
    max_segment_rows:
        Cap on the segment size (keeps late segments re-costable).
    evidence_floor:
        No change before this many input rows were observed.
    hysteresis:
        Relative margin a challenger must win by (0.25 = the challenger's
        remaining-cost estimate must be >25% cheaper).
    cooldown_segments:
        Segment boundaries that must pass after a change before another
        change may fire.
    change_budget:
        Hard bound on shape changes per query.
    confirmation_boundaries:
        After this many *consecutive* fully-priced boundaries that confirmed
        the incumbent shape, the controller settles: further boundaries
        would be pure overhead (extra messages, pipeline fills), so the
        executor drains the remaining input in one segment.  0 disables
        settling on confirmation (a spent budget still settles).
    candidate_strategies:
        The strategies each UDF may be assigned.
    """

    initial_segment_rows: int = 24
    segment_growth: float = 2.0
    max_segment_rows: int = 512
    evidence_floor: int = 16
    hysteresis: float = 0.25
    cooldown_segments: int = 1
    change_budget: int = 2
    confirmation_boundaries: int = 2
    candidate_strategies: Tuple[ExecutionStrategy, ...] = (
        ExecutionStrategy.SEMI_JOIN,
        ExecutionStrategy.CLIENT_SITE_JOIN,
    )

    def __post_init__(self) -> None:
        if self.initial_segment_rows < 1:
            raise ValueError("initial_segment_rows must be at least 1")
        if self.segment_growth < 1.0:
            raise ValueError("segment_growth must be at least 1")
        if self.max_segment_rows < self.initial_segment_rows:
            raise ValueError("max_segment_rows must be >= initial_segment_rows")
        if self.hysteresis < 0.0:
            raise ValueError("hysteresis must be non-negative")
        for name in (
            "evidence_floor",
            "cooldown_segments",
            "change_budget",
            "confirmation_boundaries",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not self.candidate_strategies:
            raise ValueError("candidate_strategies must not be empty")

    def next_segment_rows(self, segment_index: int) -> int:
        """Rows the ``segment_index``-th segment (0-based) should process."""
        if self.segment_growth == 1.0:
            return max(1, self.initial_segment_rows)
        # Clamp the exponent at the point the cap is reached, so arbitrarily
        # many segments (huge inputs) never overflow the exponentiation.
        limit = math.log(
            max(1.0, self.max_segment_rows / self.initial_segment_rows),
            self.segment_growth,
        )
        exponent = min(float(segment_index), limit + 1.0)
        rows = self.initial_segment_rows * self.segment_growth ** exponent
        return max(1, min(self.max_segment_rows, int(rows)))


#: Mid-query strategy switching: every shipping strategy is a candidate, a
#: budget of three switches, and no settling on confirmation — a switch-armed
#: operator keeps re-costing until its budget is spent.
SWITCHING_POLICY = AdaptationPolicy(
    change_budget=3,
    confirmation_boundaries=0,
    candidate_strategies=tuple(ExecutionStrategy),
)


@dataclass(frozen=True)
class PlanShape:
    """The migratable part of a committed plan: UDF order and strategies."""

    udf_order: Tuple[str, ...]
    udf_strategies: Tuple[Tuple[str, ExecutionStrategy], ...]

    @classmethod
    def of(
        cls, order: Sequence[str], strategies: Mapping[str, ExecutionStrategy]
    ) -> "PlanShape":
        lowered = {name.lower(): strategy for name, strategy in strategies.items()}
        order = tuple(name.lower() for name in order)
        return cls(
            udf_order=order,
            udf_strategies=tuple((name, lowered[name]) for name in order),
        )

    def strategy_of(self, name: str) -> ExecutionStrategy:
        key = name.lower()
        for candidate, strategy in self.udf_strategies:
            if candidate == key:
                return strategy
        raise KeyError(name)

    def describe(self) -> str:
        return " -> ".join(
            f"{name}[{strategy.value}]" for name, strategy in self.udf_strategies
        )


@dataclass(frozen=True)
class PredicateSpec:
    """One UDF-referencing predicate, identified independently of plan shape."""

    #: Canonical identity key (:func:`~repro.adaptive.store.canonical_predicate_key`).
    key: str
    #: Lower-cased names of the UDFs whose results the predicate references.
    udf_names: FrozenSet[str]
    declared_selectivity: float = 1.0


def assign_predicates_to_stages(
    order: Sequence[str], predicates: Sequence[object]
) -> List[List[int]]:
    """Indexes of ``predicates`` assigned per stage of ``order``.

    Each predicate (anything with a lower-cased ``udf_names`` set) goes to
    the *earliest* stage at which every UDF it references has been applied.
    The migration executor (building pipelines), the cost model (pricing
    shapes), and the observer attribution all share this one rule — result
    equivalence across migration paths depends on them agreeing.
    """
    applied: set = set()
    assigned: set = set()
    result: List[List[int]] = []
    for name in order:
        applied.add(name)
        stage: List[int] = []
        for index, predicate in enumerate(predicates):
            if index in assigned or not predicate.udf_names <= applied:
                continue
            assigned.add(index)
            stage.append(index)
        result.append(stage)
    return result


@dataclass(frozen=True)
class SegmentObservation:
    """What the segmented operator observed, handed over at a segment boundary.

    ``predicate_counts`` maps canonical predicate keys to cumulative
    ``(rows_surviving, rows_processed)`` pairs; the per-UDF mappings are
    keyed by lower-cased UDF name and describe the *remaining* tail
    (per-row argument bytes, suffix distinct fraction) and the measured
    per-call cost.  Bandwidths and per-call costs carry the values observed
    over the execution context's running totals when there was enough
    traffic to measure them, else the configured / declared fallbacks.
    """

    rows_processed: int
    remaining_rows: int
    remaining_record_bytes: float
    predicate_counts: Mapping[str, Tuple[int, int]]
    stage_argument_bytes: Mapping[str, float]
    stage_result_bytes: Mapping[str, float]
    stage_distinct_fraction: Mapping[str, float]
    stage_seconds_per_call: Mapping[str, float]
    downlink_bandwidth: float
    uplink_bandwidth: float
    latency: float = 0.0
    batch_size: float = 1.0
    #: Per-row bytes a client-site join would return under a one-stage
    #: operator's projection (projected child columns plus the result).  A
    #: chain is handed ``None``: each stage returns its whole extended record.
    returned_row_bytes: Optional[float] = None
    #: The configured in-flight batch window, when the overlapped shipping
    #: protocol is explicitly armed — re-costing then prices the naive
    #: strategy as pipelined rather than synchronous.  ``None`` keeps each
    #: strategy's default assumption.
    overlap_window: Optional[float] = None


@dataclass(frozen=True)
class BoundaryDecision:
    """One segment-boundary verdict, for introspection and tests.

    ``costs`` is empty when the ladder stopped before pricing (evidence
    floor, cooldown, budget); ``observed_selectivities`` holds the estimate
    pricing used per predicate key — observed once past the evidence floor,
    else the store prior, else the declaration.
    """

    shape: PlanShape
    next_shape: PlanShape
    remaining_rows: int
    costs: Dict[PlanShape, float]
    reason: str
    observed_selectivities: Dict[str, float] = field(default_factory=dict)

    @property
    def changed(self) -> bool:
        return self.next_shape != self.shape


@dataclass(frozen=True)
class Adaptation:
    """One segmented operator's finished run, as it booked it on its context.

    Whether a plan-wide ``reoptimizer`` or a per-UDF ``switch_policy`` armed
    its controller, the shape it started under and every boundary verdict
    in order: what
    :class:`~repro.server.metrics.ExecutionMetrics` reads the switching and
    re-optimization figures off.  Detached from the controller, so reusing
    the controller for the next query leaves it unchanged.
    """

    plan_wide: bool
    initial_shape: PlanShape
    decisions: Tuple[BoundaryDecision, ...] = ()

    @property
    def shapes(self) -> Tuple[PlanShape, ...]:
        """The shapes the run moved through, in order."""
        return (self.initial_shape,) + tuple(
            decision.next_shape for decision in self.decisions if decision.changed
        )

    @property
    def changes(self) -> int:
        return len(self.shapes) - 1


def strategies_used(adaptations: Sequence[Adaptation]) -> Tuple[ExecutionStrategy, ...]:
    """The distinct strategies ``adaptations`` ran, in first-use order."""
    shapes = (shape for adaptation in adaptations for shape in adaptation.shapes)
    return tuple(dict.fromkeys(s for shape in shapes for _, s in shape.udf_strategies))


class ReOptimizer:
    """Decides, boundary by boundary, which plan shape runs the next segment.

    Constructed by :meth:`~repro.server.engine.Database.execute` (a config's
    ``reoptimizer``), by :func:`~repro.core.execution.rewrite.build_operator`
    (from a config's ``switch_policy``) or by tests, with a policy and the
    database's statistics store.  The
    :class:`~repro.core.execution.adaptive.PlanMigrationOperator` :meth:`bind`\\ s
    it to the built plan's stages and predicates, reads
    :attr:`current_shape` before every segment, and calls :meth:`consider`
    after it.
    """

    #: Candidate UDF orders are every permutation up to this many stages;
    #: beyond it, only the strategies of the committed order are revisited.
    MAX_PERMUTATION_STAGES = 3

    def __init__(
        self,
        policy: Optional[AdaptationPolicy] = None,
        statistics: Optional[StatisticsStore] = None,
        *,
        plan_wide: bool = True,
    ) -> None:
        self.policy = policy if policy is not None else AdaptationPolicy()
        #: Source of measured priors: a selectivity an earlier run observed
        #: replaces the declared value as the initial estimate and counts as
        #: already-earned evidence for the floor.
        self.statistics = statistics
        #: Which config field armed the controller, booked on its
        #: :class:`Adaptation`: a ``reoptimizer`` (plan-wide — boundaries
        #: count as re-plan attempts, changes as plan migrations) or a
        #: ``switch_policy`` (per-UDF — changes count as strategy switches).
        #: Pricing and the ladder never read it.
        self.plan_wide = plan_wide
        self._shapes: List[PlanShape] = []
        self._predicates: Tuple[PredicateSpec, ...] = ()
        self._cooldown = 0
        #: Shape changes and priced-or-not boundaries of the current query.
        self.change_count = 0
        self.attempt_count = 0
        #: Every segment-boundary verdict, in order.
        self.decisions: List[BoundaryDecision] = []

    def bind(
        self, initial_shape: PlanShape, predicates: Sequence[PredicateSpec] = ()
    ) -> None:
        """Anchor the controller to the built plan's stages and predicates.

        Binding starts a fresh query: all per-query runtime state (decisions,
        counters, cooldown) is reset, so a controller attached to a reusable
        :class:`~repro.core.strategies.StrategyConfig` does not carry a spent
        budget or a settled verdict into the next query.
        """
        self._shapes = [initial_shape]
        self._predicates = tuple(predicates)
        self._cooldown = 0
        self.change_count = 0
        self.attempt_count = 0
        self.decisions = []

    @property
    def current_shape(self) -> PlanShape:
        if not self._shapes:
            raise RuntimeError(f"{type(self).__name__}.bind() must run before execution")
        return self._shapes[-1]

    @property
    def shapes_used(self) -> Tuple[PlanShape, ...]:
        """The distinct shapes the query ran under, in first-use order."""
        return tuple(dict.fromkeys(self._shapes))

    @property
    def strategies_used(self) -> Tuple[ExecutionStrategy, ...]:
        """The distinct strategies the query ran, in first-use order."""
        return tuple(
            dict.fromkeys(
                strategy for shape in self._shapes for _, strategy in shape.udf_strategies
            )
        )

    @property
    def settled(self) -> bool:
        """Whether further segment boundaries can no longer change the shape.

        True once the change budget is spent, or once
        ``confirmation_boundaries`` consecutive fully-priced boundaries all
        confirmed the incumbent — the executor then drains the remaining
        input in one segment instead of paying boundary overhead for
        decisions that cannot (or will not) change the shape.
        """
        if self.change_count >= self.policy.change_budget:
            return True
        window = self.policy.confirmation_boundaries
        if window <= 0 or len(self.decisions) < window:
            return False
        recent = self.decisions[-window:]
        # Only fully-priced keeps count as confirmation: an evidence-floor or
        # cooldown keep never compared the candidate shapes at all.
        return all((not decision.changed) and decision.costs for decision in recent)

    def adaptation(self) -> Adaptation:
        """The query's run so far, detached from the controller."""
        return Adaptation(self.plan_wide, self._shapes[0], tuple(self.decisions))

    def _prior(self, predicate: PredicateSpec) -> Optional[float]:
        """The store's measured prior for this predicate identity, if any."""
        if self.statistics is None or not predicate.key:
            return None
        return self.statistics.selectivity_prior(
            next(iter(predicate.udf_names), ""), predicate.key
        )

    # -- the ladder ---------------------------------------------------------------------

    def consider(self, observation: SegmentObservation) -> BoundaryDecision:
        """Fold one segment boundary in; may change :attr:`current_shape`."""
        self.attempt_count += 1
        policy = self.policy
        shape = next_shape = self.current_shape
        selectivities = self._effective_selectivities(observation)
        costs: Dict[PlanShape, float] = {}

        if observation.remaining_rows <= 0:
            reason = "no rows remaining"
        elif self.change_count >= policy.change_budget:
            reason = "change budget exhausted"
        elif self._cooldown > 0:
            reason = f"cooldown: {self._cooldown} segment boundary(ies) left"
        elif observation.rows_processed < policy.evidence_floor and not (
            self._predicates
            and all(self._prior(predicate) is not None for predicate in self._predicates)
        ):
            # A full set of measured store priors pre-earns the floor.
            reason = (
                f"evidence floor: {observation.rows_processed} < "
                f"{policy.evidence_floor} rows observed"
            )
        else:
            costs = self._price(observation, selectivities)
            incumbent = costs[shape]
            challenger = min(costs, key=costs.get)
            if incumbent <= 0:
                reason = "incumbent not re-costable"
            elif challenger == shape:
                reason = "incumbent still cheapest"
            else:
                margin = (incumbent - costs[challenger]) / incumbent
                if margin <= policy.hysteresis:
                    reason = (
                        f"{challenger.describe()} only {margin:.0%} cheaper "
                        f"(hysteresis {policy.hysteresis:.0%})"
                    )
                else:
                    next_shape = challenger
                    reason = (
                        f"{challenger.describe()} {margin:.0%} cheaper for the "
                        f"remaining {observation.remaining_rows} rows"
                    )

        decision = BoundaryDecision(
            shape=shape,
            next_shape=next_shape,
            remaining_rows=observation.remaining_rows,
            costs=costs,
            reason=reason,
            observed_selectivities=selectivities,
        )
        self.decisions.append(decision)
        if decision.changed:
            self._shapes.append(next_shape)
            self.change_count += 1
            self._cooldown = policy.cooldown_segments
        elif self._cooldown > 0:
            self._cooldown -= 1
        return decision

    def _effective_selectivities(
        self, observation: SegmentObservation
    ) -> Dict[str, float]:
        """Per-predicate-identity selectivity: observed, else prior, else declared."""
        effective: Dict[str, float] = {}
        for predicate in self._predicates:
            survived, processed = observation.predicate_counts.get(predicate.key, (0, 0))
            if processed >= max(1, self.policy.evidence_floor):
                effective[predicate.key] = survived / processed
                continue
            prior = self._prior(predicate)
            effective[predicate.key] = (
                prior if prior is not None else predicate.declared_selectivity
            )
        return effective

    # -- pricing ---------------------------------------------------------------------------

    def _candidate_shapes(self) -> List[PlanShape]:
        """The incumbent, then every UDF order × policy strategy assignment.

        Orders are permuted up to :attr:`MAX_PERMUTATION_STAGES` stages; a
        longer chain keeps its committed order and revisits its strategies.
        A one-stage shape has one order: its candidates are its strategies.
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
                    returned_row_bytes=observation.returned_row_bytes,
                )
            )
        return stages

    def _price(
        self,
        observation: SegmentObservation,
        selectivities: Mapping[str, float],
    ) -> Dict[PlanShape, float]:
        """Remaining-cost estimate per candidate shape, the incumbent first."""
        return {
            candidate: remaining_plan_cost(
                self._stage_sequence(candidate, observation, selectivities),
                observation.remaining_rows,
                record_bytes=observation.remaining_record_bytes,
                downlink_bandwidth=observation.downlink_bandwidth,
                uplink_bandwidth=observation.uplink_bandwidth,
                latency=observation.latency,
                batch_size=observation.batch_size,
                overlap_window=observation.overlap_window,
            )
            for candidate in self._candidate_shapes()
        }

    # -- reporting ----------------------------------------------------------------------

    def describe(self) -> str:
        shapes = " => ".join(shape.describe() for shape in self.shapes_used)
        lines = [
            f"re-optimizer: {shapes} ({self.change_count} change(s) in "
            f"{self.attempt_count} boundary(ies))"
        ]
        for decision in self.decisions:
            marker = "CHANGE" if decision.changed else "keep"
            lines.append(f"  [{marker}] {decision.shape.describe()}: {decision.reason}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(changes={self.change_count}, "
            f"boundaries={self.attempt_count})"
        )
