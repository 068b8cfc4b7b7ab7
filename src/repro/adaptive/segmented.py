"""What every mid-query adaptation shares: segments, boundaries, one ladder.

A segmented execution
(:class:`~repro.core.execution.adaptive.PlanMigrationOperator`) runs its input
in geometrically growing row slices and, at every segment boundary, hands a
:class:`SegmentController` what the run observed plus the exact byte shape of
the unprocessed tail (a :class:`SegmentObservation`).  The controller re-prices
the *remaining* rows under every candidate :class:`PlanShape` and climbs one
hysteresis ladder (:meth:`SegmentController.consider`) to decide whether the
tail runs under a different shape:

* **evidence floor** — no change before enough input rows were observed, so
  one tiny probe segment cannot flip the plan (waived when an earlier run
  already measured every predicate: a statistics-store prior);
* **relative margin** — the challenger must beat the incumbent's remaining
  cost by more than ``hysteresis`` (a fraction), so near-ties never move;
* **cooldown and budget** — after a change, ``cooldown_segments`` boundaries
  must pass before the next one, and a hard budget bounds the changes per
  query, so noise around a crossover cannot thrash the executor.

Controllers differ only in how they *price* shapes:
:class:`~repro.adaptive.switcher.StrategySwitcher` prices one UDF's shipping
strategies, :class:`~repro.adaptive.reoptimizer.ReOptimizer` whole UDF orders.
They never touch the simulator or the operators, and record every verdict in
:attr:`SegmentController.decisions` for tests and benchmarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.adaptive.store import StatisticsStore
from repro.core.optimizer.cost import CostSettings
from repro.core.strategies import ExecutionStrategy


class SegmentPolicy:
    """The segment schedule and hysteresis checks every adaptation policy shares.

    A mixin rather than a dataclass: each policy declares its own fields —
    their public names, order and defaults stay its own — and names the two
    that differ (its evidence floor and its change budget) here.
    """

    floor_field: ClassVar[str]
    budget_field: ClassVar[str]

    def __post_init__(self) -> None:
        if self.initial_segment_rows < 1:
            raise ValueError("initial_segment_rows must be at least 1")
        if self.segment_growth < 1.0:
            raise ValueError("segment_growth must be at least 1")
        if self.max_segment_rows < self.initial_segment_rows:
            raise ValueError("max_segment_rows must be >= initial_segment_rows")
        if self.hysteresis < 0.0:
            raise ValueError("hysteresis must be non-negative")
        for name in ("cooldown_segments", self.floor_field, self.budget_field):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not self.candidate_strategies:
            raise ValueError("candidate_strategies must not be empty")

    @property
    def evidence_floor(self) -> int:
        """Input rows that must be observed before the first change."""
        return getattr(self, self.floor_field)

    @property
    def change_budget(self) -> int:
        """Hard bound on shape changes per query."""
        return getattr(self, self.budget_field)

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
    per-call cost.  Bandwidths and per-call costs carry the *observed* values
    when there was enough traffic to measure them, else the configured /
    declared fallbacks — over the last segment for a per-UDF controller, the
    execution context's running totals for a plan-wide one
    (:attr:`SegmentController.plan_wide`).
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
    #: Per-row bytes a client-site join would return under the operator's
    #: projection (projected child columns plus the result).  Only a per-UDF
    #: controller is handed it; ``None`` prices the whole extended record.
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


class SegmentController:
    """Decides, boundary by boundary, which plan shape runs the next segment.

    Subclasses supply the pricing (:meth:`_price`) and a policy; the operator
    :meth:`bind`\\ s the controller to its stages and predicates, reads
    :attr:`current_shape` before every segment, and calls :meth:`consider`
    after it.
    """

    #: Whether the controller owns a whole UDF chain rather than one UDF.  A
    #: plan-wide controller is handed the execution context's running link
    #: and client totals and the plan-wide batch size, and its changes count
    #: as plan migrations; a per-UDF one is handed the last segment's deltas, its own
    #: UDF's batch size and projection, and its changes count as strategy
    #: switches.
    plan_wide: ClassVar[bool]
    #: The policy a controller built without one runs under.
    policy_type: ClassVar[type]
    #: How :meth:`describe` marks a boundary that changed the shape.
    change_marker: ClassVar[str]
    #: Whether further boundaries can no longer change the shape, so the
    #: operator should drain the tail as one segment.
    settled = False

    def __init__(
        self,
        policy: Optional[SegmentPolicy] = None,
        settings: Optional[CostSettings] = None,
        statistics: Optional[StatisticsStore] = None,
    ) -> None:
        self.policy = policy if policy is not None else self.policy_type()
        self.settings = settings if settings is not None else CostSettings()
        #: Source of measured priors: a selectivity an earlier run observed
        #: replaces the declared value as the initial estimate and counts as
        #: already-earned evidence for the floor.
        self.statistics = statistics
        self._shapes: List[PlanShape] = []
        self._predicates: Tuple[PredicateSpec, ...] = ()
        self._cooldown = 0
        #: Counters surfaced on :class:`~repro.server.metrics.ExecutionMetrics`.
        self.change_count = 0
        self.attempt_count = 0
        self.rows_observed = 0
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
        self.rows_observed = 0
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
        self.rows_observed = observation.rows_processed
        policy = self.policy
        shape = next_shape = self.current_shape
        selectivities = self._effective_selectivities(observation)
        costs: Dict[PlanShape, float] = {}

        if observation.remaining_rows <= 0:
            reason = "no rows remaining"
        elif self.change_count >= policy.change_budget:
            reason = f"{policy.budget_field} budget exhausted"
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
            incumbent = costs.get(shape)
            challenger = min(costs, key=costs.get)
            if incumbent is None or incumbent <= 0:
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
            if not predicate.key:
                continue
            survived, processed = observation.predicate_counts.get(predicate.key, (0, 0))
            if processed >= max(1, self.policy.evidence_floor):
                effective[predicate.key] = survived / processed
                continue
            prior = self._prior(predicate)
            effective[predicate.key] = (
                prior if prior is not None else predicate.declared_selectivity
            )
        return effective

    def _price(
        self, observation: SegmentObservation, selectivities: Mapping[str, float]
    ) -> Dict[PlanShape, float]:
        """Remaining-cost estimate per candidate shape, the incumbent included."""
        raise NotImplementedError

    # -- reporting ----------------------------------------------------------------------

    def _headline(self) -> str:
        raise NotImplementedError

    def describe(self) -> str:
        lines = [self._headline()]
        for decision in self.decisions:
            marker = self.change_marker if decision.changed else "keep"
            lines.append(f"  [{marker}] {decision.shape.describe()}: {decision.reason}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(changes={self.change_count}, "
            f"boundaries={self.attempt_count})"
        )
