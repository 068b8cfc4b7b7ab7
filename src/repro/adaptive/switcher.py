"""Mid-query strategy switching on observed selectivity and bandwidth.

The optimizer commits to naive / semi-join / client-site-join from *declared*
UDF selectivity and *configured* link bandwidths.  The paper's central claim
is that this choice hinges on exactly those two quantities — which the plan
only guesses at until rows actually flow.  The :class:`StrategySwitcher`
closes that gap mid-query for *one* UDF: it is the single-stage
:class:`~repro.adaptive.segmented.SegmentController`, whose candidate shapes
are that UDF under each of ``SwitchPolicy.candidate_strategies``.  At segment
boundaries it re-costs the remaining rows per strategy with
:func:`~repro.core.optimizer.cost.remaining_strategy_cost` — projection-aware
(the client-site join returns only the operator's projected columns) and
under the configured overlap window — and the shared hysteresis ladder
decides whether the unprocessed tail goes to a different strategy executor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.adaptive.segmented import (
    PlanShape,
    SegmentController,
    SegmentObservation,
    SegmentPolicy,
)
from repro.core.optimizer.cost import remaining_strategy_cost
from repro.core.strategies import ExecutionStrategy


@dataclass(frozen=True)
class SwitchPolicy(SegmentPolicy):
    """Declarative knobs of mid-query strategy switching.

    The policy is plain configuration (hashable, comparable); the mutable
    per-operator state lives in the :class:`StrategySwitcher` the executor
    instantiates from it.

    Parameters
    ----------
    initial_segment_rows:
        Rows of the first (probe) segment.  Small enough that a wrong
        committed strategy only processes a sliver of the input before the
        first re-costing; large enough to observe a meaningful selectivity.
    segment_growth:
        Multiplicative growth of successive segments, bounding the total
        segment-boundary overhead at O(log n) extra round trips.
    max_segment_rows:
        Cap on the segment size (keeps late segments re-costable).
    min_rows_before_switch:
        Evidence floor: no switch before this many input rows were observed.
    hysteresis:
        Relative margin a challenger strategy must win by (0.25 = the
        challenger's remaining-cost estimate must be >25% cheaper).
    cooldown_segments:
        Segment boundaries that must pass after a switch before another
        switch may fire.
    max_switches:
        Hard budget of switches per operator.
    candidate_strategies:
        The strategies considered (defaults to all three).
    """

    initial_segment_rows: int = 24
    segment_growth: float = 2.0
    max_segment_rows: int = 512
    min_rows_before_switch: int = 16
    hysteresis: float = 0.25
    cooldown_segments: int = 1
    max_switches: int = 3
    candidate_strategies: Tuple[ExecutionStrategy, ...] = (
        ExecutionStrategy.NAIVE,
        ExecutionStrategy.SEMI_JOIN,
        ExecutionStrategy.CLIENT_SITE_JOIN,
    )

    floor_field = "min_rows_before_switch"
    budget_field = "max_switches"


class StrategySwitcher(SegmentController):
    """Per-operator controller deciding which strategy runs the next segment.

    One switcher belongs to one UDF (per-UDF adaptation, not plan-wide): its
    observed selectivity is the cumulative surviving fraction of *this* UDF's
    predicate, and its switch budget is independent of any other UDF in the
    plan.
    """

    plan_wide = False
    policy_type = SwitchPolicy
    change_marker = "SWITCH"

    @property
    def current_strategy(self) -> ExecutionStrategy:
        return self.current_shape.udf_strategies[0][1]

    @property
    def switch_count(self) -> int:
        return self.change_count

    @property
    def prior_selectivity(self) -> Optional[float]:
        """The store's measured prior for this UDF's predicate, if any."""
        return self._prior(self._predicates[0]) if self._predicates else None

    def _price(
        self, observation: SegmentObservation, selectivities: Mapping[str, float]
    ) -> Dict[PlanShape, float]:
        name = self.current_shape.udf_order[0]
        selectivity = 1.0
        for value in selectivities.values():
            selectivity *= value
        return {
            PlanShape.of([name], {name: strategy}): remaining_strategy_cost(
                strategy,
                observation.remaining_rows,
                record_bytes=observation.remaining_record_bytes,
                argument_bytes=observation.stage_argument_bytes[name],
                result_bytes=observation.stage_result_bytes[name],
                returned_row_bytes=observation.returned_row_bytes,
                selectivity=selectivity,
                distinct_fraction=observation.stage_distinct_fraction[name],
                udf_seconds_per_call=observation.stage_seconds_per_call[name],
                downlink_bandwidth=observation.downlink_bandwidth,
                uplink_bandwidth=observation.uplink_bandwidth,
                latency=observation.latency,
                settings=self.settings,
                batch_size=observation.batch_size,
                overlap_window=observation.overlap_window,
            )
            for strategy in self.policy.candidate_strategies
        }

    def _headline(self) -> str:
        return (
            f"strategy switcher: {' -> '.join(s.value for s in self.strategies_used)} "
            f"({self.switch_count} switch(es), {self.rows_observed} rows observed)"
        )
