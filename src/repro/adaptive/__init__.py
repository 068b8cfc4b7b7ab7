"""The adaptive runtime subsystem: observe → calibrate → adapt.

The paper's cost model assumes the optimizer knows link bandwidth, UDF cost,
and selectivity up front.  In a production client-server system serving
heterogeneous clients those numbers are wrong until observed.  This package
closes the loop:

* :mod:`repro.adaptive.observer` — :class:`RuntimeObserver` derives per-link
  effective bandwidth, per-UDF measured cost, and observed selectivities from
  the accounting the runtime already keeps (:class:`LinkStats`, client
  counters, operator row counts);
* :mod:`repro.adaptive.store` — :class:`StatisticsStore` persists those
  observations across queries (EWMA-blended) and exposes calibrated planning
  inputs, so the optimizer's second query on a network plans with measured —
  not configured — parameters;
* :mod:`repro.adaptive.controller` — :class:`BatchSizeController`
  hill-climbs the per-message batch size on observed rows/second *while a
  query runs*; a :class:`BatchControllerBank` gives every UDF its own
  controller with an independent ladder and warm start;
* :mod:`repro.adaptive.segmented` — mid-query adaptation: at every segment
  boundary of a segmented operator one :class:`ReOptimizer` prices the
  *remaining* rows under every candidate :class:`PlanShape` (UDF order ×
  per-UDF strategies, from the boundary's :class:`SegmentObservation`) and
  one hysteresis ladder (evidence floor, margin, cooldown, budget) decides
  whether the unprocessed tail runs under a different shape.  Strategy
  switching is the same controller over a one-stage operator, whose one
  order leaves only the strategies to choose (:data:`SWITCHING_POLICY`).

``Database.execute(..., adaptive=True)`` wires the observe → calibrate →
adapt loop together; ``switch_strategies=True`` additionally arms mid-query
strategy switching, and ``reoptimize=True`` arms full mid-query
re-optimization with plan-shape migration.
"""

from repro.adaptive.controller import (
    BatchControllerBank,
    BatchDecision,
    BatchSizeController,
    OverlapWindowController,
)
from repro.adaptive.observer import (
    JoinObservation,
    LinkObservation,
    PredicateObservation,
    QueryObservation,
    RuntimeObserver,
    UdfObservation,
)
from repro.adaptive.segmented import (
    SWITCHING_POLICY,
    Adaptation,
    AdaptationPolicy,
    BoundaryDecision,
    PlanShape,
    PredicateSpec,
    ReOptimizer,
    SegmentObservation,
)
from repro.adaptive.store import (
    STORE_VERSION,
    StatisticsStore,
    TenantStatistics,
    canonical_join_key,
    canonical_predicate_key,
)

__all__ = [
    "Adaptation",
    "AdaptationPolicy",
    "BatchControllerBank",
    "BatchDecision",
    "BatchSizeController",
    "BoundaryDecision",
    "JoinObservation",
    "LinkObservation",
    "OverlapWindowController",
    "PlanShape",
    "PredicateObservation",
    "PredicateSpec",
    "QueryObservation",
    "ReOptimizer",
    "RuntimeObserver",
    "UdfObservation",
    "SegmentObservation",
    "STORE_VERSION",
    "SWITCHING_POLICY",
    "StatisticsStore",
    "TenantStatistics",
    "canonical_join_key",
    "canonical_predicate_key",
]
