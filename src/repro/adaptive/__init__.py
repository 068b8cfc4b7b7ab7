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
* :mod:`repro.adaptive.segmented` — what mid-query adaptation shares: the
  segment schedule (:class:`SegmentPolicy`), the boundary observation
  (:class:`SegmentObservation`) and the :class:`SegmentController`, whose one
  hysteresis ladder (evidence floor, margin, cooldown, budget) decides at
  every segment boundary whether the unprocessed tail of the input runs
  under a different :class:`PlanShape`.  Two controllers subclass it and
  differ in pricing, in whether they read last-segment or cumulative
  evidence, in whether they settle, and in which metric their changes count
  toward:
* :mod:`repro.adaptive.switcher` — :class:`StrategySwitcher`, per UDF: prices
  the *remaining* rows under every shipping strategy;
* :mod:`repro.adaptive.reoptimizer` — :class:`ReOptimizer`, plan-wide:
  re-enters the System-R enumerator over the *remaining* input and prices
  whole UDF application orders (with per-UDF strategies).

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
from repro.adaptive.reoptimizer import (
    ReOptimizationPolicy,
    ReOptimizer,
    RuntimeStatisticsView,
)
from repro.adaptive.segmented import (
    BoundaryDecision,
    PlanShape,
    PredicateSpec,
    SegmentController,
    SegmentObservation,
    SegmentPolicy,
)
from repro.adaptive.store import (
    STORE_VERSION,
    StatisticsStore,
    TenantStatistics,
    canonical_join_key,
    canonical_predicate_key,
)
from repro.adaptive.switcher import StrategySwitcher, SwitchPolicy

__all__ = [
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
    "ReOptimizationPolicy",
    "ReOptimizer",
    "RuntimeObserver",
    "RuntimeStatisticsView",
    "UdfObservation",
    "SegmentController",
    "SegmentObservation",
    "SegmentPolicy",
    "STORE_VERSION",
    "StatisticsStore",
    "TenantStatistics",
    "StrategySwitcher",
    "SwitchPolicy",
    "canonical_join_key",
    "canonical_predicate_key",
]
