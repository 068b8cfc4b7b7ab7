"""Workload generators for the paper's experiments and the examples.

* :mod:`repro.workloads.synthetic` — generic relations of sized data objects
  with controllable duplicate ratios, plus synthetic UDFs with declared
  result sizes and selectivities (what Section 4's experiments use);
* :mod:`repro.workloads.stock` — the stock-market scenario of the paper's
  introduction (StockQuotes, Estimations, ClientAnalysis, Volatility);
* :mod:`repro.workloads.experiments` — the sweep harness (a grid declared as
  data) and the run-point functions that regenerate each figure of the
  evaluation section.
"""

from repro.workloads.synthetic import (
    SyntheticWorkload,
    make_object_relation,
    make_udf_relation,
    register_identity_udf,
    register_sized_udf,
)
from repro.workloads.stock import StockWorkload
from repro.workloads.experiments import ExperimentPoint, Sized, Sweep
from repro.workloads.drift import (
    drifting_bandwidth_network,
    fading_uplink_scenario,
)
from repro.workloads.misestimation import (
    MisestimatedSelectivityScenario,
    overestimated_selectivity_scenario,
    underestimated_selectivity_scenario,
)

__all__ = [
    "drifting_bandwidth_network",
    "fading_uplink_scenario",
    "MisestimatedSelectivityScenario",
    "overestimated_selectivity_scenario",
    "underestimated_selectivity_scenario",
    "SyntheticWorkload",
    "make_object_relation",
    "make_udf_relation",
    "register_identity_udf",
    "register_sized_udf",
    "StockWorkload",
    "ExperimentPoint",
    "Sized",
    "Sweep",
]
