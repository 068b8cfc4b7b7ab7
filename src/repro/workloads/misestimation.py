"""Misestimated-selectivity scenarios for mid-query strategy switching.

The optimizer's semi-join vs. client-site-join choice hinges on the UDF's
predicate selectivity (Figures 8-10) — a number the plan takes on faith from
the UDF's declaration.  These scenarios make the declaration *wrong by a
large factor*: the planner, believing the declared selectivity, commits to
the strategy the paper's cost model recommends for it, while the data
realises a very different selectivity for which the *other* strategy wins.
A committed (static) execution is then provably wrong for most of the query;
a mid-query switching execution observes the true selectivity within the
first probe segments and hands the tail to the right strategy.

The relation is laid out *interleaved* (passing rows spread uniformly, same
multiset), because a run can only observe the true selectivity early if any
prefix of the input reveals it — the clustered layout the plain sweeps use
would show a probe segment 100% (or 0%) selectivity regardless of the truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.adaptive.segmented import SWITCHING_POLICY, AdaptationPolicy
from repro.core.costmodel import CostModel, CostParameters
from repro.core.strategies import ExecutionStrategy
from repro.network.topology import NetworkConfig
from repro.workloads.synthetic import SyntheticWorkload


@dataclass
class MisestimatedSelectivityScenario:
    """A workload whose declared UDF selectivity is wrong by ``>= 5x``.

    ``declared_selectivity`` is what the UDF tells the planner;
    ``actual_selectivity`` is what the data realises.  The defaults (0.9
    declared, 0.1 actual — a 9x misestimate) on the paper's asymmetric
    N = 100 network make the cost model commit to the semi-join while the
    client-site join is the oracle choice: the declared 0.9 says nine of ten
    extended records would come back over the slow uplink, the actual 0.1
    means only one in ten does.
    """

    declared_selectivity: float = 0.9
    actual_selectivity: float = 0.1
    row_count: int = 600
    input_record_bytes: int = 1000
    argument_fraction: float = 0.5
    result_bytes: int = 1000
    distinct_fraction: float = 1.0
    udf_cost_seconds: float = 0.001
    network: NetworkConfig = field(
        default_factory=lambda: NetworkConfig.paper_asymmetric(asymmetry=100.0)
    )

    def __post_init__(self) -> None:
        if self.misestimation_factor < 5.0:
            raise ValueError(
                "a misestimation scenario needs declared and actual selectivity "
                f"at least 5x apart, got {self.misestimation_factor:.1f}x"
            )

    @property
    def misestimation_factor(self) -> float:
        """How wrong the declaration is (ratio of the larger to the smaller)."""
        low = max(1e-9, min(self.declared_selectivity, self.actual_selectivity))
        high = max(self.declared_selectivity, self.actual_selectivity)
        return high / low

    def workload(self) -> SyntheticWorkload:
        """The executable workload: actual data, wrong declaration, interleaved."""
        return SyntheticWorkload(
            row_count=self.row_count,
            input_record_bytes=self.input_record_bytes,
            argument_fraction=self.argument_fraction,
            result_bytes=self.result_bytes,
            selectivity=self.actual_selectivity,
            distinct_fraction=self.distinct_fraction,
            udf_cost_seconds=self.udf_cost_seconds,
            declared_selectivity=self.declared_selectivity,
            interleaved=True,
        )

    # -- what the planner (wrongly) and an oracle (rightly) would commit to ------------

    def _parameters(self, selectivity: float) -> CostParameters:
        return CostParameters.paper_experiment(
            input_record_bytes=self.input_record_bytes,
            argument_fraction=self.argument_fraction,
            result_bytes=self.result_bytes,
            selectivity=selectivity,
            asymmetry=self.network.asymmetry,
            distinct_fraction=self.distinct_fraction,
        )

    @property
    def committed_strategy(self) -> ExecutionStrategy:
        """The strategy the cost model picks believing the declaration."""
        return CostModel(self._parameters(self.declared_selectivity)).preferred_strategy()

    @property
    def oracle_strategy(self) -> ExecutionStrategy:
        """The strategy the cost model picks knowing the actual selectivity."""
        return CostModel(self._parameters(self.actual_selectivity)).preferred_strategy()

    @property
    def plan_is_wrong(self) -> bool:
        """Whether the misestimation actually flips the strategy choice."""
        return self.committed_strategy is not self.oracle_strategy

    def switch_policy(self) -> AdaptationPolicy:
        """A probe policy proportioned to the workload.

        The probe segment costs wrong-strategy money, so it is sized to a
        small fraction of the input (any interleaved prefix reveals the true
        selectivity), and segments grow steeply afterwards to bound the
        segment-boundary overhead on the correct tail.
        """
        probe = max(8, self.row_count // 100)
        return replace(
            SWITCHING_POLICY,
            initial_segment_rows=probe,
            evidence_floor=probe,
            segment_growth=4.0,
        )

    def describe(self) -> str:
        return (
            f"declared S={self.declared_selectivity:g} -> commits "
            f"{self.committed_strategy.value}; actual S={self.actual_selectivity:g} "
            f"-> oracle {self.oracle_strategy.value} "
            f"({self.misestimation_factor:.0f}x misestimate, {self.network.name})"
        )


def overestimated_selectivity_scenario(**overrides) -> MisestimatedSelectivityScenario:
    """Declared 0.9, actual 0.1: the plan commits semi-join, CSJ is the oracle."""
    return MisestimatedSelectivityScenario(**overrides)


@dataclass
class MisorderedUdfScenario:
    """A two-UDF query whose misdeclared selectivities flip the right UDF *order*.

    ``ProbeA`` declares itself very selective (so the enumerator applies it
    first, expecting it to shrink the input for ``ProbeB``) but actually
    keeps almost every row; ``ProbeB`` declares itself unselective but
    actually filters nearly everything.  The committed plan *shape* — not
    just a shipping strategy — is therefore wrong: the oracle applies B
    first, and a mid-query re-optimization run observes the contradiction in
    the first probe segments, re-prices the UDF orders with the observed
    statistics, and migrates the tail to the reordered plan.

    The per-call costs are chosen so the *declared* numbers genuinely favour
    A-first (A-first: ``cost_a + 0.05·cost_b`` < B-first:
    ``cost_b + 0.95·cost_a`` per row) while the *actual* numbers favour
    B-first by more than 2x — the misdeclaration flips the order, not a
    knife-edge tie.  Values are laid out interleaved (a stride permutation),
    so any prefix of the input reveals the true selectivities.
    """

    row_count: int = 600
    stride: int = 37  # coprime with row_count: an interleaving permutation
    declared_selectivity_a: float = 0.05
    actual_selectivity_a: float = 0.95
    declared_selectivity_b: float = 0.95
    actual_selectivity_b: float = 0.05
    cost_a_seconds: float = 0.001
    cost_b_seconds: float = 0.0005
    network: NetworkConfig = field(default_factory=NetworkConfig.paper_symmetric)

    def __post_init__(self) -> None:
        import math as _math

        if self.stride <= 1 or _math.gcd(self.stride, self.row_count) != 1:
            raise ValueError("stride must be > 1 and coprime with row_count")

    @property
    def sql(self) -> str:
        threshold_a = self.actual_selectivity_a * self.row_count - 1
        threshold_b = self.actual_selectivity_b * self.row_count - 1
        return (
            f"SELECT T.K FROM T WHERE ProbeA(T.V) <= {threshold_a:g} "
            f"AND ProbeB(T.V) <= {threshold_b:g}"
        )

    @property
    def committed_udf_order(self) -> tuple:
        """The order the enumerator commits to, believing the declarations."""
        return ("probea", "probeb")

    @property
    def oracle_udf_order(self) -> tuple:
        """The order an oracle (knowing the actual selectivities) chooses."""
        return ("probeb", "probea")

    def build_database(self, statistics=None):
        """A fresh database with the table and both probe UDFs registered."""
        from repro.server.engine import Database
        from repro.relational.types import FLOAT, INTEGER

        db = Database(network=self.network, statistics=statistics)
        rows = [
            [index, float((index * self.stride) % self.row_count)]
            for index in range(self.row_count)
        ]
        db.create_table("T", [("K", INTEGER), ("V", FLOAT)], rows=rows)
        db.register_client_udf(
            "ProbeA",
            lambda value: value,
            selectivity=self.declared_selectivity_a,
            cost_per_call_seconds=self.cost_a_seconds,
        )
        db.register_client_udf(
            "ProbeB",
            lambda value: value,
            selectivity=self.declared_selectivity_b,
            cost_per_call_seconds=self.cost_b_seconds,
        )
        return db

    def replan_policy(self) -> AdaptationPolicy:
        """A one-migration policy: probe, decide once, drain the tail.

        One migration (or one confirming keep) settles the controller, so
        the segmentation overhead is bounded to the probe prefix whether the
        declarations turn out wrong or right.
        """
        return AdaptationPolicy(change_budget=1, confirmation_boundaries=1)

    def describe(self) -> str:
        return (
            f"ProbeA declared S={self.declared_selectivity_a:g} actual "
            f"{self.actual_selectivity_a:g}, ProbeB declared "
            f"S={self.declared_selectivity_b:g} actual "
            f"{self.actual_selectivity_b:g}: committed order "
            f"{list(self.committed_udf_order)}, oracle "
            f"{list(self.oracle_udf_order)} ({self.network.name})"
        )


def underestimated_selectivity_scenario(**overrides) -> MisestimatedSelectivityScenario:
    """Declared 0.1, actual 0.9: the plan commits CSJ, semi-join is the oracle.

    The arguments are a small fraction of a wide record and the result is
    tiny, so the client-site join's return traffic is dominated by the wide
    non-argument payload: shipping nine of ten extended records back over the
    slow uplink (what the actual 0.9 forces) loses to the semi-join's bare
    results.
    """
    overrides.setdefault("declared_selectivity", 0.1)
    overrides.setdefault("actual_selectivity", 0.9)
    overrides.setdefault("argument_fraction", 0.2)
    overrides.setdefault("result_bytes", 100)
    overrides.setdefault("input_record_bytes", 1000)
    return MisestimatedSelectivityScenario(**overrides)
