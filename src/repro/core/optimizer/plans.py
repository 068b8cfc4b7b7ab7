"""Optimizer plan representation: operations, steps, and candidate plans.

The enumerator works over *operations*: one :class:`TableOperation` per FROM
entry (its application to a non-empty plan is a real join, to an empty plan a
scan) and one :class:`UdfOperation` per client-site UDF call (its application
is a virtual join with the UDF table, executed by one of the strategies).
A :class:`CandidatePlan` carries the estimated statistics, the accumulated
cost, the physical properties, and the ordered list of :class:`PlanStep`
records describing how it was built — which is what the plan-space benchmarks
print and what the engine's ``explain(optimize=True)`` shows.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.core.optimizer.properties import PhysicalProperties, PlanSite
from repro.core.strategies import ExecutionStrategy
from repro.relational.predicates import estimate_selectivity
from repro.relational.schema import bare_name
from repro.sql.logical import BoundQuery, BoundTable, ClientUdfCall

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.adaptive.store import StatisticsStore


@dataclass(frozen=True)
class TableOperation:
    """A FROM-list relation, together with its pushed single-table selectivity."""

    alias: str
    bound: BoundTable
    local_selectivity: float = 1.0

    @cached_property
    def key(self) -> str:
        return f"table:{self.alias.lower()}"

    def __str__(self) -> str:
        return str(self.bound)


@dataclass(frozen=True)
class UdfOperation:
    """A client-site UDF call treated as a virtual join.

    ``has_predicate`` records whether any query predicate was credited to
    this UDF — only then does an *observed* selectivity from the statistics
    store apply; a predicate-free use of the same UDF keeps every row.
    ``predicate_key`` is the credited predicate's identity in its rewritten
    (result column) form (``Expression.canonical_key``) — the exact key the
    runtime observer records selectivities
    under, so the calibrated estimator looks up the selectivity of *this*
    predicate and not a blend over every predicate the UDF ever ran with.
    The crediting here mirrors the planner's *default* (declaration-order)
    UDF application: when the optimizer reorders UDFs, a predicate spanning
    several UDFs may be pushed at a different operator than it is credited
    to, its recorded key then differs, and the lookup safely falls back to
    the declared estimate (no miscalibration, just no calibration).
    """

    call: ClientUdfCall
    predicate_selectivity: float = 1.0
    has_predicate: bool = False
    predicate_key: Optional[str] = None

    @cached_property
    def key(self) -> str:
        return f"udf:{self.call.udf.name.lower()}"

    @property
    def name(self) -> str:
        return self.call.udf.name

    @property
    def argument_columns(self) -> Tuple[str, ...]:
        return self.call.argument_columns

    def __str__(self) -> str:
        return str(self.call)


@dataclass(frozen=True)
class AccessPath:
    """How one base table is physically accessed in a candidate plan.

    ``kind`` is ``"index_scan"`` (the interval that the table's conjuncts on
    one indexed column fold to, served by a secondary index) or
    ``"index_join"`` (an index-nested-loop probe of the table as a join
    inner).  ``predicate_keys`` are the served conjuncts' string forms — the
    keys the planner uses to find the matching expressions again, all of
    which must still be in the query; ``predicate_key=`` spells the one-key
    case and names an index join's equi-join predicate.  ``join_column`` is
    the outer-side column an index join probes with.  Tables without an
    entry in ``CandidatePlan.access_paths`` use the default sequential scan.
    """

    alias: str
    kind: str  # "index_scan" | "index_join"
    index_name: str
    index_kind: str  # "btree" | "hash"
    column: str  # the indexed column (bare name)
    predicate_key: InitVar[Optional[str]] = None  # constructor spelling of one key
    join_column: Optional[str] = None
    predicate_keys: Tuple[str, ...] = ()

    def __post_init__(self, predicate_key: Optional[str]) -> None:
        if predicate_key is not None:
            if self.predicate_keys and self.predicate_keys != (predicate_key,):
                raise ValueError("give predicate_key or predicate_keys, not both")
            object.__setattr__(self, "predicate_keys", (predicate_key,))

    def describe(self) -> str:
        if self.kind == "index_join":
            return (
                f"index nested loop over {self.alias} via {self.index_name} "
                f"({self.index_kind} on {self.column}, probed by {self.join_column})"
            )
        return (
            f"index scan of {self.alias} via {self.index_name} "
            f"({self.index_kind} on {self.column}: {' AND '.join(self.predicate_keys)})"
        )


def _sole_predicate_key(path: AccessPath) -> Optional[str]:
    return path.predicate_keys[0] if len(path.predicate_keys) == 1 else None


# ``predicate_keys`` is the one stored form; the init-only ``predicate_key=``
# reads back as the sole key (None when the path serves none or several).
AccessPath.predicate_key = property(_sole_predicate_key)  # type: ignore[assignment]


@dataclass(frozen=True)
class PlanStep:
    """One applied operation in a candidate plan.

    Steps that ship data record their *transfer profile* — the
    ``(downlink_bytes, uplink_bytes, rows)`` triple the transfer cost was
    computed from — together with the seconds charged for it.  The profile
    lets the optimizer *re-cost* a kept plan under different cost settings
    (a new batch size, a calibrated bandwidth) without re-enumerating the
    plan space.
    """

    kind: str  # "scan", "join", "udf", "final"
    name: str
    strategy: Optional[ExecutionStrategy] = None
    detail: str = ""
    cost: float = 0.0
    cardinality: float = 0.0
    transfer: Optional[Tuple[float, float, float]] = None
    transfer_cost: float = 0.0

    def describe(self) -> str:
        strategy = f" [{self.strategy.value}]" if self.strategy else ""
        detail = f" ({self.detail})" if self.detail else ""
        return f"{self.kind} {self.name}{strategy}{detail}: cost {self.cost:.3f}, card {self.cardinality:.0f}"


def shallow_copy(instance, changes: Dict[str, object]):
    """A copy of ``instance`` sharing every attribute but ``changes``:
    ``dataclasses.replace`` without re-running ``__init__`` (frozen or not)."""
    copy = object.__new__(type(instance))
    attributes = copy.__dict__
    attributes.update(instance.__dict__)
    attributes.update(changes)
    return copy


class _Normalised(dict):
    """name -> (lower-cased name, its bare name), worked out on first sight."""

    def __missing__(self, name: str) -> Tuple[str, str]:
        lowered = name.lower()
        pair = self[name] = (lowered, bare_name(lowered))
        return pair


class ColumnResolver:
    """Resolves column references against a plan's column map.

    One rule serves ``has_columns`` / ``columns_size`` / ``distinct_fraction``:
    a reference names the column whose lower-cased qualified name it equals,
    else the *first* column, in insertion order, with the same bare name —
    the qualifier is ignored (a known defect: ``B.Y`` resolves against a plan
    that merely holds ``A.Y``; ``test_join_selectivity_respects_qualifiers``).
    A resolver lower-cases every name, and indexes every distinct key set,
    once: the estimator keeps one per query, a lone plan builds a throwaway.
    """

    def __init__(self) -> None:
        self._normalised = _Normalised()
        #: key tuple -> (lower-cased qualified name -> key, bare name -> first
        #: key, reference -> key or None for every reference asked so far)
        self._indexes: Dict[Tuple[str, ...], Tuple[Dict, Dict, Dict]] = {}

    def keys(self, columns: Dict[str, float], names: Sequence[str]) -> List[Optional[str]]:
        """The key of ``columns`` each of ``names`` resolves to (None: absent)."""
        signature = tuple(columns)
        index = self._indexes.get(signature)
        if index is None:
            qualified: Dict[str, str] = {}
            bare: Dict[str, str] = {}
            for key in signature:
                lowered, stripped = self._normalised[key]
                qualified[lowered] = key
                bare.setdefault(stripped, key)
            index = self._indexes[signature] = (qualified, bare, {})
        qualified, bare, resolved = index
        keys = []
        for name in names:
            try:
                key = resolved[name]
            except KeyError:
                lowered, stripped = self._normalised[name]
                key = qualified.get(lowered)
                key = resolved[name] = key if key is not None else bare.get(stripped)
            keys.append(key)
        return keys

    def has_columns(self, columns: Dict[str, float], names: Sequence[str]) -> bool:
        return None not in self.keys(columns, names)

    def columns_size(self, columns: Dict[str, float], names: Sequence[str]) -> float:
        total = 0.0
        for key in self.keys(columns, names):
            total += columns[key] if key is not None else 8.0
        return total

    def distinct_fraction(
        self, columns: Dict[str, float], cardinality: float, names: Sequence[str]
    ) -> float:
        if cardinality <= 0:
            return 1.0
        distinct = 1.0
        for key in self.keys(columns, names):
            distinct *= max(1.0, columns[key] if key is not None else cardinality)
        distinct = min(distinct, cardinality)
        return distinct / cardinality


@dataclass
class CandidatePlan:
    """A (sub)plan considered by the enumerator."""

    operations: FrozenSet[str]
    cost: float
    cardinality: float
    row_bytes: float
    column_sizes: Dict[str, float] = field(default_factory=dict)
    column_distinct: Dict[str, float] = field(default_factory=dict)
    properties: PhysicalProperties = field(default_factory=PhysicalProperties)
    steps: Tuple[PlanStep, ...] = ()
    applied_udfs: FrozenSet[str] = frozenset()
    table_order: Tuple[str, ...] = ()
    udf_order: Tuple[str, ...] = ()
    udf_strategies: Dict[str, ExecutionStrategy] = field(default_factory=dict)
    #: Chosen non-sequential access path per table alias (empty = all scans).
    access_paths: Dict[str, AccessPath] = field(default_factory=dict)

    # -- helpers --------------------------------------------------------------------

    def has_columns(self, names: Sequence[str]) -> bool:
        return ColumnResolver().has_columns(self.column_sizes, names)

    def columns_size(self, names: Sequence[str]) -> float:
        """Total estimated byte size of the named columns in one row."""
        return ColumnResolver().columns_size(self.column_sizes, names)

    def distinct_fraction(self, names: Sequence[str]) -> float:
        """Estimated fraction of rows distinct on the named columns (the paper's D)."""
        return ColumnResolver().distinct_fraction(self.column_distinct, self.cardinality, names)

    def describe(self) -> str:
        lines = [
            f"plan over {sorted(self.operations)}: cost {self.cost:.3f}, "
            f"card {self.cardinality:.0f}, {self.properties.describe()}"
        ]
        for step in self.steps:
            lines.append("  " + step.describe())
        return "\n".join(lines)

    def extended(self, **changes) -> "CandidatePlan":
        """A copy with the given fields replaced; unchanged fields are shared."""
        plan = shallow_copy(self, changes)
        if len(plan.__dict__) != len(self.__dict__):
            raise TypeError(f"CandidatePlan has no field(s) {sorted(changes.keys() - self.__dict__.keys())}")
        return plan


def statistics_or_empty(statistics: Optional["StatisticsStore"]) -> "StatisticsStore":
    """Who answers the statistics protocol: an absent store is an empty one,
    whose every look-up reads as its default."""
    if statistics is None:
        from repro.adaptive.store import StatisticsStore  # repro.adaptive imports this package

        statistics = StatisticsStore()
    return statistics


def operations_for_query(
    query: BoundQuery, statistics: Optional["StatisticsStore"] = None
) -> Tuple[List[TableOperation], List[UdfOperation]]:
    """Derive the operation set (real joins + UDF joins) from a bound query.

    ``statistics`` (a :class:`~repro.adaptive.store.StatisticsStore` or an
    overlay of one) supplies *observed* selectivities for single-table
    predicates, keyed by the predicate's ``canonical_key`` — the key the
    runtime observer records server-side filters under — falling back to the
    declared estimate when unobserved.
    """
    statistics = statistics_or_empty(statistics)
    tables: List[TableOperation] = []
    for bound in query.tables:
        selectivity = 1.0
        for predicate in query.single_table_predicates(bound.alias):
            estimate = max(predicate.selectivity, 1e-6)
            selectivity *= max(
                statistics.predicate_selectivity(predicate.expression.canonical_key, estimate),
                1e-6,
            )
        tables.append(TableOperation(alias=bound.alias, bound=bound, local_selectivity=selectivity))

    from repro.core.execution.rewrite import replace_udf_calls_with_columns
    from repro.relational.expressions import conjoin

    lowered = [call.udf.name.lower() for call in query.client_udf_calls]
    result_columns = dict(zip(lowered, (c.result_column_name for c in query.client_udf_calls)))
    # The predicates over client-site UDFs, each with the (lower-cased) name
    # of the lexically last UDF it mentions: the one it is credited to.
    udf_predicates = []
    for predicate in query.udf_predicates():
        names = {name.lower() for name in predicate.udf_names}
        mentioned = [name for name in lowered if name in names]
        if mentioned:
            udf_predicates.append((mentioned[-1], predicate))
    udfs: List[UdfOperation] = []
    for call, call_name in zip(query.client_udf_calls, lowered):
        # The selectivity credited to applying this UDF is the combined
        # selectivity of the predicates that become evaluable once its result
        # exists (and reference no other, not-yet-applied UDF).
        selectivity = 1.0
        credited = []
        for last_name, predicate in udf_predicates:
            if last_name == call_name:
                selectivity *= max(predicate.selectivity, 1e-6)
                credited.append(replace_udf_calls_with_columns(predicate.expression, result_columns))
        combined = conjoin(credited)
        udfs.append(
            UdfOperation(
                call=call,
                predicate_selectivity=selectivity,
                has_predicate=bool(credited),
                predicate_key=combined.canonical_key if combined is not None else None,
            )
        )
    return tables, udfs
