"""Optimizer plan representation: operations, steps, and candidate plans.

The enumerator works over *operations*: one :class:`TableOperation` per FROM
entry (its application to a non-empty plan is a real join, to an empty plan a
scan) and one :class:`UdfOperation` per client-site UDF call (its application
is a virtual join with the UDF table, executed by one of the strategies).
A :class:`CandidatePlan` is one node of a left-deep chain: the operation it
applied to its input, with the estimated statistics, the accumulated cost, the
physical properties, and the ordered list of :class:`PlanStep` records
describing how it was built — which is what the plan-space benchmarks print
and what the engine's ``explain(optimize=True)`` shows.  The planner builds
the operator tree by walking that chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple, TYPE_CHECKING, Union

from repro.core.optimizer.properties import PhysicalProperties
from repro.core.strategies import ExecutionStrategy
from repro.relational.predicates import MIN_SELECTIVITY, IndexCondition, index_condition
from repro.relational.schema import bare_name, column_key
from repro.relational.statistics import TableStatistics
from repro.sql.logical import BoundQuery, BoundTable, ClientUdfCall
from repro.storage.index import KeyInterval

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.adaptive.store import StatisticsStore


@dataclass(frozen=True)
class IndexProbe:
    """What one complete secondary index answers for a table's conjuncts.

    ``served`` are the positions, in the query's predicate list, of the
    conjuncts the index serves (every column-vs-literal conjunct on its
    column; a hash index takes the equality members only), which fold into
    one :class:`~repro.storage.index.KeyInterval`: ``is_empty`` and
    ``is_point`` are its flags.  ``range_fraction`` is the column
    histogram's share of rows inside it where the rows an index scan
    fetches are read off the histogram (several conjuncts folding to a range
    between numeric bounds), else None: the served conjuncts' selectivities
    price it then.  Nothing here names a literal value, so two queries of
    one template are priced alike exactly when their probes are equal.
    """

    index_name: str
    served: Tuple[int, ...]
    is_empty: bool
    is_point: bool
    range_fraction: Optional[float] = None


@dataclass(frozen=True)
class TableOperation:
    """A FROM-list relation, together with its pushed single-table selectivity,
    the statistics the decision read of it, every conjunct's estimate under
    that read and its indexes' :class:`IndexProbe` answers — all the
    estimator prices it from, and all it reads of the query's literals (a
    pinned node has none of them)."""

    alias: str
    bound: BoundTable
    local_selectivity: float = 1.0
    statistics: Optional[TableStatistics] = field(default=None, compare=False, repr=False)
    estimates: Mapping[int, float] = field(default_factory=dict, compare=False, repr=False)
    probes: Tuple[IndexProbe, ...] = field(default=(), compare=False, repr=False)

    @cached_property
    def key(self) -> str:
        return f"table:{self.alias.lower()}"

    @property
    def answers(self) -> tuple:
        """Every estimate and probe, by position: equal answers price alike."""
        return tuple(self.estimates.values()), self.probes

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
    which must still be in the query; an index join's one key names its
    equi-join predicate.  ``join_column`` is the outer-side column an index
    join probes with.  A table node without a path is a sequential scan.
    """

    alias: str
    kind: str  # "index_scan" | "index_join"
    index_name: str
    index_kind: str  # "btree" | "hash"
    column: str  # the indexed column (bare name)
    join_column: Optional[str] = None
    predicate_keys: Tuple[str, ...] = ()

    def serving(self, expressions: Sequence[object]) -> "AccessPath":
        """This path serving ``expressions`` instead: its ``predicate_keys``
        are their texts, rendered when first read (a plan served to a new
        literal is mostly run without being described)."""
        path = shallow_copy(self, {"_serving": tuple(expressions)})
        del path.__dict__["predicate_keys"]
        return path

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


class _ServedKeys:
    """``AccessPath.predicate_keys`` of a path that holds none yet
    (:meth:`AccessPath.serving`): its expressions' texts, kept once read.
    On the class it is the field's default."""

    def __get__(self, path: Optional[AccessPath], owner: type) -> Tuple[str, ...]:
        if path is None:
            return ()
        keys = path.__dict__["predicate_keys"] = tuple(map(str, path.__dict__.pop("_serving")))
        return keys


AccessPath.predicate_keys = _ServedKeys()  # type: ignore[assignment]  # @dataclass read the default


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
    """A (sub)plan considered by the enumerator: one node of a left-deep chain.

    Besides the estimates, a node records what it applied: ``operation``
    (the :class:`TableOperation` or :class:`UdfOperation`; None on the
    delivery node :meth:`~repro.core.optimizer.cost.CostEstimator.finalize`
    adds), the ``strategy`` a UDF node runs with, and the ``path`` of an
    index-scan leaf or an index-join node.  ``input`` is the candidate it
    extends (None at a base-table leaf).  The plan's shape is that chain:
    ``table_order``, ``udf_order``, ``udf_strategies`` and ``access_paths``
    are read off it.
    """

    operations: FrozenSet[str]
    cost: float
    cardinality: float
    row_bytes: float
    column_sizes: Dict[str, float] = field(default_factory=dict)
    column_distinct: Dict[str, float] = field(default_factory=dict)
    properties: PhysicalProperties = field(default_factory=PhysicalProperties)
    steps: Tuple[PlanStep, ...] = ()
    input: Optional["CandidatePlan"] = None
    operation: Optional[Union[TableOperation, UdfOperation]] = None
    strategy: Optional[ExecutionStrategy] = None
    path: Optional[AccessPath] = None

    # -- the chain ------------------------------------------------------------------

    def nodes(self) -> List["CandidatePlan"]:
        """The nodes that applied an operation, leaf first."""
        nodes, node = [], self
        while node is not None:
            if node.operation is not None:
                nodes.append(node)
            node = node.input
        return nodes[::-1]

    def _applied(self, kind: type) -> List["CandidatePlan"]:
        return [node for node in self.nodes() if isinstance(node.operation, kind)]

    # The shape as four maps, read off the chain: the join order over table
    # aliases, the UDF order, the strategy per UDF name, the access path per
    # alias (none = all scans); and the UDFs applied.  The decision digests
    # hash them.
    table_order = property(lambda self: tuple(n.operation.alias for n in self._applied(TableOperation)))
    udf_order = property(lambda self: tuple(n.operation.name for n in self._applied(UdfOperation)))
    udf_strategies = property(
        lambda self: {n.operation.name: n.strategy for n in self._applied(UdfOperation)}
    )
    access_paths = property(lambda self: {n.path.alias: n.path for n in self.nodes() if n.path})
    applied_udfs = property(lambda self: frozenset(self.udf_order))

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

    def rebound(
        self, query: BoundQuery, tables: Sequence[TableOperation], udfs: Sequence[UdfOperation]
    ) -> "CandidatePlan":
        """This chain applied to ``query``, another query of the template it
        was priced for, whose operations are ``tables`` and ``udfs``.

        Each node applies the operation its own names (an alias; a UDF name,
        the first such call not yet taken), and an index scan serves the
        conjuncts ``query``'s probe of its index names.  Everything priced is
        shared: only a caller that found ``tables`` answering as the chain's
        own did may ask.
        """
        chain, node = [], self
        while node is not None:
            chain.append(node)
            node = node.input
        by_alias = {operation.alias.lower(): operation for operation in tables}
        calls = list(udfs)
        rebound = None
        for node in reversed(chain):
            operation, path = node.operation, node.path
            if isinstance(operation, TableOperation):
                operation = by_alias[operation.alias.lower()]
                if path is not None and path.kind == "index_scan":
                    (probe,) = [p for p in operation.probes if p.index_name == path.index_name]
                    path = path.serving([query.predicates[i].expression for i in probe.served])
            elif operation is not None:
                name = operation.name.lower()
                operation = calls.pop(
                    next(index for index, call in enumerate(calls) if call.name.lower() == name)
                )
            rebound = shallow_copy(node, {"input": rebound, "operation": operation, "path": path})
        return rebound

    def extended(self, **changes) -> "CandidatePlan":
        """A copy with the given fields replaced; unchanged fields are shared."""
        plan = shallow_copy(self, changes)
        if len(plan.__dict__) != len(self.__dict__):
            raise TypeError(f"CandidatePlan has no field(s) {sorted(changes.keys() - self.__dict__.keys())}")
        return plan


def index_probes(
    query: BoundQuery, bound: BoundTable, own: TableStatistics, single: Sequence[object]
) -> Tuple[IndexProbe, ...]:
    """The :class:`IndexProbe` of each complete index of ``bound``'s table
    that serves one of its single-table conjuncts ``single``, under the
    table's statistics ``own``, in index order."""
    indexes = [handle for handle in bound.table.indexes().values() if not handle.incomplete]
    if not indexes:
        return ()
    by_column: Dict[str, List[Tuple[int, IndexCondition]]] = {}
    for predicate in single:
        condition = index_condition(predicate.expression)
        if condition is not None:
            position = next(i for i, p in enumerate(query.predicates) if p is predicate)
            by_column.setdefault(column_key(condition.column), []).append((position, condition))
    probes = []
    for handle in indexes:
        column = handle.definition.column
        members = [
            (position, condition)
            for position, condition in by_column.get(column.lower(), ())
            if condition.is_equality or handle.supports_range
        ]
        if not members:
            continue
        interval = KeyInterval.fold((c.operator, c.value) for _, c in members)
        histogram = own.column(column).histogram
        bounds = [end for end in (interval.low, interval.high) if end is not None]
        fraction = None
        if (
            len(members) > 1
            and histogram is not None
            and histogram.total > 0
            and not interval.is_point
            and not interval.is_empty
            and all(isinstance(end, (int, float)) and not isinstance(end, bool) for end in bounds)
        ):
            fraction = histogram.range_fraction(interval.low, interval.high)
        probes.append(
            IndexProbe(
                handle.definition.name,
                tuple(position for position, _ in members),
                interval.is_empty,
                interval.is_point,
                fraction,
            )
        )
    return tuple(probes)


def operations_for_query(
    query: BoundQuery, statistics: Optional["StatisticsStore"] = None
) -> Tuple[List[TableOperation], List[UdfOperation]]:
    """Derive the operation set (real joins + UDF joins) from a bound query.

    Each base table's statistics are read here, once per decision.
    ``statistics`` (a :class:`~repro.adaptive.store.StatisticsStore` or an
    overlay of one) supplies *observed* selectivities for single-table
    predicates, keyed by the predicate's ``canonical_key`` — the key the
    runtime observer records server-side filters under — falling back to the
    declared estimate when unobserved.
    """
    table_statistics = [bound.table.statistics for bound in query.tables]
    estimates = query.declared_selectivities(table_statistics)
    tables: List[TableOperation] = []
    for bound, own in zip(query.tables, table_statistics):
        selectivity = 1.0
        single = query.single_table_predicates(bound.alias)
        for predicate in single:
            estimate = estimates[id(predicate)]
            if statistics is not None:  # an absent store answers each one as declared
                key = predicate.expression.canonical_key
                estimate = statistics.predicate_selectivity(key, estimate)
            selectivity *= max(estimate, MIN_SELECTIVITY)
        probes = index_probes(query, bound, own, single)
        tables.append(TableOperation(bound.alias, bound, selectivity, own, estimates, probes))
    if not query.client_udf_calls:
        return tables, []

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
                selectivity *= estimates[id(predicate)]
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
