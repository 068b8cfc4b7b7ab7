"""Runtime observation: deriving measured statistics from a query run.

The cost model plans with *configured* numbers — link bandwidth/latency from
:class:`~repro.network.topology.NetworkConfig`, per-call cost and predicate
selectivity from the :class:`~repro.client.udf.UdfDefinition` the user
declared.  In a production client-server system those numbers are wrong until
observed.  The :class:`RuntimeObserver` closes the gap: after each query it
reads the accounting the runtime already keeps —
:class:`~repro.network.stats.LinkStats` on both links, the client runtime's
per-UDF invocation/compute counters, and the remote operators' row counters —
and condenses them into a :class:`QueryObservation` the
:class:`~repro.adaptive.store.StatisticsStore` folds into its calibrated
estimates.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.network.stats import TransferCounters

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.adaptive.controller import BatchSizeController
    from repro.client.runtime import ClientRuntime
    from repro.core.execution.base import RemoteUdfOperator
    from repro.core.execution.context import RemoteExecutionContext


#: Measured behaviour of one directed link over one query: a detached
#: snapshot of the link's counters, rates included.
LinkObservation = TransferCounters


@dataclass(frozen=True)
class UdfObservation:
    """Measured behaviour of one client-site UDF over one query."""

    name: str
    invocations: int
    compute_seconds: float
    input_rows: int
    output_rows: int
    distinct_arguments: int
    #: Whether the operator applied a predicate before producing its output
    #: (a client-site join with a pushed predicate) — only then does the
    #: output/input ratio measure a predicate selectivity.
    filtered: bool = False
    #: The applied predicate's identity in rewritten (result column) form
    #: (``Expression.canonical_key``), when filtered.  Observed selectivities
    #: are stored under (UDF, predicate), so different predicates over the
    #: same UDF keep separate estimates.
    predicate: Optional[str] = None

    @property
    def measured_cost_per_call(self) -> Optional[float]:
        """Observed client CPU seconds per invocation (the calibrated cost)."""
        if self.invocations <= 0:
            return None
        return self.compute_seconds / self.invocations

    @property
    def observed_selectivity(self) -> Optional[float]:
        """Fraction of input rows surviving the operator's predicate, if any."""
        if not self.filtered or self.input_rows <= 0:
            return None
        return self.output_rows / self.input_rows

    @property
    def observed_distinct_fraction(self) -> Optional[float]:
        """The paper's D parameter, as actually seen by the operator."""
        if self.input_rows <= 0 or self.distinct_arguments <= 0:
            return None
        return min(1.0, self.distinct_arguments / self.input_rows)


@dataclass(frozen=True)
class PredicateObservation:
    """Observed selectivity of one server-side filter.

    ``equality_column`` is set when the filter was a single column-vs-literal
    equality: its observed selectivity is then direct evidence about the
    column's distinct-value count (selectivity ≈ 1/V(A)), which the store
    feeds back into table-level statistics estimates.
    """

    predicate: str
    input_rows: int
    output_rows: int
    equality_column: Optional[str] = None

    @property
    def observed_selectivity(self) -> Optional[float]:
        if self.input_rows <= 0:
            return None
        return self.output_rows / self.input_rows


@dataclass(frozen=True)
class JoinObservation:
    """Observed selectivity of one server-side equi-join.

    ``columns`` are the join-key column names from both sides.  The observed
    selectivity is the output cardinality relative to the cross product —
    the quantity the optimizer's 1/max(V(A), V(B)) formula estimates.
    """

    columns: Tuple[str, ...]
    left_rows: int
    right_rows: int
    output_rows: int

    @property
    def observed_selectivity(self) -> Optional[float]:
        cross = self.left_rows * self.right_rows
        if cross <= 0:
            return None
        return self.output_rows / cross


@dataclass
class QueryObservation:
    """Everything one query run taught us about the environment."""

    elapsed_seconds: float
    downlink: Optional[LinkObservation] = None
    uplink: Optional[LinkObservation] = None
    udfs: Dict[str, UdfObservation] = field(default_factory=dict)
    predicates: Tuple[PredicateObservation, ...] = ()
    joins: Tuple[JoinObservation, ...] = ()
    rows_returned: int = 0
    converged_batch_size: Optional[int] = None
    batch_size_trace: Tuple[int, ...] = ()
    #: Per-UDF converged batch sizes, when execution used a per-UDF
    #: controller bank (keys lower-cased).
    udf_batch_sizes: Dict[str, int] = field(default_factory=dict)

    def summary(self) -> str:
        parts: List[str] = [f"elapsed {self.elapsed_seconds:.3f}s"]
        for link in (self.downlink, self.uplink):
            if link is not None and link.effective_bandwidth is not None:
                parts.append(f"{link.name} ~{link.effective_bandwidth:.0f} B/s")
        for name, udf in sorted(self.udfs.items()):
            cost = udf.measured_cost_per_call
            selectivity = udf.observed_selectivity
            bits = [f"{udf.invocations} calls"]
            if cost is not None:
                bits.append(f"{cost * 1000:.3f} ms/call")
            if selectivity is not None:
                bits.append(f"selectivity {selectivity:.2f}")
            parts.append(f"udf {name}: " + ", ".join(bits))
        if self.converged_batch_size is not None:
            parts.append(f"batch size -> {self.converged_batch_size}")
        return " | ".join(parts)


class RuntimeObserver:
    """Derives a :class:`QueryObservation` from a finished execution.

    The observer is hooked into the :class:`~repro.server.executor.Executor`:
    after each query it is handed the execution context (whose channel carries
    the per-link :class:`~repro.network.stats.LinkStats`), the plan's remote
    UDF operators (row and distinct-argument counters), and the client runtime
    (per-UDF invocation and compute accounting).  When constructed with a
    :class:`~repro.adaptive.store.StatisticsStore` it records every
    observation there — under the context's server ``site``, when it names
    one — closing the observe → calibrate loop.
    """

    def __init__(self, store: Optional["object"] = None, history: int = 32) -> None:
        #: Destination for observations; anything with
        #: ``record(observation, site=...)``.
        self.store = store
        #: Recent observations, newest last.  Bounded: the store keeps the
        #: blended aggregates, so a long-lived database does not accumulate
        #: per-query history without limit.
        self.observations: Deque[QueryObservation] = deque(maxlen=max(1, history))

    def observe(
        self,
        context: "RemoteExecutionContext",
        remote_operators: List["RemoteUdfOperator"] = (),
        client: Optional["ClientRuntime"] = None,
        rows_returned: int = 0,
        controller: Optional["BatchSizeController"] = None,
        filter_operators: List[object] = (),
        join_operators: List[object] = (),
    ) -> QueryObservation:
        """Build (and record) the observation for one finished query."""
        client = client if client is not None else context.client
        stats = context.channel_stats

        udfs: Dict[str, UdfObservation] = {}
        for operator in remote_operators:
            name = operator.udf.name
            previous = udfs.get(name)
            input_rows = operator.input_row_count + (previous.input_rows if previous else 0)
            output_rows = operator.output_row_count + (previous.output_rows if previous else 0)
            distinct = operator.distinct_argument_count + (
                previous.distinct_arguments if previous else 0
            )
            filtered = self._operator_filtered(operator) or (
                previous.filtered if previous else False
            )
            predicate = self._operator_predicate(operator) or (
                previous.predicate if previous else None
            )
            udfs[name] = UdfObservation(
                name=name,
                invocations=client.invocations_of(name),
                compute_seconds=client.compute_seconds_of(name),
                input_rows=input_rows,
                output_rows=output_rows,
                distinct_arguments=distinct,
                filtered=filtered,
                predicate=predicate,
            )

        predicates: List[PredicateObservation] = []
        for operator in filter_operators:
            children = getattr(operator, "children", ())
            if not children:
                continue
            predicate = operator.predicate
            predicates.append(
                PredicateObservation(
                    predicate=predicate.canonical_key,
                    input_rows=children[0].rows_produced,
                    output_rows=operator.rows_produced,
                    equality_column=self._equality_column(predicate),
                )
            )

        joins: List[JoinObservation] = []
        for operator in join_operators:
            children = getattr(operator, "children", ())
            left_keys = getattr(operator, "left_keys", None)
            right_keys = getattr(operator, "right_keys", None)
            if len(children) != 2 or not left_keys or not right_keys:
                continue
            joins.append(
                JoinObservation(
                    columns=tuple(left_keys) + tuple(right_keys),
                    left_rows=children[0].rows_produced,
                    right_rows=children[1].rows_produced,
                    output_rows=operator.rows_produced,
                )
            )

        observation = QueryObservation(
            elapsed_seconds=context.elapsed_seconds,
            downlink=stats.downlink.snapshot(),
            uplink=stats.uplink.snapshot(),
            udfs=udfs,
            predicates=tuple(predicates),
            joins=tuple(joins),
            rows_returned=rows_returned,
            converged_batch_size=(
                controller.converged_batch_size
                if controller is not None and controller.batches_observed > 0
                else None
            ),
            batch_size_trace=controller.size_trace() if controller is not None else (),
            udf_batch_sizes=(
                controller.converged_sizes()
                if controller is not None and hasattr(controller, "converged_sizes")
                else {}
            ),
        )
        self.observations.append(observation)
        if self.store is not None:
            self.store.record(observation, site=context.site)
        return observation

    @staticmethod
    def _equality_column(predicate: object) -> Optional[str]:
        """The column name when ``predicate`` is a column-vs-literal equality."""
        from repro.relational.expressions import ColumnRef, Comparison, Literal

        if not isinstance(predicate, Comparison) or predicate.operator != "=":
            return None
        if predicate.function_calls():
            return None
        left, right = predicate.left, predicate.right
        if isinstance(left, ColumnRef) and isinstance(right, Literal):
            return left.name
        if isinstance(right, ColumnRef) and isinstance(left, Literal):
            return right.name
        return None

    @staticmethod
    def _operator_filtered(operator: "RemoteUdfOperator") -> bool:
        """Whether the operator's output/input ratio reflects a predicate."""
        predicate = getattr(operator, "pushable_predicate", None)
        return predicate is not None

    @staticmethod
    def _operator_predicate(operator: "RemoteUdfOperator") -> Optional[str]:
        """The applied predicate's identity — the (UDF, predicate) selectivity key."""
        predicate = getattr(operator, "pushable_predicate", None)
        return predicate.canonical_key if predicate is not None else None
