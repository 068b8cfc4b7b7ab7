"""Runtime observation: deriving measured statistics from a query run.

The cost model plans with *configured* numbers — link bandwidth/latency from
:class:`~repro.network.topology.NetworkConfig`, per-call cost and predicate
selectivity from the :class:`~repro.client.udf.UdfDefinition` the user
declared.  In a production client-server system those numbers are wrong until
observed.  The :class:`RuntimeObserver` closes the gap: after each query it
reads the accounting the runtime already keeps — the query's
:class:`~repro.server.metrics.ExecutionMetrics` (both links, the client's
per-UDF invocation/compute counters) and the plan operators' row counters —
and condenses them into a :class:`QueryObservation` the
:class:`~repro.adaptive.store.StatisticsStore` folds into its calibrated
estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.adaptive.controller import BatchControllerBank
from repro.network.stats import TransferCounters
from repro.relational.operators import Filter, HashJoin

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.adaptive.controller import BatchSizeController
    from repro.core.execution.base import RemoteUdfOperator
    from repro.relational.operators import Operator
    from repro.server.metrics import ExecutionMetrics


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
    after each query it is handed the query's
    :class:`~repro.server.metrics.ExecutionMetrics` (both links and the
    client's per-UDF invocation and compute accounting, read once), the plan
    (filter and equi-join row counts) and its remote UDF operators (row and
    distinct-argument counters).  When constructed with a
    :class:`~repro.adaptive.store.StatisticsStore` it records every
    observation there — under the context's server ``site``, when it names
    one — closing the observe → calibrate loop.
    """

    def __init__(self, store: Optional["object"] = None) -> None:
        #: Destination for observations; anything with
        #: ``record(observation, site=...)``.
        self.store = store

    def observe(
        self,
        metrics: "ExecutionMetrics",
        root: "Operator",
        remote_operators: Sequence["RemoteUdfOperator"] = (),
        controller: Optional["BatchSizeController"] = None,
        site: Optional[str] = None,
    ) -> QueryObservation:
        """Build (and record) the observation of one finished query.

        ``metrics`` is the query's reading; ``root`` its plan, whose filters
        and equi-joins give observed selectivities; ``remote_operators`` its
        client-site UDF operators, read per UDF through their
        ``stage_views``; ``controller`` the batch controller the run adapted
        with; ``site`` the server site the store files the observation under.
        """
        counters = metrics.counters
        udfs: Dict[str, UdfObservation] = {}
        for stage in (stage for op in remote_operators for stage in op.stage_views):
            name = stage.udf.name
            previous = udfs.get(name) or UdfObservation(name, 0, 0.0, 0, 0, 0)
            pushed = stage.pushable_predicate
            udfs[name] = UdfObservation(
                name=name,
                invocations=counters.invocations_by_udf.get(name.lower(), 0),
                compute_seconds=counters.compute_seconds_by_udf.get(name.lower(), 0.0),
                input_rows=stage.input_row_count + previous.input_rows,
                output_rows=stage.output_row_count + previous.output_rows,
                distinct_arguments=stage.distinct_argument_count + previous.distinct_arguments,
                filtered=pushed is not None or previous.filtered,
                predicate=pushed.canonical_key if pushed is not None else previous.predicate,
            )

        operators = list(root.walk())
        observation = QueryObservation(
            elapsed_seconds=metrics.elapsed_seconds,
            downlink=counters.downlink,
            uplink=counters.uplink,
            udfs=udfs,
            predicates=tuple(
                PredicateObservation(
                    predicate=op.predicate.canonical_key,
                    input_rows=op.child().rows_produced,
                    output_rows=op.rows_produced,
                    equality_column=self._equality_column(op.predicate),
                )
                for op in operators
                if isinstance(op, Filter) and op.observe_selectivity
            ),
            joins=tuple(
                JoinObservation(
                    columns=tuple(op.left_keys) + tuple(op.right_keys),
                    left_rows=op.children[0].rows_produced,
                    right_rows=op.children[1].rows_produced,
                    output_rows=op.rows_produced,
                )
                for op in operators
                if isinstance(op, HashJoin)
            ),
            rows_returned=metrics.rows_returned,
            converged_batch_size=metrics.converged_batch_size,
            udf_batch_sizes=(
                controller.converged_sizes()
                if isinstance(controller, BatchControllerBank)
                else {}
            ),
        )
        if self.store is not None:
            self.store.record(observation, site=site)
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
