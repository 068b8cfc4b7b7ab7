"""Mid-query adaptive execution: one segmented operator, two controllers.

The three committed strategies process their whole input under the plan's
choice.  :class:`PlanMigrationOperator` instead owns one or more client-site
UDF applications and runs its input in *segments* (geometrically growing row
slices): each segment executes under the current
:class:`~repro.adaptive.segmented.PlanShape` through a freshly built pipeline
of the ordinary strategy operators, and at every segment boundary the operator
hands its :class:`~repro.adaptive.segmented.SegmentController` what the run
observed — cumulative per-predicate surviving fractions, the effective
bandwidth each link delivered, measured per-call UDF costs — plus the exact
byte shape of the unprocessed tail.  The controller re-prices the remaining
rows and, under one hysteresis ladder, may hand the tail to a different shape.

Two controllers drive it:

* a :class:`~repro.adaptive.switcher.StrategySwitcher` drives a *one-stage*
  operator (``build_operator`` builds one per UDF when the config carries a
  ``switch_policy``): the candidate shapes are that UDF's shipping strategies;
* a :class:`~repro.adaptive.reoptimizer.ReOptimizer` drives the operator that
  owns the whole UDF chain: it re-enters the System-R enumerator and may
  reorder the UDF applications as well.

They differ in pricing and in three things the operator reads off the
controller: a per-UDF controller is handed the *last segment's* bandwidth and
per-call deltas, its UDF's batch size and its projection-aware return width,
a plan-wide one cumulative evidence and the plan-wide batch size
(:attr:`~repro.adaptive.segmented.SegmentController.plan_wide`); only the
re-optimizer *settles*, after which the tail drains as one segment; and their
changes surface as ``strategy_switches`` vs. ``plan_migrations``.

Partial results merge trivially (every shape produces identical rows for
identical inputs), and client-side state carries over naturally: the segments
share one :class:`~repro.core.execution.context.RemoteExecutionContext`, so
the client runtime's result cache keeps answering duplicate arguments across
segments — and across a switch — without re-invoking the UDF.  Because every
segment applies the pushable predicates (at the client under the client-site
join, on the server under naive/semi-join), the operator's output is always
the *filtered* relation, whatever sequence of shapes actually ran.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

from repro.adaptive.segmented import (
    PlanShape,
    PredicateSpec,
    SegmentController,
    SegmentObservation,
    assign_predicates_to_stages,
)
from repro.client.udf import UdfDefinition
from repro.core.execution.base import RemoteUdfOperator
from repro.core.execution.context import ExecutionCounters, RemoteExecutionContext
from repro.core.execution.semijoin import SemiJoinSegmentState
from repro.core.strategies import ExecutionStrategy, StrategyConfig
from repro.network.stats import TransferCounters
from repro.relational.expressions import Expression, conjoin
from repro.relational.operators.base import CollectingOperator, Operator
from repro.relational.schema import Column, NeededColumns
from repro.relational.tuples import RowBatch, concat_batches


def _find_remote(operator: Operator) -> Optional[RemoteUdfOperator]:
    """The remote UDF operator inside a (possibly Filter/Project-wrapped) tree."""
    if isinstance(operator, RemoteUdfOperator):
        return operator
    for child in operator.children:
        found = _find_remote(child)
        if found is not None:
            return found
    return None


def _suffix_sums(sizes: Sequence[float], initial: float = 0.0) -> List[float]:
    """``sums[i]`` is the total of ``sizes[i:]``, from one backward pass."""
    sums = list(accumulate(reversed(sizes), initial=initial))
    sums.reverse()
    return sums


def _bandwidth(moved: TransferCounters, configured: Optional[float]) -> float:
    """Observed effective bandwidth over an interval, else the configured one."""
    if moved.busy_seconds > 1e-9 and moved.total_bytes > 0:
        return moved.total_bytes / moved.busy_seconds
    if configured is not None:
        return configured
    return 1e9  # no network model at all: transfers are effectively free


@dataclass
class MigrationStage:
    """One client-site UDF application owned by a :class:`PlanMigrationOperator`."""

    udf: UdfDefinition
    argument_columns: Tuple[str, ...]
    result_column_name: str
    strategy: ExecutionStrategy


@dataclass
class MigrationPredicate:
    """A UDF-referencing predicate the migration operator assigns dynamically.

    ``expression`` is the predicate in rewritten (result column) form over
    the operator's canonical extended schema; ``udf_names`` the lower-cased
    UDFs whose results it references.  Under each plan shape the predicate is
    pushed at the earliest stage where every referenced UDF has been applied
    — which is why observations of it are keyed by the shape-independent
    ``key`` (the expression's ``canonical_key``).
    """

    expression: Expression
    udf_names: frozenset
    declared_selectivity: float = 1.0

    @property
    def key(self) -> str:
        return self.expression.canonical_key

    def spec(self) -> PredicateSpec:
        return PredicateSpec(
            key=self.key,
            udf_names=self.udf_names,
            declared_selectivity=self.declared_selectivity,
        )


class _StageView:
    """Per-(stage, predicate) observation proxy for the runtime observer.

    Duck-types the counters :class:`~repro.adaptive.observer.RuntimeObserver`
    reads off a remote UDF operator, so migrated executions feed the same
    observe → calibrate loop committed executions do.
    """

    def __init__(
        self,
        udf: UdfDefinition,
        input_row_count: int,
        output_row_count: int,
        distinct_argument_count: int,
        pushable_predicate: Optional[Expression],
    ) -> None:
        self.udf = udf
        self.input_row_count = input_row_count
        self.output_row_count = output_row_count
        self.distinct_argument_count = distinct_argument_count
        self.pushable_predicate = pushable_predicate


class PlanMigrationOperator(Operator):
    """Runs one or more client-site UDFs in segments, migrating plan shape.

    Each segment of the input runs through a freshly built pipeline of plain
    strategy operators in the *current* UDF application order, and at every
    segment boundary the ``controller`` re-prices the remaining rows with
    everything observed so far.  When it changes the shape, the unprocessed
    tail runs under the new one — a different shipping strategy for a
    one-stage operator; for a chain also a different UDF order, with
    predicates pushed at different operators.  After execution,
    :attr:`controller` holds the full decision trace and :attr:`segments` the
    ``(shape, rows)`` slices that actually ran.

    Result equivalence across every migration path holds because

    * segments are *drained*: each segment's pipeline runs to completion
      (all in-flight batches acknowledged) before the boundary, so no row is
      split across shapes;
    * every shape applies the same predicate set (each predicate at the
      earliest stage where its referenced UDF results exist) and extends rows
      with the same result columns, merely in a different column order — the
      operator re-orders every segment's output into one canonical schema
      before merging;
    * client-side state survives migration: all segments share one execution
      context (one client result cache), and each UDF carries one
      :class:`~repro.core.execution.semijoin.SemiJoinSegmentState` across
      segments, so duplicate arguments are never re-shipped, whatever shapes
      ran (wire-row counts match an unsegmented run).
    """

    def __init__(
        self,
        child: Operator,
        stages: Sequence[MigrationStage],
        context: RemoteExecutionContext,
        config: Optional[StrategyConfig] = None,
        predicates: Sequence[MigrationPredicate] = (),
        output_columns: Optional[Sequence[str]] = None,
        *,
        controller: SegmentController,
    ) -> None:
        super().__init__([child])
        if not stages:
            raise ValueError("PlanMigrationOperator needs at least one UDF stage")
        self.context = context
        self.config = config if config is not None else StrategyConfig()
        self.stages = list(stages)
        self.predicates = list(predicates)
        self.controller = controller

        self.child_schema = child.output_schema()
        self._stage_by_name: Dict[str, MigrationStage] = {
            stage.udf.name.lower(): stage for stage in self.stages
        }
        #: Canonical column order: child columns, then result columns in the
        #: *declared* stage order.  Every segment's output is re-ordered into
        #: this shape before merging, whatever order its pipeline ran in.
        self._declared_order: Tuple[str, ...] = tuple(
            stage.udf.name.lower() for stage in self.stages
        )
        extended = self.child_schema
        for stage in self.stages:
            extended = extended.append(Column(stage.result_column_name, stage.udf.result_dtype))
        self.extended_schema = extended
        self.output_columns = list(output_columns) if output_columns is not None else None
        if self.output_columns is not None:
            self._projection_positions: Optional[Tuple[int, ...]] = tuple(
                self.extended_schema.index_of(name) for name in self.output_columns
            )
            self.schema = self.extended_schema.select_positions(self._projection_positions)
        else:
            self._projection_positions = None
            self.schema = self.extended_schema

        initial_shape = PlanShape.of(
            [stage.udf.name for stage in self.stages],
            {stage.udf.name: stage.strategy for stage in self.stages},
        )
        self.controller.bind(
            initial_shape, [predicate.spec() for predicate in self.predicates]
        )

        # Instrumentation the executor and observer read.
        self.input_row_count = 0
        self.output_row_count = 0
        self.concurrency_factor_used: Optional[int] = None
        self.peak_in_flight_batches = 0
        self.send_stall_seconds = 0.0
        self.overlap_window_used: Optional[int] = None
        #: ``(shape, input_rows)`` per executed segment, in order.
        self.segments: List[Tuple[PlanShape, int]] = []
        # Cumulative per-canonical-predicate (survived, processed) counts and
        # per-UDF unit row counts, across all segments and shapes.
        self._predicate_counts: Dict[str, Tuple[int, int]] = {}
        self._udf_unit_counts: Dict[str, Tuple[int, int, int]] = {}
        # One carried semi-join / naive duplicate-elimination state per UDF.
        self._states: Dict[str, SemiJoinSegmentState] = {
            name: SemiJoinSegmentState() for name in self._declared_order
        }

    # -- execution ---------------------------------------------------------------------

    def _execute_batches(self, batch_size):
        batch = concat_batches(
            list(self.child().execute_batches(batch_size)),
            column_count=len(self.child_schema),
        )
        self.input_row_count = len(batch)
        self._precompute_suffixes(batch)

        controller = self.controller
        outputs: List[RowBatch] = []
        position = 0
        index = 0
        total = len(batch)
        while position < total:
            shape = controller.current_shape
            # Once the controller settles — change budget spent, or enough
            # consecutive boundaries confirmed the incumbent shape — no
            # boundary can change the plan any more: segment boundaries
            # would be pure overhead (extra messages, pipeline fills), so
            # the whole tail drains as one final segment.
            settled = controller.settled
            take = total - position if settled else controller.policy.next_segment_rows(index)
            segment = batch.slice(position, position + take)
            position += len(segment)

            # A per-UDF controller reads what *this* segment did to the
            # shared link and client counters; a plan-wide one, their
            # running totals.
            since = ExecutionCounters() if controller.plan_wide else self.context.counters()
            units, stage_keys = self._build_pipeline(shape, segment)
            segment_output = concat_batches(
                list(units[-1].execute_batches(batch_size)),
                column_count=len(self.schema),
            )
            self._account_segment(shape, units, stage_keys, len(segment))
            if self.output_columns is None:
                # Without a pushable projection each shape extends rows with
                # the same result columns in its own order; re-order into the
                # canonical schema before merging.  (With one, the pipeline's
                # last stage already projects to the final output shape,
                # identically under every plan shape.)
                segment_output = self._canonicalise(shape, segment_output)
            outputs.append(segment_output)
            self.segments.append((shape, len(segment)))

            if position < total and not settled:
                controller.consider(self._observation(position, since))
            index += 1

        output = concat_batches(outputs, column_count=len(self.schema))
        self.output_row_count = len(output)
        for start in range(0, len(output), batch_size):
            yield output.slice(start, start + batch_size)

    def _build_pipeline(
        self, shape: PlanShape, segment: RowBatch
    ) -> Tuple[List[Operator], List[Optional[str]]]:
        """The per-segment operator chain under ``shape``.

        One plain (non-adaptive) strategy operator per stage over the
        materialised slice, sharing this operator's context — and therefore
        its simulator clock, link stats, adaptive batch controllers, and
        client result cache.  Returns the stage units (one per UDF, possibly
        Filter-wrapped by ``build_operator``) and, per stage, the canonical
        key of the predicate conjunction pushed there (None when the stage
        filters nothing).
        """
        from repro.core.execution.rewrite import build_operator

        operator: Operator = CollectingOperator(self.child_schema, segment)
        units: List[Operator] = []
        stage_keys: List[Optional[str]] = []
        assignment = assign_predicates_to_stages(shape.udf_order, self.predicates)
        stage_projections = self._stage_projections(shape, assignment)
        for name, indexes, projection in zip(shape.udf_order, assignment, stage_projections):
            stage = self._stage_by_name[name]
            conjunction = conjoin([self.predicates[i].expression for i in indexes])
            stage_config = (
                self.config.with_strategy(shape.strategy_of(name))
                .with_switch_policy(None)
                .with_reoptimizer(None)
            )
            operator = build_operator(
                child=operator,
                udf=stage.udf,
                argument_columns=list(stage.argument_columns),
                context=self.context,
                config=stage_config,
                pushable_predicate=conjunction,
                output_columns=projection,
                result_column_name=stage.result_column_name,
                semi_join_state=self._states[name],
            )
            units.append(operator)
            stage_keys.append(conjunction.canonical_key if conjunction is not None else None)
        return units, stage_keys

    def _stage_projections(
        self, shape: PlanShape, assignment: List[List[int]]
    ) -> List[Optional[List[str]]]:
        """Per-stage pushable projections under ``shape``.

        Without an operator-level projection every stage keeps every column
        (``None`` throughout — the legacy behaviour).  With one, each
        mid-chain stage keeps only the columns still needed *downstream* —
        the final output columns, argument columns of later stages, and
        columns of predicates assigned to later stages — and the last stage
        projects to the final output columns themselves.  Client-site join
        stages push the pruned projection to the client, so mid-chain CSJ
        uplinks stop carrying columns nothing later reads; the last stage's
        projection is shape-independent, which is what keeps every migration
        path's output identical.
        """
        order = shape.udf_order
        if self.output_columns is None:
            return [None] * len(order)

        # needed_after[i]: what anything after stage i reads.
        running = NeededColumns(self.output_columns)
        needed_after: List[NeededColumns] = [running] * len(order)
        for position in range(len(order) - 1, -1, -1):
            needed_after[position] = running.copy()
            running.update(self._stage_by_name[order[position]].argument_columns)
            for index in assignment[position]:
                running.update(self.predicates[index].expression.columns())

        projections: List[Optional[List[str]]] = []
        current = [column.qualified_name for column in self.child_schema.columns]
        for position, name in enumerate(order):
            current = current + [self._stage_by_name[name].result_column_name]
            if position == len(order) - 1:
                kept = list(self.output_columns)
            else:
                kept = needed_after[position].keep(current)
            projections.append(kept)
            current = kept
        return projections

    def _account_segment(
        self,
        shape: PlanShape,
        units: List[Operator],
        stage_keys: List[Optional[str]],
        segment_rows: int,
    ) -> None:
        rows_in = segment_rows
        for name, unit, key in zip(shape.udf_order, units, stage_keys):
            rows_out = unit.rows_produced
            if key is not None:
                survived, processed = self._predicate_counts.get(key, (0, 0))
                self._predicate_counts[key] = (survived + rows_out, processed + rows_in)
            remote = _find_remote(unit)
            if remote is not None:
                factor = getattr(remote, "concurrency_factor_used", None)
                if factor is not None:
                    self.concurrency_factor_used = factor
                self.peak_in_flight_batches = max(
                    self.peak_in_flight_batches, remote.peak_in_flight_batches
                )
                self.send_stall_seconds += remote.send_stall_seconds
                if remote.overlap_window_used is not None:
                    self.overlap_window_used = remote.overlap_window_used
            distinct = remote.distinct_argument_count if remote is not None else rows_in
            previous = self._udf_unit_counts.get(name, (0, 0, 0))
            self._udf_unit_counts[name] = (
                previous[0] + rows_in,
                previous[1] + rows_out,
                previous[2] + distinct,
            )
            rows_in = rows_out

    def _canonicalise(self, shape: PlanShape, batch: RowBatch) -> RowBatch:
        """Re-order a segment's output columns into the canonical schema."""
        if shape.udf_order == self._declared_order:
            return batch
        child_count = len(self.child_schema)
        positions = list(range(child_count)) + [
            child_count + shape.udf_order.index(name) for name in self._declared_order
        ]
        return batch.project(positions)

    # -- observation plumbing ----------------------------------------------------------

    def _precompute_suffixes(self, batch: RowBatch) -> None:
        """Per-suffix aggregates of the input, computed once per execution.

        Segment boundaries need the byte shape and duplicate structure of the
        unprocessed tail; precomputing suffix sums keeps each boundary O(1)
        instead of rescanning the tail (which would make long adaptive runs
        quadratic in the input size).  The per-row sizes come off the column
        buffers in bulk (constant-folded for NULL-free typed columns), and
        only columns the bound controller prices are sized.
        """
        self._suffix_record_bytes = _suffix_sums(batch.row_sizes(self.child_schema))
        self._suffix_argument_bytes: Dict[str, List[float]] = {}
        self._suffix_distinct: Dict[str, List[int]] = {}
        rows = len(batch)
        for name in self._declared_order:
            positions = tuple(
                self.child_schema.index_of(column)
                for column in self._stage_by_name[name].argument_columns
            )
            self._suffix_argument_bytes[name] = _suffix_sums(batch.value_sizes(positions))
            # Distinct tuples of the suffix bound the remaining distinct work
            # (a duplicate of an already-processed argument is free at the
            # client anyway, via the shared result cache): a suffix holds as
            # many distinct tuples as codes occur in it for the last time.
            last_occurrence = [0] * rows
            for position in dict(zip(batch.encode(positions).codes, range(rows))).values():
                last_occurrence[position] = 1
            self._suffix_distinct[name] = _suffix_sums(last_occurrence, initial=0)
        self._suffix_projected_bytes: Optional[List[float]] = None
        if not self.controller.plan_wide:
            child_count = len(self.child_schema)
            projected = (
                tuple(p for p in self._projection_positions if p < child_count)
                if self._projection_positions is not None
                else tuple(range(child_count))
            )
            self._suffix_projected_bytes = _suffix_sums(batch.value_sizes(projected))

    def _observation(self, position: int, since: ExecutionCounters) -> SegmentObservation:
        """What the run observed since ``since``, plus the tail after ``position``."""
        network = self.context.network
        observed = self.context.counters() - since
        remaining = self.input_row_count - position

        seconds_per_call: Dict[str, float] = {}
        argument_bytes: Dict[str, float] = {}
        result_bytes: Dict[str, float] = {}
        distinct_fraction: Dict[str, float] = {}
        for name in self._declared_order:
            udf = self._stage_by_name[name].udf
            invocations = observed.invocations_by_udf.get(name, 0)
            seconds_per_call[name] = (
                observed.compute_seconds_by_udf[name] / invocations
                if invocations > 0
                else udf.cost_per_call_seconds
            )
            argument_bytes[name] = self._suffix_argument_bytes[name][position] / remaining
            result_bytes[name] = float(
                udf.result_size_bytes if udf.result_size_bytes is not None else 8
            )
            distinct_fraction[name] = self._suffix_distinct[name][position] / remaining

        # A per-UDF controller prices its own stage: that UDF's batch size,
        # projection-aware return width and configured overlap window.
        priced_udf = returned_row_bytes = window = None
        if not self.controller.plan_wide:
            priced_udf = self.stages[0].udf.name
            returned_row_bytes = (
                self._suffix_projected_bytes[position] / remaining
                + result_bytes[self._declared_order[0]]
            )
            window = self.config.next_overlap_window(priced_udf)
        return SegmentObservation(
            rows_processed=position,
            remaining_rows=remaining,
            remaining_record_bytes=self._suffix_record_bytes[position] / remaining,
            predicate_counts=dict(self._predicate_counts),
            stage_argument_bytes=argument_bytes,
            stage_result_bytes=result_bytes,
            stage_distinct_fraction=distinct_fraction,
            stage_seconds_per_call=seconds_per_call,
            downlink_bandwidth=_bandwidth(
                observed.downlink, network.downlink_bandwidth if network else None
            ),
            uplink_bandwidth=_bandwidth(
                observed.uplink, network.uplink_bandwidth if network else None
            ),
            latency=network.latency if network is not None else 0.0,
            batch_size=float(self.config.next_batch_size(priced_udf)),
            returned_row_bytes=returned_row_bytes,
            overlap_window=float(window) if window is not None else None,
        )

    # -- observer integration ----------------------------------------------------------

    @property
    def stage_views(self) -> List[_StageView]:
        """Per-stage observation proxies for the runtime observer."""
        views: List[_StageView] = []
        final_shape = self.controller.current_shape
        assignment = assign_predicates_to_stages(final_shape.udf_order, self.predicates)
        for name, indexes in zip(final_shape.udf_order, assignment):
            stage = self._stage_by_name[name]
            pushed = conjoin([self.predicates[i].expression for i in indexes])
            rows_in, rows_out, distinct = self._udf_unit_counts.get(name, (0, 0, 0))
            # Per-segment distinct counts add up duplicates that span
            # segments; no stage sees more distinct arguments than the whole
            # input holds (for a one-stage operator that bound is exact).
            distinct = min(distinct, self._suffix_distinct[name][0])
            if pushed is not None:
                survived, processed = self._predicate_counts.get(
                    pushed.canonical_key, (rows_out, rows_in)
                )
                rows_in, rows_out = processed, survived
            views.append(
                _StageView(
                    udf=stage.udf,
                    input_row_count=rows_in,
                    output_row_count=rows_out,
                    distinct_argument_count=min(distinct, rows_in) if rows_in else distinct,
                    pushable_predicate=pushed,
                )
            )
        return views

    def describe(self) -> str:
        shapes = self.controller.shapes_used
        described = " => ".join(shape.describe() for shape in shapes) or "unbound"
        return f"{type(self).__name__}({described})"
