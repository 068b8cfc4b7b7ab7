"""Cost estimation for optimizer plans.

All costs are expressed in estimated seconds, combining:

* network time — bytes shipped over each link divided by that link's
  bandwidth, plus a per-message latency share; the bottleneck-link structure
  mirrors the Section 3.2 cost model;
* client CPU time — UDF invocations times the UDF's declared per-call cost
  (duplicate arguments invoke only once, matching the result cache);
* a small per-row server CPU charge so that purely server-side alternatives
  are not free.

The estimator produces new :class:`~repro.core.optimizer.plans.CandidatePlan`
instances for scans, joins, UDF applications (in each strategy variant), and
the final result-delivery operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.core.optimizer.plans import (
    AccessPath,
    CandidatePlan,
    ColumnResolver,
    IndexProbe,
    PlanStep,
    TableOperation,
    UdfOperation,
    shallow_copy,
)
from repro.core.optimizer.properties import PhysicalProperties, PlanSite
from repro.core.strategies import ExecutionStrategy
from repro.network.message import MESSAGE_OVERHEAD_BYTES
from repro.network.topology import NetworkConfig
from repro.relational.predicates import MIN_SELECTIVITY, equi_join_sides
from repro.relational.schema import NeededColumns, column_key
from repro.relational.statistics import apply_observed_evidence
from repro.sql.logical import BoundQuery

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.adaptive.store import StatisticsStore


#: Extra latency charged per remote operation for pipeline fill/drain.
PIPELINE_FILL_PENALTY_SECONDS = 0.1


@dataclass(frozen=True)
class CostSettings:
    """Tunable constants of the cost estimator."""

    server_cpu_seconds_per_row: float = 2e-6
    per_message_overhead_bytes: float = MESSAGE_OVERHEAD_BYTES
    #: Rows per network message assumed for costing.  The batched executor
    #: ships ``StrategyConfig.batch_size`` rows per message; batching changes
    #: only the per-message overhead share of the transfer cost.
    batch_size: float = 1.0
    #: In-flight batch window assumed for transfer costing (the overlapped
    #: shipping protocol's W).  ``None`` keeps the legacy assumption — fully
    #: overlapped transfers, i.e. the two link times combine as their max;
    #: a finite value adds back the non-overlapped remainder divided by W
    #: (W = 1 makes the link times add, modelling synchronous shipping).
    overlap_window: Optional[float] = None
    #: Seconds charged per block a server-side scan reads from the paged
    #: storage layer (``StatInfo.blocks_accessed``-style I/O costing).  The
    #: default 0.0 keeps the closed-form per-row cost model — and every
    #: existing cost expectation — unchanged; durable deployments opt in.
    block_access_seconds: float = 0.0

    def with_batch_size(self, batch_size: float) -> "CostSettings":
        return shallow_copy(self, {"batch_size": batch_size})


@dataclass(frozen=True)
class RemainingStage:
    """One UDF application of a remaining *plan shape*, priced from observed
    point estimates.

    A plan shape is an ordered sequence of these: mid-query re-optimization
    compares the incumbent shape against its candidates by pricing each with
    :func:`remaining_plan_cost` over the unprocessed tail.  ``selectivity`` is
    the combined selectivity of the predicates the shape applies at this stage
    (1.0 when none); ``argument_bytes`` the per-row size of the UDF's argument
    columns; ``result_bytes`` the UDF result size; ``returned_row_bytes`` what
    a client-site join ships back per surviving row — ``None`` for the whole
    extended record (the record so far plus the result), less under a pushed
    projection.
    """

    strategy: ExecutionStrategy
    selectivity: float = 1.0
    distinct_fraction: float = 1.0
    udf_seconds_per_call: float = 0.0
    argument_bytes: float = 8.0
    result_bytes: float = 8.0
    returned_row_bytes: Optional[float] = None


def remaining_plan_cost(
    stages: Sequence[RemainingStage],
    rows: float,
    *,
    record_bytes: float,
    downlink_bandwidth: float,
    uplink_bandwidth: float,
    latency: float = 0.0,
    settings: Optional[CostSettings] = None,
    batch_size: Optional[float] = None,
    overlap_window: Optional[float] = None,
) -> float:
    """Estimated seconds for a remaining *plan shape* over ``rows``.

    This is the re-costing surface mid-query adaptation plans with: unlike
    :class:`CostEstimator` (which costs whole plans from declared statistics),
    it takes the *current* point estimates — observed selectivity, observed
    effective bandwidths, measured per-call cost, and the exact byte shape of
    the unprocessed tail — and prices only the work still ahead.  It chains
    the stages the way the executor does: every stage's predicate filters the
    rows the next stage processes, and every stage's result column widens the
    records later client-site joins must ship.  The re-optimizer prices the
    incumbent and every candidate with the *same* point estimates, so the
    comparison isolates the plan shape from estimation error; a one-stage
    shape compares one UDF's strategies.

    Each stage follows the Section 3 cost model the estimator uses, with the
    overlap-aware combination rule throughout: with a window of W request
    batches in flight, the transfer and compute stages overlap up to their
    max, and the non-overlapped remainder is amortised over W::

        cost(W) = max(down, up, compute) + (down + up + compute - max) / W

    ``overlap_window=None`` keeps each strategy's historical assumption —
    fully overlapped (W = inf) for the semi-join and the client-site join,
    synchronous (W = 1: the stages *add*, plus the full round-trip latency
    per batch) for the naive strategy — matching the executors' defaults.
    """
    settings = settings if settings is not None else CostSettings()
    batch = max(1.0, float(batch_size if batch_size is not None else settings.batch_size))
    if overlap_window is None:
        overlap_window = settings.overlap_window
    cost = 0.0
    cardinality = float(rows)
    bytes_per_row = float(record_bytes)
    for stage in stages:
        if cardinality <= 0:
            break
        cost += _remaining_stage_cost(
            stage,
            cardinality,
            bytes_per_row,
            downlink_bandwidth=downlink_bandwidth,
            uplink_bandwidth=uplink_bandwidth,
            latency=latency,
            overhead=settings.per_message_overhead_bytes,
            batch=batch,
            overlap_window=overlap_window,
        )
        # Whatever strategy ran the stage, its predicate is applied before
        # the next stage (at the client, or by the server-side Filter wrap),
        # and its result column joins the record for the rest of the plan.
        cardinality *= min(1.0, max(0.0, stage.selectivity))
        bytes_per_row += stage.result_bytes
    return cost


def _remaining_stage_cost(
    stage: RemainingStage,
    rows: float,
    record_bytes: float,
    *,
    downlink_bandwidth: float,
    uplink_bandwidth: float,
    latency: float,
    overhead: float,
    batch: float,
    overlap_window: Optional[float],
) -> float:
    """Seconds for ``stage``'s strategy to process ``rows`` records of ``record_bytes``."""
    selectivity = min(1.0, max(0.0, stage.selectivity))
    shipped = rows * min(1.0, max(0.0, stage.distinct_fraction))
    compute = shipped * max(0.0, stage.udf_seconds_per_call)
    returned_row_bytes = stage.returned_row_bytes
    if returned_row_bytes is None:
        returned_row_bytes = record_bytes + stage.result_bytes

    def link_seconds(payload_bytes: float, messages: float, bandwidth: float) -> float:
        return (payload_bytes + messages * overhead) / max(bandwidth, 1e-9)

    def overlapped(down: float, up: float, window: float) -> float:
        pipelined = max(down, up, compute)
        sequential = down + up + compute
        return pipelined + (sequential - pipelined) / max(1.0, window)

    if stage.strategy is ExecutionStrategy.SEMI_JOIN:
        window = overlap_window if overlap_window is not None else math.inf
        messages = max(1.0, shipped / batch)
        down = link_seconds(shipped * stage.argument_bytes, messages, downlink_bandwidth)
        up = link_seconds(shipped * stage.result_bytes, messages, uplink_bandwidth)
        return overlapped(down, up, window) + 2 * latency + PIPELINE_FILL_PENALTY_SECONDS

    if stage.strategy is ExecutionStrategy.CLIENT_SITE_JOIN:
        window = overlap_window if overlap_window is not None else math.inf
        messages = max(1.0, rows / batch)
        down = link_seconds(rows * record_bytes, messages, downlink_bandwidth)
        up = link_seconds(rows * selectivity * returned_row_bytes, messages, uplink_bandwidth)
        return overlapped(down, up, window) + 2 * latency + PIPELINE_FILL_PENALTY_SECONDS

    # NAIVE: synchronous by default — the downlink shipment, the client
    # compute, and the uplink reply of every batch happen strictly in
    # sequence, and every batch pays the full round-trip latency.  With an
    # overlap window the stages overlap and the round-trip stalls amortise:
    # only every W-th batch waits out the pipeline.
    window = overlap_window if overlap_window is not None else 1.0
    trips = max(1.0, math.ceil(shipped / batch))
    down = link_seconds(shipped * stage.argument_bytes, trips, downlink_bandwidth)
    up = link_seconds(shipped * stage.result_bytes, trips, uplink_bandwidth)
    return overlapped(down, up, window) + 2 * latency * max(1.0, math.ceil(trips / max(1.0, window)))


def _yao_pages(blocks: float, matching: float) -> float:
    """Yao's approximation: distinct heap pages ``matching`` random rows hit.

    ``blocks * (1 - (1 - 1/blocks)^matching)`` — for an unclustered index,
    each fetched row lands on a uniformly random page, so few matches touch
    few pages but many matches converge on the whole file.
    """
    blocks = max(1.0, float(blocks))
    matching = max(0.0, float(matching))
    if matching <= 0.0:
        return 0.0
    return blocks * (1.0 - (1.0 - 1.0 / blocks) ** matching)


#: The properties of a plan whose rows are at the server with nothing left at the client.
_AT_SERVER = PhysicalProperties()


class _Derivation:
    """A candidate with its price left open: all that no batch size changes.

    ``changes`` are the :class:`CandidatePlan` fields the operation sets on
    the plan it is applied to (all but ``cost``, ``steps`` and the chain
    link, which pricing sets: the sweep's two endpoints share a derivation
    but not the plan it extends).  ``steps``
    are the steps it appends with their transfer seconds left out: a step's
    ``cost`` is its CPU charge alone, and pricing adds the transfer time of
    its profile, or — for the step that ships nothing — ``extra`` (a join's
    inner scan) to the plan beside it.  ``children`` memoises what each
    further operation derived from here, so a second enumeration of the same
    space — the sweep's other endpoint — only prices.
    """

    __slots__ = ("changes", "steps", "extra", "children")

    def __init__(
        self, changes: Dict[str, object], steps: Tuple[PlanStep, ...] = (), extra: float = 0.0
    ) -> None:
        self.changes = changes
        self.steps = steps
        self.extra = extra
        self.children: Dict[str, object] = {}


class CostEstimator:
    """Estimates costs of plan operations for a given network configuration.

    ``statistics`` is the observed-statistics source: a
    :class:`~repro.adaptive.store.StatisticsStore` or an overlay of one (an
    absent store answers every read as declared).  Where it has measured a
    value — a UDF's cost, selectivity or distinct fraction, a filter's or a
    join's selectivity, a column's distinct count — that replaces the
    declared one, so a second query plans with calibrated — not configured
    — parameters.

    An estimator serves one query under one statistics snapshot, and
    remembers what it worked out: each base table's scan, each UDF's
    parameters, how the query's column references resolve, and the
    batch-size-independent *derivation* behind every plan it priced — a
    second request only prices (:class:`_Derivation`).  Nothing is ever
    invalidated, so build a fresh estimator per decision; operations are
    told apart by their ``key``.
    """

    def __init__(
        self,
        network: NetworkConfig,
        query: BoundQuery,
        settings: Optional[CostSettings] = None,
        allow_deferred_return: bool = True,
        statistics: Optional["StatisticsStore"] = None,
    ) -> None:
        self.network = network
        self.query = query
        self.settings = settings or CostSettings()
        #: Whether the "client-site join that keeps its result at the client"
        #: variant (fusion with result delivery, Figure 12d) is generated.
        #: The executor of this reproduction always returns CSJ results to the
        #: server, so the engine's optimize() path disables the variant to keep
        #: cost estimates aligned with what it can actually execute.
        self.allow_deferred_return = allow_deferred_return
        #: Observed statistics; None answers every read as declared.
        self.statistics = statistics
        self.resolver = ColumnResolver()
        #: ("scan" | "udf" | "needed", key) -> what was worked out for it.
        self._facts: Dict[Tuple[str, str], object] = {}
        #: id(plan) -> the plan (held, so the id stays its own) and its derivation.
        self._derivations: Dict[int, Tuple[CandidatePlan, _Derivation]] = {}

    def repriced(self, settings: CostSettings) -> "CostEstimator":
        """This estimator at another batch size (``settings`` differing in
        nothing else), sharing all it worked out: the twin only prices."""
        return shallow_copy(self, {"settings": settings})

    def release(self) -> None:
        """Let go of every plan priced so far: the decision is made.  Whoever
        still holds the estimator (an enumerator kept for its counters) then
        holds no plan space with it; the twins share the table, so one call
        serves them all."""
        self._derivations.clear()

    # -- derive once, price per batch size -------------------------------------------------

    def _fact(self, kind: str, key: str, work_out, *arguments):
        """``work_out(*arguments)``, once per estimator under ``(kind, key)``."""
        try:
            return self._facts[kind, key]
        except KeyError:
            fact = self._facts[kind, key] = work_out(*arguments)
            return fact

    def _derived(self, plan: CandidatePlan, key: str, derive, *arguments):
        """``derive(plan, *arguments)``, memoised under ``plan``'s own derivation."""
        entry = self._derivations.get(id(plan))
        if entry is None:  # not priced here (a seed, an index variant): its own root
            entry = self._derivations[id(plan)] = (plan, _Derivation({}))
        children = entry[1].children
        if key not in children:
            children[key] = derive(plan, *arguments)
        return children[key]

    def _priced(self, plan: CandidatePlan, derivation: _Derivation) -> CandidatePlan:
        """``derivation`` applied to ``plan`` at this estimator's settings."""
        cost, steps = plan.cost, plan.steps
        for step in derivation.steps:
            if step.transfer is None:
                cost = cost + derivation.extra + step.cost
            else:
                transfer = self._transfer_cost(*step.transfer)
                cost = cost + transfer + step.cost
                step = shallow_copy(step, {"cost": transfer + step.cost, "transfer_cost": transfer})
            steps += (step,)
        candidate = shallow_copy(plan, derivation.changes)
        candidate.cost, candidate.steps = cost, steps
        candidate.input, candidate.path = plan, None
        self._derivations[id(candidate)] = (candidate, derivation)
        return candidate

    def _transfer_cost(
        self,
        downlink_bytes: float,
        uplink_bytes: float,
        rows: float,
        settings: Optional[CostSettings] = None,
    ) -> float:
        """Bottleneck-link time for a pipelined transfer of ``rows`` rows."""
        settings = settings if settings is not None else self.settings
        overhead = settings.per_message_overhead_bytes
        messages = max(1.0, rows / settings.batch_size)
        down = (
            downlink_bytes + (messages if downlink_bytes > 0 else 1.0) * overhead
        ) / self.network.downlink_bandwidth
        up = (
            uplink_bytes + (messages if uplink_bytes > 0 else 1.0) * overhead
        ) / self.network.uplink_bandwidth
        # The pipeline overlaps the two directions; the slower one dominates,
        # plus one round-trip latency and a fill penalty.  A finite overlap
        # window adds back the non-overlapped remainder divided by W (W = 1
        # prices synchronous shipping: the link times add).
        overlapped = max(down, up)
        if settings.overlap_window is not None and math.isfinite(settings.overlap_window):
            overlapped += (down + up - overlapped) / max(1.0, settings.overlap_window)
        return overlapped + 2 * self.network.latency + PIPELINE_FILL_PENALTY_SECONDS

    # -- re-costing (the incremental batch-size sweep) -------------------------------------

    def recost(self, plan: CandidatePlan, settings: CostSettings) -> CandidatePlan:
        """``plan`` with every recorded transfer re-costed under ``settings``.

        Each shipping step carries its transfer profile (bytes and rows), so
        changing a transfer-affecting setting — the batch size, above all —
        only requires recomputing those steps' transfer times.  CPU charges
        and the plan structure are untouched; the enumeration is not re-run.
        """
        delta = self.recost_delta(plan, settings)
        if delta == 0.0:
            return plan
        steps = []
        for step in plan.steps:
            if step.transfer is not None:
                transfer = self._transfer_cost(*step.transfer, settings=settings)
                step = shallow_copy(
                    step, {"cost": step.cost - step.transfer_cost + transfer, "transfer_cost": transfer}
                )
            steps.append(step)
        return plan.extended(cost=plan.cost + delta, steps=tuple(steps))

    def recost_delta(self, plan: CandidatePlan, settings: CostSettings) -> float:
        """What :meth:`recost` adds to ``plan.cost``, without building its steps.

        The batch-size sweep compares every kept plan at every candidate
        size by cost alone and materialises only the winner.
        """
        delta = 0.0
        for step in plan.steps:
            if step.transfer is not None:
                delta += self._transfer_cost(*step.transfer, settings=settings) - step.transfer_cost
        return delta

    # -- calibrated UDF parameters ----------------------------------------------------------

    def _udf_parameters(self, operation: UdfOperation) -> Tuple[float, float, float, Optional[float]]:
        """``(result bytes, seconds per call, selectivity, distinct fraction)``
        of a UDF operation, measured where the statistics have seen it (the
        distinct fraction is None where they have not: it then depends on the
        plan the UDF is applied to)."""
        udf = operation.call.udf
        seconds, selectivity = udf.cost_per_call_seconds, operation.predicate_selectivity
        distinct_fraction = None
        if self.statistics is not None:
            seconds = self.statistics.udf_cost(udf.name, seconds)
            distinct_fraction = self.statistics.udf_distinct_fraction(udf.name, None)
            # Observed selectivities are keyed by (UDF, predicate), so they
            # only apply where the query filters on this UDF *with the same
            # predicate* that was observed — a predicate-free use keeps every
            # row, a different comparison keeps its own estimate.
            if operation.has_predicate:
                selectivity = self.statistics.udf_selectivity(
                    udf.name, selectivity, predicate=operation.predicate_key
                )
        result_bytes = float(udf.result_size_bytes if udf.result_size_bytes is not None else 8)
        return result_bytes, seconds, selectivity, distinct_fraction

    # -- scans -------------------------------------------------------------------------------

    def scan(self, operation: TableOperation) -> CandidatePlan:
        """The sequential scan of a base table (one shared plan: never mutate it)."""
        return self._fact("scan", operation.key, self._derive_scan, operation)

    def _derive_scan(self, operation: TableOperation) -> CandidatePlan:
        # Overlay runtime-observed distinct counts: columns the catalog knows
        # nothing about would otherwise fall back to the neutral
        # distinct_count = row_count default.
        statistics = operation.statistics
        if self.statistics is not None:
            statistics = apply_observed_evidence(
                statistics, self.statistics.column_distinct_evidence()
            )
        cardinality = max(0.0, statistics.row_count * operation.local_selectivity)
        column_sizes: Dict[str, float] = {}
        column_distinct: Dict[str, float] = {}
        for column in operation.bound.schema.columns:
            stats, name = statistics.column(column.name), column.qualified_name
            column_sizes[name] = max(stats.average_size, 1.0)
            column_distinct[name] = max(1.0, float(stats.distinct_count))
        row_bytes = sum(column_sizes.values())
        cost = statistics.row_count * self.settings.server_cpu_seconds_per_row
        if self.settings.block_access_seconds > 0.0:
            cost += self._blocks_accessed(operation, statistics) * self.settings.block_access_seconds
        step = PlanStep(
            kind="scan",
            name=str(operation),
            detail=f"selectivity {operation.local_selectivity:.3g}",
            cost=cost,
            cardinality=cardinality,
        )
        return CandidatePlan(
            operations=frozenset({operation.key}),
            cost=cost,
            cardinality=cardinality,
            row_bytes=row_bytes,
            column_sizes=column_sizes,
            column_distinct=column_distinct,
            properties=_AT_SERVER,
            steps=(step,),
            operation=operation,
        )

    @staticmethod
    def _blocks_accessed(operation: TableOperation, statistics) -> float:
        """Blocks a full scan of the operation's table reads.

        Paged tables report their heap file's exact block count; in-memory
        tables are priced as if laid out in default-size blocks, so the
        I/O term compares like against like across backends.
        """
        storage = operation.bound.table.storage
        if storage is not None:
            return float(storage.block_count())
        from repro.storage.page import DEFAULT_BLOCK_SIZE

        total_bytes = statistics.row_count * max(statistics.average_row_size, 1.0)
        return math.ceil(total_bytes / DEFAULT_BLOCK_SIZE)

    # -- index-aware access paths -------------------------------------------------------------

    def scan_variants(self, operation: TableOperation) -> List[CandidatePlan]:
        """Every access path for a base table: the seq scan, plus one
        index-scan alternative per applicable secondary index.

        The unit of index access is an interval: all of the table's
        column-vs-literal conjuncts on an indexed column fold into one
        :class:`~repro.storage.index.KeyInterval` that a single index lookup
        serves; the node's :class:`~repro.core.optimizer.plans.IndexProbe`
        answers say which conjuncts and what the interval is.

        Index variants are only generated when the I/O term is switched on
        (``block_access_seconds > 0``) — with the closed-form per-row model
        the paths cost identically and the extra states would only slow the
        DP — and only for complete indexes (an index that skipped unorderable
        keys could silently drop matching rows).
        """
        variants = [self.scan(operation)]
        indexes = self._usable_indexes(operation)
        if not indexes:
            return variants
        statistics = operation.statistics
        rows = max(0.0, float(statistics.row_count))
        blocks = self._blocks_accessed(operation, statistics)
        seq = variants[0]
        for probe in operation.probes:
            name = probe.index_name
            handle = indexes[name]
            column = handle.definition.column
            predicates = [self.query.predicates[position] for position in probe.served]
            matching = self._probe_matching(operation, probe, predicates, rows)
            pages = 0.0
            if not probe.is_empty:
                pages = self._index_pages(handle, matching) + _yao_pages(blocks, matching)
            cost = (
                matching * self.settings.server_cpu_seconds_per_row
                + pages * self.settings.block_access_seconds
            )
            path = AccessPath(
                alias=operation.alias,
                kind="index_scan",
                index_name=name,
                index_kind=handle.kind,
                column=column,
                predicate_keys=tuple(str(predicate.expression) for predicate in predicates),
            )
            step = PlanStep(
                kind="scan",
                name=f"{operation} via {name}",
                detail=(
                    f"index {handle.kind} on {column}, "
                    f"~{matching:.0f} matches, ~{pages:.0f} pages"
                ),
                cost=cost,
                cardinality=seq.cardinality,
            )
            variants.append(seq.extended(cost=cost, steps=(step,), path=path))
        return variants

    def _probe_matching(
        self, operation: TableOperation, probe: IndexProbe, predicates: Sequence[object], rows: float
    ) -> float:
        """Rows an index scan of ``probe``'s interval fetches from the heap.

        None for an empty interval.  Where the probe read the interval off
        the column's histogram (several conjuncts folding to a range between
        numeric bounds), that share of the rows, at least one: a histogram
        cannot tell a sliver from nothing.  A lone conjunct, points,
        non-numeric bounds and columns without a histogram keep the product
        of the served conjuncts' selectivities, which is where
        observed-selectivity feedback is applied.
        """
        if probe.is_empty:
            return 0.0
        if probe.range_fraction is not None:
            return max(1.0, rows * probe.range_fraction)
        selectivity = 1.0
        for predicate in predicates:
            selectivity *= self._conjunct_selectivity(operation, predicate)
        return rows * selectivity

    def join_variants(
        self, plan: CandidatePlan, operation: TableOperation
    ) -> List[CandidatePlan]:
        """Join alternatives: the default join plus index-nested-loop probes
        of the inner table through any index on an equi-join column."""
        variants = [self.join(plan, operation)]
        indexes = self._usable_indexes(operation)
        if not indexes:
            return variants
        # Which side of the equality is the inner's is decided by qualifier,
        # never by bare name: in ``B.X = A.X`` only ``B.X`` is B's column.
        inner_columns = set(operation.bound.schema.qualified_names())
        outer_columns = set(plan.column_sizes)
        for predicate in self.query.join_predicates():
            sides = equi_join_sides(predicate.expression, outer_columns, inner_columns)
            if sides is None:
                continue
            outer_column, inner_key = sides[0], column_key(sides[1])
            for name, handle in indexes.items():
                if handle.definition.column.lower() != inner_key:
                    continue
                variant = self._index_join(plan, operation, name, handle, outer_column, predicate)
                if variant is not None:
                    variants.append(variant)
        return variants

    def _index_join(
        self,
        plan: CandidatePlan,
        operation: TableOperation,
        index_name: str,
        handle,
        outer_column: str,
        predicate,
    ) -> Optional[CandidatePlan]:
        """An index-nested-loop join: probe the inner's index per outer row."""
        base = self.join(plan, operation)
        inner = self.scan(operation)
        statistics = operation.statistics
        inner_rows = max(0.0, float(statistics.row_count))
        blocks = self._blocks_accessed(operation, statistics)
        probes = max(0.0, plan.cardinality)
        (key,) = self.resolver.keys(inner.column_distinct, [handle.definition.column])
        distinct = max(1.0, inner.column_distinct[key] if key is not None else inner_rows)
        matches_per_probe = inner_rows / distinct
        pages_per_probe = self._index_pages(handle, matches_per_probe) + _yao_pages(
            blocks, matches_per_probe
        )
        io_cost = probes * pages_per_probe * self.settings.block_access_seconds
        # Replace the inner seq scan's cost (CPU over every row + full-file
        # I/O) with the probe cost: only matching rows are touched.
        probe_cpu = probes * max(1.0, matches_per_probe) * self.settings.server_cpu_seconds_per_row
        cost = base.cost - inner.cost + probe_cpu + io_cost
        if cost >= base.cost:
            return None
        path = AccessPath(
            alias=operation.alias,
            kind="index_join",
            index_name=index_name,
            index_kind=handle.kind,
            column=handle.definition.column,
            join_column=outer_column,
            predicate_keys=(str(predicate.expression),),
        )
        steps = base.steps[:-1] + (
            PlanStep(
                kind="join",
                name=f"{'+'.join(sorted(plan.operations))} ⋈ {operation.alias} via {index_name}",
                detail=(
                    f"index nested loop, ~{probes:.0f} probes x "
                    f"~{pages_per_probe:.1f} pages"
                ),
                cost=probe_cpu + io_cost,
                cardinality=base.cardinality,
            ),
        )
        return base.extended(cost=cost, steps=steps, path=path)

    def _usable_indexes(self, operation: TableOperation) -> Dict[str, object]:
        """Complete secondary-index handles of a paged base table (none while
        block I/O is free: every access path then costs the same)."""
        if self.settings.block_access_seconds <= 0.0:
            return {}
        handles = operation.bound.table.indexes()
        return {name: handle for name, handle in handles.items() if not handle.incomplete}

    def _conjunct_selectivity(self, operation: TableOperation, predicate) -> float:
        """One conjunct's selectivity, observed-feedback-calibrated when known."""
        estimate = operation.estimates[id(predicate)]
        if self.statistics is not None:
            key = predicate.expression.canonical_key
            estimate = self.statistics.predicate_selectivity(key, estimate)
        return min(1.0, max(estimate, MIN_SELECTIVITY))

    @staticmethod
    def _index_pages(handle, matching: float) -> float:
        """Index pages one lookup touches: the descent plus matching leaves."""
        height = float(handle.height)
        per_leaf = max(1.0, float(handle.average_leaf_entries()))
        return height + max(0.0, math.ceil(matching / per_leaf) - 1)

    # -- joins --------------------------------------------------------------------------------

    def join(self, plan: CandidatePlan, operation: TableOperation) -> CandidatePlan:
        """Join ``plan`` (outer) with the relation of ``operation`` (inner)."""
        return self._priced(plan, self._derived(plan, operation.key, self._derive_join, operation))

    def _derive_join(self, plan: CandidatePlan, operation: TableOperation) -> _Derivation:
        inner = self.scan(operation)
        ship = self._ship_back(plan)
        selectivity = self._join_selectivity(plan, inner)
        cardinality = max(0.0, plan.cardinality * inner.cardinality * selectivity)
        column_sizes = {**plan.column_sizes, **inner.column_sizes}
        cap = max(1.0, cardinality)
        column_distinct = {
            name: min(value, cap)
            for name, value in {**plan.column_distinct, **inner.column_distinct}.items()
        }
        cpu = (plan.cardinality + inner.cardinality + cardinality) * self.settings.server_cpu_seconds_per_row
        # The return shipment of a client-site outer is its own profiled step;
        # the join's text mentions it when it costs anything (with no message
        # overhead, latency or fill penalty an empty shipment is free — at
        # any batch size, so this belongs to the derivation).
        shipped = bool(ship) and self._transfer_cost(*ship[0].transfer) != 0.0
        step = PlanStep(
            kind="join",
            name=f"{'+'.join(sorted(plan.operations))} ⋈ {operation.alias}",
            detail=f"selectivity {selectivity:.3g}" + (", shipped back from client" if shipped else ""),
            cost=cpu,
            cardinality=cardinality,
        )
        return _Derivation(
            dict(
                operations=plan.operations | inner.operations,
                cardinality=cardinality,
                row_bytes=sum(column_sizes.values()),
                column_sizes=column_sizes,
                column_distinct=column_distinct,
                properties=_AT_SERVER,
                operation=operation,
                strategy=None,
            ),
            ship + (step,),
            extra=inner.cost,
        )

    @cached_property
    def _join_predicates(self) -> List[Tuple[List[str], Optional[float]]]:
        """Each join predicate's columns, with the selectivity observed for
        that column set — it beats the 1/max(V(A), V(B)) textbook estimate."""
        return [
            (
                columns,
                None if self.statistics is None else self.statistics.join_selectivity(columns, None),
            )
            for columns in (list(predicate.columns) for predicate in self.query.join_predicates())
        ]

    def _join_selectivity(self, plan: CandidatePlan, inner: CandidatePlan) -> float:
        selectivity = 1.0
        found = False
        for columns, observed in self._join_predicates:
            plan_side = self._held(plan, columns)
            inner_side = self._held(inner, columns)
            if not plan_side or not inner_side:
                continue
            found = True
            if observed is not None:
                selectivity *= observed
                continue
            left_distinct = max(
                (plan.column_distinct.get(c, 1.0) for c in plan_side if c in plan.column_distinct),
                default=1.0,
            )
            right_distinct = max(
                (inner.column_distinct.get(c, 1.0) for c in inner_side if c in inner.column_distinct),
                default=1.0,
            )
            selectivity *= 1.0 / max(left_distinct, right_distinct, 1.0)
        if not found:
            return 1.0  # cross product
        return selectivity

    def _held(self, plan: CandidatePlan, columns: Sequence[str]) -> List[str]:
        """Those of ``columns`` that resolve against ``plan``'s columns."""
        keys = self.resolver.keys(plan.column_sizes, columns)
        return [column for column, key in zip(columns, keys) if key is not None]

    def _ship_back(self, plan: CandidatePlan) -> Tuple[PlanStep, ...]:
        """The step shipping a client-site plan's rows back to the server, if any."""
        if plan.properties.site is not PlanSite.CLIENT:
            return ()
        uplink_bytes = plan.cardinality * plan.row_bytes
        return (
            PlanStep(
                kind="ship",
                name="return results to server",
                detail=f"{uplink_bytes:.0f} bytes on the uplink",
                cardinality=plan.cardinality,
                transfer=(0.0, uplink_bytes, plan.cardinality),
            ),
        )

    # -- client-site UDF application ----------------------------------------------------------

    def udf_variants(self, plan: CandidatePlan, operation: UdfOperation) -> List[CandidatePlan]:
        """All costed ways of applying ``operation`` to ``plan``."""
        derivations = self._derived(plan, operation.key, self._derive_udf, operation)
        return [self._priced(plan, derivation) for derivation in derivations]

    def _derive_udf(self, plan: CandidatePlan, operation: UdfOperation) -> List[_Derivation]:
        """The semi-join, the client-site join and (if allowed) its deferred-return form."""
        udf = operation.call.udf
        name, result_column, arguments = udf.name, udf.result_column_name, operation.argument_columns
        result_bytes, seconds_per_call, selectivity, distinct_fraction = self._fact(
            "udf", operation.key, self._udf_parameters, operation
        )
        argument_bytes = self.resolver.columns_size(plan.column_sizes, arguments)
        if distinct_fraction is None:
            distinct_fraction = self.resolver.distinct_fraction(
                plan.column_distinct, plan.cardinality, arguments
            )
        client_cpu = plan.cardinality * distinct_fraction * seconds_per_call
        cardinality = plan.cardinality * selectivity
        column_sizes = {**plan.column_sizes, result_column: result_bytes}
        applied = dict(
            operations=plan.operations | {operation.key},
            cardinality=cardinality,
            row_bytes=sum(column_sizes.values()),
            column_sizes=column_sizes,
            column_distinct={
                **plan.column_distinct,
                result_column: max(1.0, plan.cardinality * distinct_fraction),
            },
            operation=operation,
        )

        # Semi-join.  A client-site input first returns to the server, which
        # leaves nothing resident; otherwise argument columns an earlier
        # semi-join left at the client ship for free (Figure 16).
        ship = self._ship_back(plan)
        resident = frozenset() if ship else plan.properties.client_columns
        arguments_resident = resident.issuperset(arguments)
        downlink_bytes = 0.0 if arguments_resident else plan.cardinality * distinct_fraction * argument_bytes
        uplink_bytes = plan.cardinality * distinct_fraction * result_bytes
        step = PlanStep(
            kind="udf",
            name=name,
            strategy=ExecutionStrategy.SEMI_JOIN,
            detail=(
                f"D={distinct_fraction:.2f}, args {'resident' if arguments_resident else 'shipped'}, "
                f"selectivity {selectivity:.3g}"
            ),
            cost=client_cpu,
            cardinality=cardinality,
            transfer=(downlink_bytes, uplink_bytes, plan.cardinality * distinct_fraction),
        )
        variants = [
            (
                ExecutionStrategy.SEMI_JOIN,
                PhysicalProperties(client_columns=resident.union(arguments, (result_column,))),
                ship + (step,),
            )
        ]

        # Client-site join: ships whole records down — unless the plan is
        # already at the client, in which case the downlink is free.
        already_at_client = plan.properties.site is PlanSite.CLIENT
        downlink_bytes = 0.0 if already_at_client else plan.cardinality * plan.row_bytes
        returned_row_bytes = self._returned_row_bytes(plan, operation, result_bytes)
        for defer_return in (False, True) if self.allow_deferred_return else (False,):
            uplink_bytes = 0.0 if defer_return else cardinality * returned_row_bytes
            step = PlanStep(
                kind="udf",
                name=name,
                strategy=ExecutionStrategy.CLIENT_SITE_JOIN,
                detail=(
                    f"selectivity {selectivity:.3g}, "
                    + ("results kept at client" if defer_return else f"returns {returned_row_bytes:.0f} B/row")
                ),
                cost=client_cpu,
                cardinality=cardinality,
                transfer=(downlink_bytes, uplink_bytes, plan.cardinality),
            )
            properties = (
                PhysicalProperties(site=PlanSite.CLIENT, client_columns=frozenset(column_sizes))
                if defer_return
                else _AT_SERVER
            )
            variants.append((ExecutionStrategy.CLIENT_SITE_JOIN, properties, (step,)))
        return [
            _Derivation({**applied, "properties": properties, "strategy": strategy}, steps)
            for strategy, properties, steps in variants
        ]

    def _returned_row_bytes(
        self, plan: CandidatePlan, operation: UdfOperation, result_bytes: float
    ) -> float:
        """Bytes per surviving row shipped back by a client-site join.

        Pushable projections keep only the columns still needed
        (:meth:`_needed_after`) — everything else (typically the argument
        columns of this UDF) stays at the client.
        """
        name = operation.call.udf.name
        needed_present = self._fact("needed", name, self._needed_after, name).keep(
            plan.column_sizes
        )
        if not needed_present:
            return plan.row_bytes + result_bytes
        # The UDF's own argument columns are never returned when not needed.
        return self.resolver.columns_size(plan.column_sizes, needed_present) + result_bytes

    def _needed_after(self, udf_name: str) -> NeededColumns:
        """Columns something still reads once ``udf_name`` ran — as the query
        wrote them: every output and predicate (applied below the UDF or not)
        and every other UDF's arguments, so a superset of what the planner's
        projection keeps (``docs/design.md``, "Names")."""
        needed = NeededColumns()
        for output in self.query.outputs:
            needed.update(output.expression.columns())
        for predicate in self.query.predicates:
            needed.update(predicate.columns)
        for call in self.query.client_udf_calls:
            if call.udf.name != udf_name:
                needed.update(call.argument_columns)
        return needed

    # -- final result delivery ------------------------------------------------------------------

    def finalize(self, plan: CandidatePlan) -> CandidatePlan:
        """Apply the final result-delivery operator (ship the answer to the client)."""
        return self._priced(plan, self._derived(plan, "final", self._derive_final))

    @cached_property
    def _output_columns(self) -> List[str]:
        """The columns result delivery ships: a client-site UDF's result
        stands in for its (often much larger) argument columns."""
        client_udf_names = {call.udf.name.lower() for call in self.query.client_udf_calls}
        output_columns: List[str] = []
        for output in self.query.outputs:
            calls = output.expression.function_calls()
            client_calls = [call for call in calls if call.name.lower() in client_udf_names]
            if client_calls:
                output_columns.extend(f"{call.name}_result" for call in client_calls)
            else:
                output_columns.extend(output.expression.columns())
        return output_columns

    def _derive_final(self, plan: CandidatePlan) -> _Derivation:
        if plan.properties.site is PlanSite.CLIENT:
            detail, profile = "results already at the client", None
        else:
            output_bytes = (
                self.resolver.columns_size(plan.column_sizes, self._output_columns)
                if self._output_columns
                else plan.row_bytes
            )
            downlink_bytes = plan.cardinality * output_bytes
            detail = f"{downlink_bytes:.0f} bytes shipped to the client"
            profile = (downlink_bytes, 0.0, plan.cardinality)
        step = PlanStep(
            kind="final",
            name="deliver results",
            detail=detail,
            cardinality=plan.cardinality,
            transfer=profile,
        )
        return _Derivation(
            {"properties": PhysicalProperties(site=PlanSite.CLIENT), "operation": None, "strategy": None},
            (step,),
        )


# -- distributed scatter-gather costing ------------------------------------------------------


def scatter_gather_cost(
    site_costs: Sequence[float],
    merge_rows: float = 0.0,
    settings: Optional[CostSettings] = None,
) -> float:
    """Estimated seconds for a scatter-gather fan-out over shard tasks.

    The per-site plans run concurrently (each site has its own channel), so
    the fan-out completes when the *slowest* site does — the cost is the max
    over the per-site overlapped costs, not their sum.  ``merge_rows``
    charges the coordinator's merge of the gathered streams at the ordinary
    per-row server CPU rate (the merge is pure local compute; the gather
    transfer itself is already inside each site's cost as result delivery).
    """
    if not site_costs:
        return 0.0
    settings = settings if settings is not None else CostSettings()
    return max(site_costs) + max(0.0, merge_rows) * settings.server_cpu_seconds_per_row
