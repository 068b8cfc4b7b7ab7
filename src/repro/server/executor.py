"""The executor: runs physical plans and gathers metrics."""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.errors import ExecutionError
from repro.core.execution.context import RemoteExecutionContext
from repro.core.optimizer.decision import OptimizationDecision
from repro.core.strategies import StrategyConfig
from repro.client.protocol import FinalResultBatch
from repro.network.message import MessageKind
from repro.relational.operators.base import Operator
from repro.relational.tuples import Row, RowBatch
from repro.server.metrics import ExecutionMetrics
from repro.server.planner import PlanBuildResult, build_plan
from repro.server.result import QueryResult
from repro.sql.logical import BoundQuery


class ExecutorSlots:
    """A bounded pool of server execution slots.

    The multi-tenant admission scheduler acquires one slot per running query
    and returns it on completion; ``capacity=None`` models the unbounded
    (admit-everything) baseline.  This is plain counting — *when* a waiting
    query gets a freed slot is the admission scheduler's decision.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("executor slot capacity must be at least 1")
        self.capacity = capacity
        self.in_use = 0
        self.peak_in_use = 0

    def try_acquire(self) -> bool:
        """Take a slot if one is free; returns whether acquisition succeeded."""
        if self.capacity is not None and self.in_use >= self.capacity:
            return False
        self.in_use += 1
        self.peak_in_use = max(self.peak_in_use, self.in_use)
        return True

    def release(self) -> None:
        if self.in_use <= 0:
            raise RuntimeError("released an executor slot that was never acquired")
        self.in_use -= 1

    def __repr__(self) -> str:
        capacity = "unbounded" if self.capacity is None else str(self.capacity)
        return f"ExecutorSlots(in_use={self.in_use}, capacity={capacity})"


class Executor:
    """Executes bound queries (or pre-built plans) on a remote execution context.

    With an ``observer`` (a :class:`~repro.adaptive.observer.RuntimeObserver`)
    attached, every executed plan is measured after the fact — link stats,
    per-UDF costs, observed selectivities — and the resulting observation is
    recorded in the observer's statistics store and returned on the
    :class:`~repro.server.result.QueryResult`.
    """

    def __init__(
        self,
        context: RemoteExecutionContext,
        server_functions: Optional[Dict[str, Callable[..., Any]]] = None,
        observer: Optional[object] = None,
        session: Optional[object] = None,
    ) -> None:
        self.context = context
        self.server_functions = server_functions or {}
        self.observer = observer
        #: The owning :class:`~repro.server.session.ClientSession`, when known:
        #: metrics get stamped with its tenant/session identity and fed into
        #: its per-session aggregation.
        self.session = session

    # -- query execution ------------------------------------------------------------------

    def execute_query(
        self,
        query: BoundQuery,
        config: Optional[StrategyConfig] = None,
        deliver_results: bool = False,
        decision: Optional[OptimizationDecision] = None,
    ) -> QueryResult:
        """Plan and execute ``query``; optionally ship the answer to the client.

        ``decision`` is the plan to run and ``config`` the tunables to run
        it with (see :func:`build_plan` for both and their defaults).
        """
        plan = build_plan(
            query,
            self.context,
            config=config,
            server_functions=self.server_functions,
            decision=decision,
        )
        return self.execute_plan(plan, deliver_results=deliver_results)

    def execute_plan(
        self,
        plan: PlanBuildResult,
        config: Optional[StrategyConfig] = None,
        deliver_results: bool = False,
    ) -> QueryResult:
        """Execute an already-built plan (with ``plan.config`` unless overridden)."""
        config = config if config is not None else plan.config
        root = plan.root
        try:
            rows = root.run()
        except ExecutionError:
            raise
        except Exception as exc:  # noqa: BLE001 - surface plan failures uniformly
            raise ExecutionError(f"plan execution failed: {exc}") from exc

        if deliver_results:
            self._deliver_results(root, rows)

        metrics = self._collect_metrics(plan, rows, config)
        if self.session is not None:
            metrics.tenant_id = getattr(self.session, "tenant_id", None)
            metrics.session_id = getattr(self.session, "session_id", None)
            record = getattr(self.session, "record_query", None)
            if record is not None:
                record(metrics)
        observation = None
        if self.observer is not None:
            observation = self.observer.observe(
                self.context,
                remote_operators=self._observable_operators(plan),
                rows_returned=len(rows),
                controller=config.batch_controller,
                filter_operators=self._find_filters(root),
                join_operators=self._find_joins(root),
            )
        return QueryResult(
            schema=root.output_schema(),
            rows=rows,
            metrics=metrics,
            plan_text=metrics.plan_description,  # the same tree, rendered once
            observation=observation,
        )

    # -- result delivery --------------------------------------------------------------------

    def _deliver_results(self, root: Operator, rows: List[Row]) -> None:
        """Ship the final result rows to the client over the downlink.

        This models the paper's "result operator": for most queries the answer
        ultimately travels to the client, and that transfer competes for the
        same downlink the execution strategies use.
        """
        schema = root.output_schema()
        batch = RowBatch(list(rows))
        payload_bytes = batch.size_bytes(schema)
        channel = self.context.channel

        def deliver():
            yield channel.send_batch_to_client(
                MessageKind.FINAL_RESULTS,
                FinalResultBatch(rows=batch),
                payload_bytes=payload_bytes,
                row_count=len(rows),
                description=f"final results ({len(rows)} rows)",
            )
            from repro.network.message import end_of_stream

            yield channel.send_to_client(end_of_stream())
            yield channel.receive_at_server()

        try:
            self.context.run_exchange(deliver(), name="result-delivery")
        except ExecutionError as exc:
            raise ExecutionError(f"result delivery to the client failed: {exc}") from exc

    # -- observation ------------------------------------------------------------------------

    @staticmethod
    def _observable_operators(plan: PlanBuildResult) -> List[object]:
        """The plan's remote operators, migration operators expanded per stage.

        A plan-migrating operator owns several UDFs; the observer consumes
        one per-UDF counter set at a time, so it is handed the operator's
        per-stage views (whose predicate attribution already uses canonical
        predicate-identity keys).
        """
        observable: List[object] = []
        for operator in plan.remote_operators:
            views = getattr(operator, "stage_views", None)
            if views is not None:
                observable.extend(views)
            else:
                observable.append(operator)
        return observable

    @staticmethod
    def _find_filters(root: Operator) -> List[Operator]:
        """Filter operators whose selectivity is worth observing.

        Filters the planner marked ``observe_selectivity = False`` are
        skipped: the redundant re-check above an index scan and the residual
        inner filters above an index nested-loop join see pre-filtered or
        join-reduced input, so their pass-through rate is *not* the
        predicate's base-table selectivity and must not be recorded as such.
        """
        from repro.relational.operators import Filter

        found: List[Operator] = []

        def visit(operator: Operator) -> None:
            for child in operator.children:
                visit(child)
            if isinstance(operator, Filter) and getattr(
                operator, "observe_selectivity", True
            ):
                found.append(operator)

        visit(root)
        return found

    @staticmethod
    def _find_joins(root: Operator) -> List[Operator]:
        """All equi-join operators in the tree (for observed join selectivities)."""
        found: List[Operator] = []

        def visit(operator: Operator) -> None:
            for child in operator.children:
                visit(child)
            if getattr(operator, "left_keys", None) and getattr(
                operator, "right_keys", None
            ):
                found.append(operator)

        visit(root)
        return found

    # -- metrics ------------------------------------------------------------------------------

    def _collect_metrics(
        self,
        plan: PlanBuildResult,
        rows: List[Row],
        config: StrategyConfig,
    ) -> ExecutionMetrics:
        counters = self.context.counters()
        concurrency = None
        switches = 0
        strategies_used: tuple = ()
        replan_attempts = 0
        plan_migrations = 0
        udf_orders_used: tuple = ()
        shapes_used: tuple = ()
        overlap_window = None
        for operator in plan.remote_operators:
            counters.input_rows = max(counters.input_rows, operator.input_row_count)
            factor = getattr(operator, "concurrency_factor_used", None)
            if factor is not None:
                concurrency = factor
            counters.peak_in_flight_batches = max(
                counters.peak_in_flight_batches,
                getattr(operator, "peak_in_flight_batches", 0) or 0,
            )
            counters.send_stall_seconds += getattr(operator, "send_stall_seconds", 0.0) or 0.0
            window = getattr(operator, "overlap_window_used", None)
            if window is not None:
                overlap_window = window
            controller = getattr(operator, "controller", None)
            if controller is None:
                continue
            for strategy in controller.strategies_used:
                # First-use order across operators, without repeats: a
                # multi-UDF plan that never switched reads as one
                # strategy, not a fake switch chain.
                if strategy not in strategies_used:
                    strategies_used = strategies_used + (strategy,)
            if controller.plan_wide:
                replan_attempts += controller.attempt_count
                plan_migrations += controller.change_count
                for shape in controller.shapes_used:
                    described = shape.describe()
                    if described not in shapes_used:
                        shapes_used = shapes_used + (described,)
                    if shape.udf_order not in udf_orders_used:
                        udf_orders_used = udf_orders_used + (shape.udf_order,)
            else:
                switches += controller.change_count

        def visit_index_operators(operator: Operator) -> None:
            for node in operator.children:
                visit_index_operators(node)
            counters.index_lookups += getattr(operator, "index_lookups", 0) or 0
            counters.index_pages_read += getattr(operator, "index_pages_read", 0) or 0

        visit_index_operators(plan.root)
        controller = config.batch_controller
        return ExecutionMetrics(
            elapsed_seconds=self.context.elapsed_seconds,
            counters=counters,
            rows_returned=len(rows),
            strategy=config.strategy,
            concurrency_factor=concurrency,
            batch_size=config.batch_size,
            batch_size_trace=(
                controller.size_trace()
                if controller is not None and controller.batches_observed > 0
                else None
            ),
            converged_batch_size=(
                controller.converged_batch_size
                if controller is not None and controller.batches_observed > 0
                else None
            ),
            strategy_switches=switches,
            strategies_used=strategies_used or None,
            replan_attempts=replan_attempts,
            plan_migrations=plan_migrations,
            udf_orders_used=udf_orders_used or None,
            shapes_used=shapes_used or None,
            overlap_window=overlap_window,
            sim_events=self.context.sim_events,
            plan_description=plan.explain(),
        )
