"""The executor: runs physical plans and gathers metrics."""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ExecutionError
from repro.core.execution.context import RemoteExecutionContext
from repro.core.optimizer.decision import OptimizationDecision
from repro.core.strategies import StrategyConfig
from repro.client.protocol import FinalResultBatch
from repro.network.message import MessageKind
from repro.relational.schema import Schema
from repro.relational.tuples import RowBatch, concat_batches
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

    The plan's operators book what they count and decide on the context as
    they run, so a finished query is read once: its
    :class:`~repro.server.metrics.ExecutionMetrics` are that reading.  With an
    ``observer`` (a :class:`~repro.adaptive.observer.RuntimeObserver`)
    attached, the metrics and the plan's operators also become an
    observation — per-UDF costs, observed selectivities — recorded in the
    observer's statistics store and returned on the
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

    def execute_plan(self, plan: PlanBuildResult, deliver_results: bool = False) -> QueryResult:
        """Execute an already-built plan with its ``plan.config``."""
        config = plan.config
        root = plan.root
        try:
            batches = list(root.execute_batches())
        except ExecutionError:
            raise
        except Exception as exc:  # noqa: BLE001 - surface plan failures uniformly
            raise ExecutionError(f"plan execution failed: {exc}") from exc
        rows: List[Tuple[Any, ...]] = []
        for batch in batches:
            rows.extend(batch.rows)

        if deliver_results:
            schema = root.output_schema()
            self._deliver_results(schema, concat_batches(batches, column_count=len(schema)))

        context = self.context
        controller = config.batch_controller
        adapted = controller is not None and controller.batches_observed > 0
        metrics = ExecutionMetrics(
            elapsed_seconds=context.elapsed_seconds,
            counters=context.counters(),
            rows_returned=len(rows),
            strategy=config.strategy,
            concurrency_factor=context.concurrency_factor,
            batch_size=config.batch_size,
            batch_size_trace=controller.size_trace() if adapted else None,
            converged_batch_size=controller.converged_batch_size if adapted else None,
            adaptations=tuple(context.adaptations),
            overlap_window=context.overlap_window,
            sim_events=context.sim_events,
            plan_description=plan.explain(),
        )
        if self.session is not None:
            metrics.tenant_id = self.session.tenant_id
            metrics.session_id = self.session.session_id
            self.session.record_query(metrics)
        observation = None
        if self.observer is not None:
            observation = self.observer.observe(
                metrics, root, plan.remote_operators, controller, site=context.site
            )
        return QueryResult(
            schema=root.output_schema(),
            rows=rows,
            metrics=metrics,
            plan_text=metrics.plan_description,  # the same tree, rendered once
            observation=observation,
        )

    # -- result delivery --------------------------------------------------------------------

    def _deliver_results(self, schema: Schema, batch: RowBatch) -> None:
        """Ship the final result batch to the client over the downlink.

        This models the paper's "result operator": for most queries the answer
        ultimately travels to the client, and that transfer competes for the
        same downlink the execution strategies use.  The batch is sized from
        its columns, as the plan's operators built them.
        """
        payload_bytes = batch.size_bytes(schema)
        channel = self.context.channel

        def deliver():
            yield channel.send_batch_to_client(
                MessageKind.FINAL_RESULTS,
                FinalResultBatch(rows=batch),
                payload_bytes=payload_bytes,
                row_count=len(batch),
                description=("final results (", len(batch), " rows)"),
            )
            from repro.network.message import end_of_stream

            yield channel.send_to_client(end_of_stream())
            yield channel.receive_at_server()

        try:
            self.context.run_exchange(deliver(), name="result-delivery")
        except ExecutionError as exc:
            raise ExecutionError(f"result delivery to the client failed: {exc}") from exc
