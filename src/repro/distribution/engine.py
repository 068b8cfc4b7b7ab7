"""The distributed engine: scatter UDF shipping over sites, gather one answer.

:class:`DistributedDatabase` is the cluster-facing sibling of
:class:`~repro.server.engine.Database`.  Tables registered against it are
split per the cluster's :class:`~repro.distribution.sharding.ShardingSpec`s
(unsharded tables are fully replicated to every site); ``execute`` then

1. plans with the :class:`~repro.distribution.planner.ClusterPlanner`
   (per-shard plans, replica pricing from per-site calibrated bandwidth,
   makespan-minimising site selection),
2. fans the shard tasks out as baton-driven workers on **one shared
   simulator** — each task's UDF shipping runs the ordinary overlapped wire
   protocol over its site's channel, and tasks co-located on one site
   contend on that site's FIFO trunk pair,
3. merges the result streams through a
   :class:`~repro.core.execution.scatter.ScatterGatherOperator` under one
   canonical schema, with DISTINCT / ORDER BY / LIMIT applied once at the
   coordinator over the merged stream.

With ``segments > 1`` each shard runs its fragment in contiguous segments;
``migrate=True`` re-prices the remaining segments on every candidate
replica at each boundary (observed byte profile × per-site calibrated
bandwidth) and moves the rest of the shard off a slow or contended replica
when the :class:`~repro.distribution.planner.MigrationPolicy` says the
switch pays.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.adaptive.observer import RuntimeObserver
from repro.adaptive.store import StatisticsStore
from repro.client.runtime import ClientRuntime
from repro.core.execution.context import ExecutionCounters, RemoteExecutionContext
from repro.core.execution.scatter import ScatterGatherOperator, ShardResult
from repro.core.strategies import ExecutionStrategy, StrategyConfig
from repro.network.simulator import Simulator
from repro.relational.catalog import Catalog
from repro.relational.operators import Operator
from repro.relational.schema import Column, Schema
from repro.relational.table import Table
from repro.relational.types import DataType
from repro.server.engine import SqlSurface, resolve_keywords
from repro.server.executor import Executor
from repro.server.metrics import ExecutionMetrics
from repro.server.planner import PlanBuildResult, build_plan, shape_output
from repro.server.result import QueryResult
from repro.sql.logical import BoundQuery
from repro.tenancy.baton import BatonDriver, BatonWorker
from repro.tenancy.driver import SharedExecutionContext
from repro.tenancy.fairqueue import shared_trunks
from repro.distribution.cluster import ClusterConfig
from repro.distribution.planner import (
    ClusterPlan,
    ClusterPlanner,
    MigrationPolicy,
    ShardTask,
)
from repro.distribution.sharding import ShardedTable, shard_table


class _ScatterRun:
    """Per-execute shared state: the simulator, trunks, and knobs."""

    def __init__(
        self,
        engine: "DistributedDatabase",
        segments: int,
        migrate: bool,
        policy: MigrationPolicy,
    ) -> None:
        self.engine = engine
        self.segments = max(1, segments)
        self.migrate = migrate
        self.policy = policy
        #: Where the shard tasks learn: the cluster's store, each context
        #: filing its link measurements under its own site.
        self.observer = RuntimeObserver(engine.statistics)
        self.simulator = Simulator()
        self.driver = BatonDriver(self.simulator, description="scatter-gather run")
        self.trunks: Dict[str, Tuple[Any, Any]] = {
            site.name: shared_trunks(
                self.simulator, discipline="fifo", name=f"site.{site.name}"
            )
            for site in engine.cluster.sites
        }
        self.contexts_created = 0

    def new_context(
        self, worker: BatonWorker, site: str, flow: str
    ) -> SharedExecutionContext:
        self.contexts_created += 1
        return SharedExecutionContext.open(
            worker,
            self.simulator,
            self.engine.cluster.site(site).network,
            self.trunks[site],
            flow=flow,
            client=ClientRuntime(
                registry=self.engine.udfs,
                name=f"{site}.{flow}.client{self.contexts_created}",
            ),
            channel_name=f"{site}.{flow}.channel{self.contexts_created}",
            observer=self.observer,
            site=site,
        )


class _ShardWorker(BatonWorker):
    """Runs one shard task, segment by segment, migrating replicas if told to."""

    def __init__(self, run: _ScatterRun, task: ShardTask) -> None:
        super().__init__(run.driver, name=task.label)
        self.run = run
        self.task = task
        self.result: Optional[ShardResult] = None
        self.migrations = 0
        self.sites_visited: List[str] = [task.site]
        #: Every segment's counters, folded; the coordinator folds the workers'.
        self.counters = ExecutionCounters()

    # -- segment splitting -------------------------------------------------------------

    def _segment_queries(self) -> List[BoundQuery]:
        engine = self.run.engine
        fragment = self.task.fragment
        segments = self.run.segments
        if fragment is None or segments <= 1 or len(fragment) == 0:
            return [self.task.bound]
        rows = fragment.rows
        size = max(1, -(-len(rows) // segments))
        queries: List[BoundQuery] = []
        for start in range(0, len(rows), size):
            piece = Table(fragment.name, fragment.schema)
            for row in rows[start : start + size]:
                piece.insert(list(row))
            queries.append(engine.planner().bind_for_fragment(self.task.bound.sql, piece))
        return queries

    # -- the task body -----------------------------------------------------------------

    def run_body(self) -> None:
        engine = self.run.engine
        site = self.task.site
        gathered: List[Any] = []
        schema: Optional[Schema] = None
        segment_queries = self._segment_queries()
        for index, seg_bound in enumerate(segment_queries):
            context = self.run.new_context(self, site, flow=self.task.label)
            executor = Executor(
                context, server_functions=engine._server_functions(), observer=context.observer
            )
            result = executor.execute_plan(
                engine._shard_plan(self.task, seg_bound, context), deliver_results=True
            )
            gathered.extend(result.rows)
            schema = result.schema
            self.counters += result.metrics.counters
            context.channel.close()

            remaining = len(segment_queries) - index - 1
            if self.run.migrate and remaining >= 1 and len(self.task.replicas) > 1:
                site = self._maybe_migrate(site, remaining, result.metrics)
        self.result = ShardResult(
            self.task.label,
            schema if schema is not None else Schema([]),
            gathered,
            site=site,
        )

    def _maybe_migrate(self, site: str, remaining: int, segment: ExecutionMetrics) -> str:
        """Re-price the remaining segments on every replica; move if it pays."""
        planner = self.run.engine.planner()
        current_estimate = segment.elapsed_seconds * remaining
        best_site, best_estimate = None, None
        for candidate in self.task.replicas:
            if candidate == site:
                continue
            per_segment = planner.site_estimate_seconds(
                candidate,
                segment.downlink_bytes,
                segment.uplink_bytes,
                segment.downlink_messages + segment.uplink_messages,
            )
            estimate = per_segment * remaining
            if best_estimate is None or estimate < best_estimate:
                best_site, best_estimate = candidate, estimate
        if best_site is not None and self.run.policy.should_migrate(
            current_estimate, best_estimate
        ):
            self.migrations += 1
            self.sites_visited.append(best_site)
            return best_site
        return site


class DistributedDatabase(SqlSurface):
    """A cluster of server sites behind one logical SQL surface."""

    def __init__(
        self,
        cluster: ClusterConfig,
        default_config: Optional[StrategyConfig] = None,
        statistics: Optional[StatisticsStore] = None,
    ) -> None:
        super().__init__()
        self.cluster = cluster
        self.default_config = (
            default_config if default_config is not None else StrategyConfig()
        )
        self.statistics = statistics if statistics is not None else StatisticsStore()
        #: Unsharded tables (replicated in full to every site).
        self.unsharded = Catalog()
        #: Sharded tables, fragment sets keyed by lowered table name.
        self.sharded: Dict[str, ShardedTable] = {}

    # -- schema management --------------------------------------------------------------

    def create_table(
        self,
        name: str,
        columns: Sequence[Tuple[str, DataType]],
        rows: Optional[Sequence[Sequence[Any]]] = None,
        replace: bool = False,
    ) -> Table:
        """Create a logical table; shard it if the cluster declares a spec."""
        schema = Schema(Column(column_name, dtype) for column_name, dtype in columns)
        table = Table(name, schema, rows=rows)
        self.catalog.register(table, replace=replace)
        spec = self.cluster.spec_for(name)
        if spec is not None:
            self.sharded[name.lower()] = shard_table(table, spec)
            if self.unsharded.has_table(name):
                self.unsharded.drop(name)
        else:
            self.unsharded.register(table, replace=replace)
        return table

    # -- planning -------------------------------------------------------------------------

    def planner(self) -> ClusterPlanner:
        return ClusterPlanner(
            self.cluster,
            self.unsharded,
            self.sharded,
            self.udfs,
            statistics=self.statistics,
            default_config=self.default_config,
        )

    def explain(self, query: Union[str, BoundQuery], **kwargs) -> str:
        plan = self.planner().plan(self.bind(query), **kwargs)
        return self.cluster.describe() + "\n" + plan.describe()

    # -- execution ------------------------------------------------------------------------

    def execute(
        self,
        query: Union[str, BoundQuery],
        config: Optional[StrategyConfig] = None,
        strategy: Optional[ExecutionStrategy] = None,
        optimize: bool = False,
        segments: int = 1,
        migrate: bool = False,
        migration_policy: Optional[MigrationPolicy] = None,
    ) -> QueryResult:
        """Execute ``query`` over the cluster and gather one merged answer.

        ``strategy``/``config``/``optimize`` mean what they do on
        :meth:`Database.execute` — applied per shard task (``optimize=True``
        lets each site's System-R decision pick its own UDF shipping
        strategy).  ``segments``/``migrate``/``migration_policy`` arm
        mid-query replica migration.  Every run is observed into the
        cluster's statistics store, each shard task's link measurements
        filed under its own site, and replicas are priced from those
        per-site calibrated bandwidths once the store has observed a query.
        """
        bound = self.bind(query)
        resolved = resolve_keywords(
            self.default_config,
            config=config,
            strategy=strategy,
            migrate=migrate,
            migration_policy=migration_policy,
        )
        config = resolved.config
        plan = self.planner().plan(bound, config=config, optimize=optimize)
        run = _ScatterRun(
            self,
            segments=segments,
            migrate=resolved.migrate,
            policy=migration_policy if migration_policy is not None else MigrationPolicy(),
        )
        workers = [_ShardWorker(run, task) for task in plan.tasks]

        def runner(tasks: Sequence[ShardTask]) -> List[ShardResult]:
            run.driver.run(workers)
            return [worker.result for worker in workers if worker.result is not None]

        scatter = ScatterGatherOperator(
            self._canonical_schema(plan),
            plan.tasks,
            runner,
            label=plan.sharded_table or "unsharded",
        )
        # DISTINCT / ORDER BY / LIMIT apply once, over the merged stream.
        root = shape_output(scatter, bound)
        rows = root.run()
        metrics = self._collect_metrics(run, workers, plan, root, rows, config)
        return QueryResult(
            schema=root.output_schema(),
            rows=rows,
            metrics=metrics,
            plan_text=metrics.plan_description,  # the same tree, rendered once
        )

    # -- helpers --------------------------------------------------------------------------

    def _shard_plan(
        self, task: ShardTask, bound: BoundQuery, context: RemoteExecutionContext
    ) -> PlanBuildResult:
        """The task's decision, whole, over ``bound``; output shaping deferred."""
        return build_plan(
            bound,
            context,
            server_functions=self._server_functions(),
            decision=task.decision,
            defer_output_shaping=True,
        )

    def _canonical_schema(self, plan: ClusterPlan) -> Schema:
        """The per-shard deferred plan's output schema, built without running.

        Plan construction is pure operator wiring, so a throwaway context on
        the task's site suffices — the exact schema (names *and* types) every
        shard stream must match falls out of the same code path the shards
        themselves use.
        """
        task = plan.tasks[0]
        context = RemoteExecutionContext.create(
            self.cluster.site(task.site).network,
            client=ClientRuntime(registry=self.udfs, name="schema-probe"),
        )
        return self._shard_plan(task, task.bound, context).root.output_schema()

    def _collect_metrics(
        self,
        run: _ScatterRun,
        workers: Sequence[_ShardWorker],
        plan: ClusterPlan,
        root: Operator,
        rows: Sequence[Any],
        config: StrategyConfig,
    ) -> ExecutionMetrics:
        counters = ExecutionCounters()
        for worker in workers:
            counters += worker.counters
        return ExecutionMetrics(
            elapsed_seconds=run.simulator.now,
            counters=counters,
            rows_returned=len(rows),
            strategy=config.strategy,
            replica_migrations=sum(worker.migrations for worker in workers),
            sim_events=run.simulator.events_processed,
            plan_description=plan.describe() + "\n" + root.explain(),
        )

    def __repr__(self) -> str:
        return (
            f"DistributedDatabase(sites={self.cluster.site_names}, "
            f"tables={self.catalog.table_names()}, sharded={sorted(self.sharded)})"
        )
