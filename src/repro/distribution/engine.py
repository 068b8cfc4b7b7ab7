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

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.adaptive.observer import RuntimeObserver
from repro.adaptive.store import StatisticsStore
from repro.client.registry import UdfRegistry
from repro.client.runtime import ClientRuntime
from repro.client.udf import UdfDefinition, UdfSite
from repro.core.execution.scatter import ScatterGatherOperator, ShardResult
from repro.core.strategies import ExecutionStrategy, StrategyConfig
from repro.network.simulator import Simulator
from repro.network.stats import ChannelStats, LinkStats
from repro.relational.catalog import Catalog
from repro.relational.expressions import ColumnRef
from repro.relational.operators import Distinct, Limit, Operator, Sort
from repro.relational.schema import Column, Schema
from repro.relational.table import Table
from repro.relational.types import DataType, FLOAT
from repro.server.executor import Executor
from repro.server.metrics import ExecutionMetrics
from repro.server.planner import build_plan
from repro.server.result import QueryResult
from repro.sql.binder import Binder
from repro.sql.logical import BoundQuery
from repro.errors import PlanError
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


class SiteExecutionContext(SharedExecutionContext):
    """A shared-simulator execution context pinned to one server site."""

    def __init__(self, *args, site: str = "", **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.site = site


class _SiteRecorder:
    """Routes a run's observation into the store under its site key."""

    def __init__(self, store: StatisticsStore, site: str) -> None:
        self._store = store
        self._site = site

    def record(self, observation: Any) -> None:
        self._store.record(observation, site=self._site)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._store, name)


class _ScatterRun:
    """Per-execute shared state: the simulator, trunks, and knobs."""

    def __init__(
        self,
        engine: "DistributedDatabase",
        config: StrategyConfig,
        optimize: bool,
        segments: int,
        migrate: bool,
        policy: MigrationPolicy,
        observe: bool,
    ) -> None:
        self.engine = engine
        self.config = config
        self.optimize = optimize
        self.segments = max(1, segments)
        self.migrate = migrate
        self.policy = policy
        self.observe = observe
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
    ) -> SiteExecutionContext:
        self.contexts_created += 1
        network = self.engine.cluster.site(site).network
        client = ClientRuntime(
            registry=self.engine.udfs,
            name=f"{site}.{flow}.client{self.contexts_created}",
        )
        down, up = self.trunks[site]
        channel = network.build_channel(
            self.simulator,
            name=f"{site}.{flow}.channel{self.contexts_created}",
            downlink_scheduler=down,
            uplink_scheduler=up,
            flow=flow,
        )
        return SiteExecutionContext(
            self.simulator, channel, client, network=network, worker=worker, site=site
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
        # Metric accumulators, folded into the coordinator's metrics.
        self.downlink = LinkStats(name=f"{task.label}.down")
        self.uplink = LinkStats(name=f"{task.label}.up")
        self.udf_invocations = 0
        self.client_cache_hits = 0
        self.client_compute_seconds = 0.0
        self.remote_operations = 0
        self.input_rows = 0

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
            observer = None
            if self.run.observe:
                observer = RuntimeObserver(_SiteRecorder(engine.statistics, site))
            executor = Executor(
                context,
                server_functions=engine._server_functions(),
                observer=observer,
                session=None,
            )
            run_config = self.run.config
            udf_order = udf_strategies = table_order = None
            decision = self.task.decision
            if decision is not None:
                run_config = decision.strategy_config
                udf_order = decision.udf_order
                udf_strategies = decision.udf_strategies
                table_order = decision.table_order
            plan = build_plan(
                seg_bound,
                context,
                config=run_config,
                server_functions=engine._server_functions(),
                udf_order=udf_order,
                udf_strategies=udf_strategies,
                table_order=table_order,
                defer_output_shaping=True,
            )
            result = executor.execute_plan(
                plan, config=run_config, deliver_results=True
            )
            gathered.extend(result.rows)
            schema = result.schema
            self._fold_metrics(context, result.metrics)
            elapsed = context.elapsed_seconds
            downlink_bytes = context.downlink_bytes
            uplink_bytes = context.uplink_bytes
            messages = (
                context.channel_stats.downlink.message_count
                + context.channel_stats.uplink.message_count
            )
            context.channel.close()

            remaining = len(segment_queries) - index - 1
            if (
                self.run.migrate
                and remaining >= self.run.policy.min_segments_remaining
                and len(self.task.replicas) > 1
            ):
                site = self._maybe_migrate(
                    site, remaining, elapsed, downlink_bytes, uplink_bytes, messages
                )
        self.result = ShardResult(
            self.task.label,
            schema if schema is not None else Schema([]),
            gathered,
            site=site,
        )

    def _maybe_migrate(
        self,
        site: str,
        remaining: int,
        seg_elapsed: float,
        downlink_bytes: float,
        uplink_bytes: float,
        messages: float,
    ) -> str:
        """Re-price the remaining segments on every replica; move if it pays."""
        planner = self.run.engine.planner()
        current_estimate = seg_elapsed * remaining
        best_site, best_estimate = None, None
        for candidate in self.task.replicas:
            if candidate == site:
                continue
            per_segment = planner.site_estimate_seconds(
                candidate, downlink_bytes, uplink_bytes, messages
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

    def _fold_metrics(self, context: SiteExecutionContext, metrics: ExecutionMetrics) -> None:
        stats = context.channel_stats
        self.downlink = self.downlink.merge(stats.downlink)
        self.uplink = self.uplink.merge(stats.uplink)
        self.udf_invocations += context.client.udf_invocations
        self.client_cache_hits += context.client.cache_hits
        self.client_compute_seconds += context.client.compute_seconds
        self.remote_operations += context.remote_operations
        self.input_rows += metrics.input_rows


class DistributedDatabase:
    """A cluster of server sites behind one logical SQL surface."""

    def __init__(
        self,
        cluster: ClusterConfig,
        default_config: Optional[StrategyConfig] = None,
        statistics: Optional[StatisticsStore] = None,
    ) -> None:
        self.cluster = cluster
        self.default_config = (
            default_config if default_config is not None else StrategyConfig()
        )
        self.statistics = statistics if statistics is not None else StatisticsStore()
        self.udfs = UdfRegistry()
        #: The logical catalog: every table, whole — what SQL binds against.
        self.catalog = Catalog()
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

    def register_client_udf(self, name: str, function: Callable[..., Any], **kwargs) -> UdfDefinition:
        """Register a client-site UDF (same surface as :class:`Database`)."""
        kwargs.setdefault("result_dtype", FLOAT)
        kwargs.setdefault("cost_per_call_seconds", 0.0005)
        kwargs.setdefault("selectivity", 0.5)
        return self.udfs.register_function(name, function, site=UdfSite.CLIENT, **kwargs)

    def register_server_udf(self, name: str, function: Callable[..., Any], **kwargs) -> UdfDefinition:
        kwargs.setdefault("result_dtype", FLOAT)
        kwargs.setdefault("cost_per_call_seconds", 0.0001)
        kwargs.setdefault("selectivity", 0.5)
        return self.udfs.register_function(name, function, site=UdfSite.SERVER, **kwargs)

    # -- binding / planning ---------------------------------------------------------------

    def bind(self, sql: str) -> BoundQuery:
        return Binder(self.catalog, self.udfs).bind_sql(sql)

    def planner(self) -> ClusterPlanner:
        return ClusterPlanner(
            self.cluster,
            self.unsharded,
            self.sharded,
            self.udfs,
            statistics=self.statistics,
            default_config=self.default_config,
        )

    def _server_functions(self) -> Dict[str, Callable[..., Any]]:
        return self.udfs.callables(UdfSite.SERVER)

    def explain(self, query: Union[str, BoundQuery], **kwargs) -> str:
        bound = self.bind(query) if isinstance(query, str) else query
        plan = self.planner().plan(bound, **kwargs)
        return self.cluster.describe() + "\n" + plan.describe()

    # -- execution ------------------------------------------------------------------------

    def execute(
        self,
        query: Union[str, BoundQuery],
        config: Optional[StrategyConfig] = None,
        strategy: Optional[ExecutionStrategy] = None,
        optimize: bool = False,
        calibrated: bool = True,
        segments: int = 1,
        migrate: bool = False,
        migration_policy: Optional[MigrationPolicy] = None,
        observe: bool = True,
    ) -> QueryResult:
        """Execute ``query`` over the cluster and gather one merged answer.

        ``strategy``/``config``/``optimize`` mean what they do on
        :meth:`Database.execute` — applied per shard task (``optimize=True``
        lets each site's System-R decision pick its own UDF shipping
        strategy).  ``segments``/``migrate``/``migration_policy`` arm
        mid-query replica migration; ``calibrated=False`` prices replicas
        from configured bandwidths even when observations exist.
        """
        bound = self.bind(query) if isinstance(query, str) else query
        config = config if config is not None else self.default_config
        if strategy is not None:
            config = config.with_strategy(strategy)
        policy = migration_policy if migration_policy is not None else MigrationPolicy()
        if migration_policy is not None:
            migrate = True

        plan = self.planner().plan(
            bound, config=config, optimize=optimize, calibrated=calibrated
        )
        run = _ScatterRun(
            self,
            config=config,
            optimize=optimize,
            segments=segments,
            migrate=migrate,
            policy=policy,
            observe=observe,
        )
        workers = [_ShardWorker(run, task) for task in plan.tasks]

        def runner(tasks: Sequence[ShardTask]) -> List[ShardResult]:
            run.driver.run(workers)
            return [worker.result for worker in workers if worker.result is not None]

        schema = self._canonical_schema(plan, config)
        scatter = ScatterGatherOperator(
            schema,
            plan.tasks,
            runner,
            label=plan.sharded_table or "unsharded",
        )
        root = self._shape_output(scatter, bound)
        rows = root.run()
        metrics = self._collect_metrics(run, workers, plan, root, rows, config)
        return QueryResult(
            schema=root.output_schema(),
            rows=rows,
            metrics=metrics,
            plan_text=plan.describe() + "\n" + root.explain(),
        )

    # -- helpers --------------------------------------------------------------------------

    def _canonical_schema(self, plan: ClusterPlan, config: StrategyConfig) -> Schema:
        """The per-shard deferred plan's output schema, built without running.

        Plan construction is pure operator wiring, so a throwaway context on
        the task's site suffices — the exact schema (names *and* types) every
        shard stream must match falls out of the same code path the shards
        themselves use.
        """
        task = plan.tasks[0]
        from repro.core.execution.context import RemoteExecutionContext

        context = RemoteExecutionContext.create(
            self.cluster.site(task.site).network,
            client=ClientRuntime(registry=self.udfs, name="schema-probe"),
        )
        run_config = config
        udf_order = udf_strategies = table_order = None
        if task.decision is not None:
            run_config = task.decision.strategy_config
            udf_order = task.decision.udf_order
            udf_strategies = task.decision.udf_strategies
            table_order = task.decision.table_order
        probe = build_plan(
            task.bound,
            context,
            config=run_config,
            server_functions=self._server_functions(),
            udf_order=udf_order,
            udf_strategies=udf_strategies,
            table_order=table_order,
            defer_output_shaping=True,
        )
        return probe.root.output_schema()

    def _shape_output(self, scatter: ScatterGatherOperator, bound: BoundQuery) -> Operator:
        """Coordinator-side DISTINCT / ORDER BY / LIMIT over the merged stream."""
        from repro.core.execution.rewrite import replace_udf_calls_with_columns

        plan: Operator = scatter
        mapping = {
            call.udf.name.lower(): call.result_column_name
            for call in bound.client_udf_calls
        }
        if bound.distinct:
            plan = Distinct(plan)
        if bound.order_by:
            sort_columns: List[str] = []
            for expression, _descending in bound.order_by:
                rewritten = replace_udf_calls_with_columns(expression, mapping)
                if not isinstance(rewritten, ColumnRef):
                    raise PlanError("ORDER BY only supports plain column references")
                name = rewritten.name
                if not plan.output_schema().has_column(name):
                    bare = name.partition(".")[2] if "." in name else name
                    if plan.output_schema().has_column(bare):
                        name = bare
                    else:
                        raise PlanError(f"ORDER BY column {name!r} is not in the output")
                sort_columns.append(name)
            descending_flags = {flag for _, flag in bound.order_by}
            plan = Sort(plan, sort_columns, descending=descending_flags == {True})
        if bound.limit is not None:
            plan = Limit(plan, bound.limit, bound.offset)
        return plan

    def _collect_metrics(
        self,
        run: _ScatterRun,
        workers: Sequence[_ShardWorker],
        plan: ClusterPlan,
        root: Operator,
        rows: Sequence[Any],
        config: StrategyConfig,
    ) -> ExecutionMetrics:
        downlink = LinkStats(name="scatter.down")
        uplink = LinkStats(name="scatter.up")
        udf_invocations = cache_hits = remote_operations = input_rows = 0
        compute_seconds = 0.0
        migrations = 0
        for worker in workers:
            downlink = downlink.merge(worker.downlink)
            uplink = uplink.merge(worker.uplink)
            udf_invocations += worker.udf_invocations
            cache_hits += worker.client_cache_hits
            compute_seconds += worker.client_compute_seconds
            remote_operations += worker.remote_operations
            input_rows += worker.input_rows
            migrations += worker.migrations
        return ExecutionMetrics.from_run(
            elapsed_seconds=run.simulator.now,
            channel_stats=ChannelStats(downlink=downlink, uplink=uplink),
            udf_invocations=udf_invocations,
            client_cache_hits=cache_hits,
            client_compute_seconds=compute_seconds,
            rows_returned=len(rows),
            input_rows=input_rows,
            remote_operations=remote_operations,
            strategy=config.strategy,
            plan_migrations=migrations,
            sim_events=run.simulator.events_processed,
            plan_description=plan.describe() + "\n" + root.explain(),
        )

    def __repr__(self) -> str:
        return (
            f"DistributedDatabase(sites={self.cluster.site_names}, "
            f"tables={self.catalog.table_names()}, sharded={sorted(self.sharded)})"
        )
