"""The top-level engine facade: :class:`Database`.

A :class:`Database` bundles a catalog, a UDF registry, a client session (the
network configuration and client runtime), and the execution machinery.  It
is the public API most examples and benchmarks use::

    db = Database(network=NetworkConfig.paper_symmetric())
    db.create_table("StockQuotes", [("Name", STRING), ("Quotes", TIME_SERIES)])
    db.register_client_udf("ClientAnalysis", analyse, result_dtype=FLOAT)
    result = db.execute(
        "SELECT S.Name FROM StockQuotes S WHERE ClientAnalysis(S.Quotes) > 500",
        config=StrategyConfig.semi_join(),
    )
    print(result.metrics.summary())
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import replace
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.errors import BindError, OptimizerError
from repro.adaptive import (
    SWITCHING_POLICY,
    AdaptationPolicy,
    BatchControllerBank,
    BatchSizeController,
    OverlapWindowController,
    ReOptimizer,
    RuntimeObserver,
    StatisticsStore,
)
from repro.adaptive.store import STATISTICS_PROTOCOL
from repro.client.registry import UdfRegistry
from repro.client.udf import UdfDefinition, UdfSite
from repro.core.execution.context import RemoteExecutionContext
from repro.core.optimizer.decision import OptimizationDecision, Optimizer
from repro.core.strategies import ExecutionStrategy, StrategyConfig
from repro.network.topology import NetworkConfig
from repro.relational.catalog import Catalog
from repro.relational.schema import Column, Schema
from repro.relational.table import Table
from repro.relational.types import DataType, FLOAT
from repro.server.executor import Executor
from repro.server.planner import build_plan
from repro.server.result import QueryResult
from repro.server.session import ClientSession
from repro.sql.ast import CreateIndexStatement
from repro.sql.binder import Binder, BoundStatement
from repro.sql.logical import BoundQuery


class ResolvedKeywords(NamedTuple):
    """``execute``'s keywords after their implications: what actually runs."""

    config: StrategyConfig
    optimize: bool
    reoptimize: bool
    calibrated: bool
    migrate: bool


def resolve_keywords(
    default_config: StrategyConfig,
    config: Optional[StrategyConfig] = None,
    strategy: Optional[ExecutionStrategy] = None,
    overlap_window: Optional[int] = None,
    optimize: bool = False,
    udf_order: Optional[Sequence[str]] = None,
    adaptive: bool = False,
    calibrated: Optional[bool] = None,
    switch_strategies: bool = False,
    switch_policy: Optional[AdaptationPolicy] = None,
    reoptimize: bool = False,
    replan_policy: Optional[AdaptationPolicy] = None,
    migrate: bool = False,
    migration_policy: Optional[object] = None,
    statistics: Optional[StatisticsStore] = None,
) -> ResolvedKeywords:
    """Turn ``execute`` keywords into one config and the flags they imply.

    The one place the implications and conflicts between keywords live, for
    :meth:`Database.execute` and ``DistributedDatabase.execute`` alike: a
    policy arms its feature (``switch_policy`` ⇒ ``switch_strategies``,
    ``replan_policy`` ⇒ ``reoptimize``, ``migration_policy`` ⇒ ``migrate``),
    ``reoptimize`` ⇒ ``optimize`` (the committed plan comes from the
    enumerator), ``calibrated`` left ``None`` follows ``adaptive``, and
    ``udf_order`` with ``optimize`` is refused — the optimizer chooses the
    UDF order, so a hand-pinned one would be dropped without a word.
    """
    config = config if config is not None else default_config
    if strategy is not None:
        config = config.with_strategy(strategy)
    if overlap_window is not None:
        config = config.with_overlap_window(overlap_window)
    switching = switch_strategies or switch_policy is not None
    if switching:
        config = config.with_switch_policy(
            switch_policy if switch_policy is not None else SWITCHING_POLICY
        )
    reoptimize = reoptimize or replan_policy is not None
    optimize = optimize or reoptimize
    if optimize and udf_order is not None:
        raise OptimizerError(
            "udf_order pins the UDF order by hand, optimize=True (also implied by "
            "reoptimize / replan_policy) lets the optimizer choose it: pass one"
        )
    if switching or reoptimize:
        # Runtime adaptation consults the store's measured priors for its
        # initial estimates (warm-started evidence floor).
        config = config.with_statistics(statistics)
    return ResolvedKeywords(
        config=config,
        optimize=optimize,
        reoptimize=reoptimize,
        calibrated=adaptive if calibrated is None else calibrated,
        migrate=migrate or migration_policy is not None,
    )


#: Bound statements a surface keeps (one per SQL text) and optimizer
#: decisions a database keeps; the least recently used entry goes first.
STATEMENT_MEMO_BOUND = 64
DECISION_MEMO_BOUND = 64


def _snapshot(statement: BoundStatement) -> Tuple[object, ...]:
    """The statistics object each base table of ``statement`` answers with now."""
    tables = statement.tables if isinstance(statement, BoundQuery) else ()
    return tuple(bound.table.statistics for bound in tables)


def _remember(memo: Dict[Any, tuple], key: Any, entry: tuple, bound: int) -> tuple:
    """``entry`` stored under ``key`` as the most recent; the oldest beyond ``bound`` goes."""
    memo[key] = entry
    if len(memo) > bound:
        del memo[next(iter(memo))]
    return entry


def _same(one: Tuple[object, ...], other: Tuple[object, ...]) -> bool:
    """Two snapshots of one statement's tables: the very same objects?"""
    return all(a is b for a, b in zip(one, other))


class StatisticsReads:
    """The statistics protocol answered by ``store``, every answer logged.

    A decision made through it leaves :attr:`log`, one ``(method, arguments,
    keywords, answer)`` per read, which :func:`_reads_hold` replays.  Any
    attribute outside :data:`STATISTICS_PROTOCOL` raises, so a read the
    optimizer makes cannot go unlogged.
    """

    __slots__ = ("_store", "log")

    def __init__(self, store: StatisticsStore) -> None:
        self._store = store
        self.log: List[tuple] = []

    def __getattr__(self, name: str) -> Callable[..., object]:
        if name not in STATISTICS_PROTOCOL:
            raise AttributeError(f"{name!r} is not a statistics-protocol method")
        method = getattr(self._store, name)

        def read(*arguments: object, **keywords: object) -> object:
            answer = method(*arguments, **keywords)
            self.log.append((name, arguments, keywords, answer))
            return answer

        return read


def _reads_hold(log: Sequence[tuple], store: Optional[StatisticsStore]) -> bool:
    """Does ``store`` give each answer of ``log`` again?"""
    return all(
        getattr(store, name)(*arguments, **keywords) == answer
        for name, arguments, keywords, answer in log
    )


def _stateless(config: StrategyConfig) -> StrategyConfig:
    """``config`` without the four runtime fields its equality leaves out, so
    a memo key keeps no run's controllers and no tenant's store alive."""
    if (
        config.batch_controller is None
        and config.overlap_controller is None
        and config.reoptimizer is None
        and config.statistics is None
    ):
        return config
    return replace(
        config, batch_controller=None, overlap_controller=None, reoptimizer=None, statistics=None
    )


class SqlSurface:
    """UDF registration and SQL binding over ``self.catalog`` and ``self.udfs``.

    What :class:`Database` and the cluster-facing ``DistributedDatabase``
    share verbatim: one signature and one set of declared-cost defaults.
    """

    def __init__(self) -> None:
        #: The logical catalog: every table, whole — what SQL binds against.
        self.catalog = Catalog()
        self.udfs = UdfRegistry()
        self._statements: Dict[str, tuple] = {}

    # -- UDF management -----------------------------------------------------------------

    def register_client_udf(
        self,
        name: str,
        function: Callable[..., Any],
        result_dtype: DataType = FLOAT,
        result_size_bytes: Optional[int] = None,
        cost_per_call_seconds: float = 0.0005,
        selectivity: float = 0.5,
        description: str = "",
        replace: bool = False,
        actual_cost_per_call_seconds: Optional[float] = None,
    ) -> UdfDefinition:
        """Register a client-site UDF (executed only at the client).

        ``cost_per_call_seconds`` is the *declared* cost the planner starts
        from; ``actual_cost_per_call_seconds``, when given, is what the
        client really charges — the adaptive runtime observes the difference
        and calibrates later plans.
        """
        return self.udfs.register_function(
            name,
            function,
            site=UdfSite.CLIENT,
            result_dtype=result_dtype,
            result_size_bytes=result_size_bytes,
            cost_per_call_seconds=cost_per_call_seconds,
            actual_cost_per_call_seconds=actual_cost_per_call_seconds,
            selectivity=selectivity,
            description=description,
            replace=replace,
        )

    def register_client_udf_source(
        self,
        name: str,
        source: str,
        entry_point: Optional[str] = None,
        result_dtype: DataType = FLOAT,
        result_size_bytes: Optional[int] = None,
        cost_per_call_seconds: float = 0.0005,
        selectivity: float = 0.5,
        replace: bool = False,
    ) -> UdfDefinition:
        """Register an untrusted source-text UDF, compiled under the sandbox."""
        return self.udfs.register_source(
            name,
            source,
            entry_point=entry_point,
            site=UdfSite.CLIENT,
            result_dtype=result_dtype,
            result_size_bytes=result_size_bytes,
            cost_per_call_seconds=cost_per_call_seconds,
            selectivity=selectivity,
            replace=replace,
        )

    def register_server_udf(
        self,
        name: str,
        function: Callable[..., Any],
        result_dtype: DataType = FLOAT,
        cost_per_call_seconds: float = 0.0001,
        selectivity: float = 0.5,
        description: str = "",
        replace: bool = False,
    ) -> UdfDefinition:
        """Register an ordinary server-site UDF (evaluated inside the server)."""
        return self.udfs.register_function(
            name,
            function,
            site=UdfSite.SERVER,
            result_dtype=result_dtype,
            cost_per_call_seconds=cost_per_call_seconds,
            selectivity=selectivity,
            description=description,
            replace=replace,
        )

    # -- parsing / binding ----------------------------------------------------------------

    def statement(self, query: Union[str, BoundQuery]) -> BoundStatement:
        """What ``query`` says: SQL text bound once, or the query it already is."""
        return self._statement(query)[0]

    def _statement(self, query: Union[str, BoundQuery]) -> Tuple[BoundStatement, Optional[tuple]]:
        """``query`` bound, with its tables' statistics snapshot when it is text.

        Text is bound again only once the catalog's or the UDF registry's
        ``generation`` moved or a base table answers with another statistics
        object: binding estimates predicate selectivities from them.
        """
        if not isinstance(query, str):
            return query, None
        stamp = (self.catalog.generation, self.udfs.generation)
        entry = self._statements.pop(query, None)
        if entry is None or entry[0] != stamp or not _same(_snapshot(entry[1]), entry[2]):
            bound = Binder(self.catalog, self.udfs).bind_sql(query)
            entry = (stamp, bound, _snapshot(bound))
        _remember(self._statements, query, entry, STATEMENT_MEMO_BOUND)
        return entry[1], entry[2]

    def bind(self, query: Union[str, BoundQuery]) -> BoundQuery:
        """The query ``query`` is, without executing it; index DDL is refused."""
        statement = self.statement(query)
        if not isinstance(statement, BoundQuery):
            raise BindError(
                f"{type(statement).__name__} is DDL; only SELECT statements bind to a query"
            )
        return statement

    def _server_functions(self) -> Dict[str, Callable[..., Any]]:
        return self.udfs.callables(UdfSite.SERVER)


class Database(SqlSurface):
    """An ORDBMS with client-site UDF support: in memory, or durable on disk.

    By default every table lives in memory and nothing survives the process.
    With ``storage_dir`` set the database opens a
    :class:`~repro.storage.engine.StorageEngine` over that directory: tables
    become slotted-page heap files reached through a buffer pool, the
    metadata catalog persists schemas and incrementally-maintained
    statistics, previously-created tables are recovered on open, and the
    adaptive :class:`StatisticsStore` is saved to / warm-started from
    ``statistics.json`` in the same directory (keyed by a workload
    fingerprint so schema or UDF changes start cold).
    """

    def __init__(
        self,
        network: Optional[NetworkConfig] = None,
        default_config: Optional[StrategyConfig] = None,
        statistics: Optional[StatisticsStore] = None,
        storage_dir: Optional[str] = None,
        buffer_pool_size: int = 64,
        cost_settings: Optional["CostSettings"] = None,
    ) -> None:
        super().__init__()
        self._decisions: Dict[tuple, tuple] = {}
        self.network = network if network is not None else NetworkConfig.paper_symmetric()
        self.default_config = default_config if default_config is not None else StrategyConfig()
        self.session = ClientSession(self.network, registry=self.udfs)
        #: Observed-statistics feedback shared by every query on this
        #: database: the observer measures each run, the store blends the
        #: measurements, and the optimizer consults them on later queries.
        self.statistics = statistics if statistics is not None else StatisticsStore()
        self.observer = RuntimeObserver(self.statistics)
        #: Cost-model settings the optimizer plans with (``None`` keeps the
        #: defaults).  Index access paths only enter the plan space when
        #: these charge block I/O (``block_access_seconds > 0``).
        self.cost_settings = cost_settings
        #: The durable storage engine, or None for a purely in-memory database.
        self.storage = None
        self._statistics_loaded = False
        if storage_dir is not None:
            from repro.storage.engine import StorageEngine

            self.storage = StorageEngine(storage_dir, pool_size=buffer_pool_size)
            self._recover_tables()

    # -- schema management --------------------------------------------------------------

    def create_table(
        self,
        name: str,
        columns: Sequence[Tuple[str, DataType]],
        rows: Optional[Sequence[Sequence[Any]]] = None,
        replace: bool = False,
    ) -> Table:
        """Create (and register) a table from ``(column, type)`` pairs."""
        schema = Schema(Column(column_name, dtype) for column_name, dtype in columns)
        if replace and self.catalog.has_table(name):
            self._invalidate_table_statistics(self.catalog.table(name))
        if self.storage is not None:
            storage = self.storage.create_table(name, schema, replace=replace)
            table = Table(name, schema, storage=storage)
            if rows is not None:
                table.insert_many(rows)
            self.storage.flush()
        else:
            table = Table(name, schema, rows=rows)
        return self.catalog.register(table, replace=replace)

    def drop_table(self, name: str) -> None:
        self._invalidate_table_statistics(self.catalog.table(name))
        self.catalog.drop(name)
        if self.storage is not None:
            self.storage.drop_table(name)

    def _invalidate_table_statistics(self, table: Table) -> None:
        """Forget derived statistics describing a dropped/replaced table's data.

        The observed-evidence store keys by column name; statistics learned
        about the old incarnation's columns must not inform estimates for the
        replacement's data.
        """
        self.statistics.forget_columns(
            column.name for column in table.schema.columns
        )

    def _recover_tables(self) -> None:
        """Re-register every table the storage directory already holds."""
        for name in self.storage.table_names():
            storage = self.storage.open_table(name)
            self.catalog.register(Table(name, storage.entry.schema, storage=storage), replace=True)

    # -- index management ---------------------------------------------------------------

    def create_index(
        self, name: str, table: str, column: str, kind: str = "btree"
    ) -> None:
        """Create a secondary index over ``table.column`` (durable databases only).

        ``kind`` is ``"btree"`` (point and range lookups) or ``"hash"``
        (equality only, cheaper probes).  The index is built from the current
        heap contents, maintained incrementally on every insert and delete,
        and persisted in the catalog, so it survives reopen.
        """
        if self.storage is None:
            raise OptimizerError("indexes need a durable database (storage_dir=...)")
        self.storage.create_index(name, table, column, kind=kind)
        self.storage.flush()

    def drop_index(self, name: str) -> None:
        """Drop a secondary index by name."""
        if self.storage is None:
            raise OptimizerError("indexes need a durable database (storage_dir=...)")
        self.storage.drop_index(name)
        self.storage.flush()

    def index_names(self) -> List[str]:
        """Names of every secondary index (empty for in-memory databases)."""
        if self.storage is None:
            return []
        return self.storage.metadata.index_names()

    def analyze(self, table: str) -> None:
        """Refresh a table's catalog statistics (histograms, distinct counts) now.

        The storage engine refreshes lazily on scan/delete triggers; call
        this after a bulk load so the optimizer's selectivity estimates —
        and with them the index-versus-scan access-path choice — see the
        loaded data immediately.  No-op for in-memory databases, whose
        statistics are always exact.
        """
        if self.storage is not None:
            self.storage.refresh_statistics(table)

    # -- execution ---------------------------------------------------------------------------

    def execute(
        self,
        query: Union[str, BoundQuery],
        config: Optional[StrategyConfig] = None,
        strategy: Optional[ExecutionStrategy] = None,
        deliver_results: bool = False,
        optimize: bool = False,
        udf_order: Optional[Sequence[str]] = None,
        adaptive: bool = False,
        overlap_window: Optional[int] = None,
        observe: bool = True,
        calibrated: Optional[bool] = None,
        switch_strategies: bool = False,
        switch_policy: Optional[AdaptationPolicy] = None,
        reoptimize: bool = False,
        replan_policy: Optional[AdaptationPolicy] = None,
        context: Optional["RemoteExecutionContext"] = None,
    ) -> QueryResult:
        """Execute ``query`` (SQL text or a bound query) and return the result.

        Text binds once (:meth:`statement`); index DDL runs through
        :meth:`create_index` / :meth:`drop_index` and returns no rows.

        ``config`` selects the client-site UDF execution strategy explicitly;
        ``strategy`` is a shorthand for ``default_config.with_strategy(...)``.
        With ``optimize=True`` the extended System-R optimizer chooses the
        join/UDF order and per-UDF strategy instead (``config`` then only
        supplies the tunables such as the concurrency factor).

        ``adaptive=True`` attaches a fresh
        :class:`~repro.adaptive.controller.BatchControllerBank` — one
        independent :class:`~repro.adaptive.controller.BatchSizeController`
        per UDF — so each UDF's batch size hill-climbs on its own observed
        throughput *while the query runs*, warm-started from the size earlier
        adaptive queries of that UDF converged to.  It also attaches an
        :class:`~repro.adaptive.controller.OverlapWindowController`, so the
        overlapped shipping protocol's in-flight batch window hill-climbs on
        the same signal alongside the batch size.  ``observe=False``
        disables the post-run observation (and thus the feedback into
        :attr:`statistics`) for this query.

        ``overlap_window`` pins the in-flight batch window of the overlapped
        shipping protocol for every strategy: 1 ships synchronously (the
        paper's naive wire behaviour), W keeps up to W request batches
        outstanding while the server keeps producing.  ``None`` keeps each
        strategy's default (synchronous naive, freely streaming semi-join
        and client-site join) — or hands the window to the adaptive
        controller when ``adaptive=True``.

        ``switch_strategies=True`` (or an explicit ``switch_policy``)
        additionally arms *mid-query strategy switching*: the UDF operators
        run the input in segments, re-cost the remaining rows under every
        strategy from observed selectivity/bandwidth at each segment
        boundary, and — with hysteresis — hand the unprocessed tail to a
        different strategy executor when the committed choice turns out
        wrong.  The committed ``config.strategy`` (or the optimizer's choice)
        becomes the initial strategy.

        ``calibrated`` controls whether the optimizer plans with the
        statistics store's *measured* network/UDF parameters instead of the
        configured/declared ones.  The default (``None``) calibrates exactly
        when the caller opted into the adaptive runtime (``adaptive=True``),
        so plain ``optimize=True`` runs stay reproducible and independent of
        what ran before; pass ``True``/``False`` to force either way.

        ``reoptimize=True`` arms full *mid-query re-optimization* (and
        implies ``optimize=True``: the committed plan comes from the
        enumerator).  The whole client-site UDF chain then runs inside one
        :class:`~repro.core.execution.adaptive.PlanMigrationOperator`: at
        segment boundaries a :class:`~repro.adaptive.ReOptimizer` re-prices
        every UDF order and strategy assignment over the *remaining* input
        with the observed statistics and — under ``replan_policy``'s
        hysteresis and change budget — may migrate execution to a
        structurally different plan (reordered UDF applications, different
        per-UDF strategies), not just a different shipping strategy.
        ``switch_policy`` and ``replan_policy`` are both
        :class:`~repro.adaptive.AdaptationPolicy` values: switching is the
        same controller with each UDF's order held.

        ``context`` runs the query on an externally-built execution context
        (e.g. a shared-simulation context from :mod:`repro.tenancy.driver`)
        instead of a fresh one from :attr:`session`.  The context also says
        whom the query runs for and where it learns: its ``session`` stamps
        the metrics, its ``observer`` takes the feedback and the observer's
        store replaces the database-wide one for this query's planning.
        Whatever the context leaves ``None`` is the database-wide singleton,
        so single-query callers see no change.
        """
        self._ensure_statistics_loaded()
        bound, snapshot = self._statement(query)
        if not isinstance(bound, BoundQuery):  # index DDL: no planning, no network
            if isinstance(bound, CreateIndexStatement):
                self.create_index(bound.name, bound.table, bound.column, kind=bound.kind)
            else:
                self.drop_index(bound.name)
            return QueryResult(schema=Schema(()), rows=[], plan_text=str(bound))
        if context is None:
            context = self.session.new_context()
        observer = context.observer if context.observer is not None else self.observer
        statistics = observer.store if observer.store is not None else self.statistics
        buffers_before = (
            self.storage.buffer_stats() if self.storage is not None else None
        )
        resolved = resolve_keywords(
            self.default_config,
            config=config,
            strategy=strategy,
            overlap_window=overlap_window,
            optimize=optimize,
            udf_order=udf_order,
            adaptive=adaptive,
            calibrated=calibrated,
            switch_strategies=switch_strategies,
            switch_policy=switch_policy,
            reoptimize=reoptimize,
            replan_policy=replan_policy,
            statistics=statistics,
        )
        config = resolved.config
        if adaptive:
            config = config.with_batch_controller(
                self.new_controller_bank(config, statistics=statistics)
            )
            if config.overlap_window is None and config.overlap_controller is None:
                config = config.with_overlap_controller(OverlapWindowController())

        decision = self._decide(
            bound, config, resolved.optimize, resolved.calibrated, udf_order, statistics, snapshot
        )
        run_config = decision.strategy_config
        if resolved.reoptimize:
            run_config = run_config.with_reoptimizer(
                ReOptimizer(policy=replan_policy, statistics=statistics)
            )
        executor = Executor(
            context,
            server_functions=self._server_functions(),
            observer=observer if observe else None,
            session=context.session if context.session is not None else self.session,
        )
        return self._finalize_result(
            executor.execute_query(
                bound, config=run_config, deliver_results=deliver_results, decision=decision
            ),
            buffers_before,
            persist=observe and statistics is self.statistics,
        )

    def _decide(
        self,
        bound: BoundQuery,
        config: StrategyConfig,
        optimize: bool,
        calibrated: bool = False,
        udf_order: Optional[Sequence[str]] = None,
        statistics: Optional[StatisticsStore] = None,
        snapshot: Optional[tuple] = None,
    ) -> OptimizationDecision:
        """The decision ``execute`` runs, ``explain`` prints and SJF admission prices.

        Without ``optimize`` it is the caller's own pins (``config`` and
        ``udf_order``).  With it, every planning entry point must price with
        one cost model — this database's network and cost settings (block
        I/O, index paths) — or admission orders queries by a cost
        ``execute`` never plans with.  ``statistics`` (the database-wide
        store by default) calibrate it only when asked to and once something
        was observed.

        A decision is made once per bound query, config (without its runtime
        fields), UDF order, network, cost settings and calibrating store, and
        served while every base table answers with the statistics object it
        was priced from (``snapshot``; read here when the caller has none)
        and every statistics read it made, asked again, gets the same
        answer.  A served decision is the caller's ``config`` with the
        memoised batch size and strategy: it carries this call's runtime
        state and no other's.
        """
        if not optimize:
            return OptimizationDecision.pinned(bound, config, udf_order=tuple(udf_order or ()))
        statistics = statistics if statistics is not None else self.statistics
        store = statistics if calibrated and statistics.queries_observed else None
        key = (
            id(bound), _stateless(config), tuple(udf_order or ()), self.network,
            self.cost_settings, None if store is None else id(store),
        )  # fmt: skip
        snapshot = snapshot if snapshot is not None else _snapshot(bound)
        entry = self._decisions.pop(key, None)
        if (
            entry is not None
            and entry[0] is bound
            and _same(entry[1], snapshot)
            and _reads_hold(entry[5], store)
        ):
            _remember(self._decisions, key, entry, DECISION_MEMO_BOUND)
            return OptimizationDecision(
                entry[2], replace(config, batch_size=entry[3], strategy=entry[4])
            )
        reads = StatisticsReads(store) if store is not None else None
        decision = Optimizer(
            self.network, default_config=config, settings=self.cost_settings, statistics=reads
        ).optimize(bound)
        made = decision.strategy_config
        log = tuple(reads.log) if reads is not None else ()
        entry = (bound, snapshot, decision.plan, made.batch_size, made.strategy, log)
        _remember(self._decisions, key, entry, DECISION_MEMO_BOUND)
        return decision

    # -- durable storage plumbing --------------------------------------------------------

    def _finalize_result(
        self,
        result: QueryResult,
        buffers_before: Optional[object],
        persist: bool = False,
    ) -> QueryResult:
        """Stamp buffer-pool traffic onto the result and persist state.

        Runs after every :meth:`execute` on a durable database: the buffer
        counters' delta since query start lands on the metrics (observability
        of real page traffic), dirty pages and catalog stats flush, and —
        when the run was observed into the database-wide store — the
        statistics snapshot is rewritten if the run moved an estimate the
        planner reads or the workload fingerprint changed
        (:meth:`StatisticsStore.needs_save`), so a restart, even one after a
        crash, warm-starts from every estimate learned.  Only the counters
        (``queries_observed``, sample counts) on disk may lag until
        :meth:`close`.
        """
        if self.storage is None:
            return result
        result.metrics.buffers = self.storage.buffer_stats().delta(buffers_before)
        self.storage.flush()
        if persist:
            path = self._statistics_path()
            fingerprint = self.workload_fingerprint()
            if self.statistics.needs_save(path, fingerprint):
                self.statistics.save(path, fingerprint=fingerprint)
        return result

    def _statistics_path(self) -> Optional[str]:
        if self.storage is None:
            return None
        return os.path.join(self.storage.directory, "statistics.json")

    def workload_fingerprint(self) -> str:
        """A digest of the schemas and UDF registry the statistics describe.

        Saved alongside the statistics snapshot: a restart whose schemas or
        UDFs differ gets a cold store instead of calibrations measured on a
        different workload.
        """
        parts: List[str] = []
        for name in self.catalog.table_names():
            table = self.catalog.table(name)
            columns = ",".join(
                f"{column.name.lower()}:{column.dtype.name}"
                for column in table.schema.columns
            )
            parts.append(f"table {name.lower()}({columns})")
        parts.extend(f"udf {udf_name.lower()}" for udf_name in sorted(self.udfs.names()))
        return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()

    def _ensure_statistics_loaded(self) -> None:
        """Warm-start the statistics store from disk, once, at first execute.

        Deferred to first execution (not ``__init__``) so the fingerprint
        sees the tables *and UDFs* the application registers after opening
        the database — the same state a prior run's snapshot was keyed by.
        """
        if self._statistics_loaded or self.storage is None:
            return
        self._statistics_loaded = True
        path = self._statistics_path()
        if path is not None and self.statistics.queries_observed == 0:
            self.statistics.restore(path, fingerprint=self.workload_fingerprint())

    def save_statistics(self) -> None:
        """Snapshot the adaptive statistics store, counters and all, into the
        storage directory."""
        path = self._statistics_path()
        if path is not None:
            self.statistics.save(path, fingerprint=self.workload_fingerprint())

    def close(self) -> None:
        """Flush and close durable state (no-op for in-memory databases).

        The statistics snapshot is written in full.  Closing twice writes
        nothing the second time, and any storage call after the first
        raises :class:`~repro.errors.StorageError`.
        """
        if self.storage is None or self.storage.closed:
            return
        if self._statistics_loaded or self.statistics.queries_observed > 0:
            self.save_statistics()
        self.storage.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def new_controller_bank(
        self,
        config: Optional[StrategyConfig] = None,
        statistics: Optional[StatisticsStore] = None,
    ) -> BatchControllerBank:
        """A per-UDF controller bank, each controller warm-started from feedback.

        Every UDF gets its own :class:`BatchSizeController` (created on first
        use) starting where earlier adaptive executions of *that UDF*
        converged, falling back to the plan-wide converged size and then the
        configured batch size — so one UDF's learning never perturbs
        another's, but a brand-new UDF still benefits from what the
        environment taught us.  ``statistics`` selects which store the bank
        warm-starts from (a tenant's private store under multi-tenancy);
        the database-wide store by default.
        """
        config = config if config is not None else self.default_config
        store = statistics if statistics is not None else self.statistics
        fallback = config.batch_size if config.batch_size > 1 else 8

        def factory(name: str) -> BatchSizeController:
            initial = store.preferred_batch_size_for(name, default=fallback)
            return BatchSizeController(initial_batch_size=initial)

        return BatchControllerBank(factory)

    def explain(
        self,
        query: Union[str, BoundQuery],
        config: Optional[StrategyConfig] = None,
        optimize: bool = False,
        calibrated: bool = False,
    ) -> str:
        """The physical plan ``execute`` would run, under the decision behind it.

        With ``optimize=True`` the optimizer's decision is printed above the
        plan that realises it — the same decision, through the same planner,
        as ``execute(optimize=True)``.

        ``calibrated=True`` makes the optimizer plan with the statistics
        store's measured parameters, as ``execute(..., adaptive=True,
        optimize=True)`` would.
        """
        bound = self.bind(query)
        config = config if config is not None else self.default_config
        decision = self._decide(bound, config, optimize, calibrated)
        plan = build_plan(
            bound,
            # Off the session's count, which names the next executed query's channel.
            RemoteExecutionContext.create(self.network, registry=self.udfs),
            server_functions=self._server_functions(),
            decision=decision,
        )
        lines = [decision.describe()] if optimize else []
        lines.append(plan.explain())
        return "\n".join(lines)

    # -- comparisons (used heavily by benchmarks) ----------------------------------------------

    def compare_strategies(
        self,
        query: Union[str, BoundQuery],
        strategies: Optional[Sequence[ExecutionStrategy]] = None,
        config: Optional[StrategyConfig] = None,
        deliver_results: bool = False,
    ) -> Dict[ExecutionStrategy, QueryResult]:
        """Execute the same query under several strategies and return all results."""
        bound = self.bind(query)
        strategies = list(strategies) if strategies is not None else list(ExecutionStrategy)
        base = config if config is not None else self.default_config
        results: Dict[ExecutionStrategy, QueryResult] = {}
        for strategy in strategies:
            results[strategy] = self.execute(
                bound, config=base.with_strategy(strategy), deliver_results=deliver_results
            )
        return results

    def __repr__(self) -> str:
        return (
            f"Database(tables={self.catalog.table_names()}, udfs={self.udfs.names()}, "
            f"network={self.network.name!r})"
        )
