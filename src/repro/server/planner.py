"""Direct (non-enumerating) physical plan construction.

This planner builds the operator tree of a bound query by walking the chain of
an :class:`~repro.core.optimizer.decision.OptimizationDecision`'s plan (the
optimizer's, or a caller's pins):

1. each table node scans its table (or probes it through an index) and
   applies its single-table predicates, joining left-deep in chain order
   (hash join on equi-join predicates, nested loops otherwise),
2. each UDF node applies its client-site UDF with its own strategy, in
   chain order after the last join, pushing pushable predicates and
   projections to the client for the client-site join,
3. the remaining predicates, the final projection, DISTINCT, ORDER BY and
   LIMIT go on top.

It is the executable backend both for direct ``Database.execute`` calls and
for the optimizer: the plan built here realises the whole chain or raises
:class:`~repro.errors.PlanError` — it never quietly runs something the
decision did not say.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import PlanError, SchemaError
from repro.core.execution.adaptive import (
    MigrationPredicate,
    MigrationStage,
    PlanMigrationOperator,
)
from repro.core.execution.base import RemoteUdfOperator
from repro.core.execution.context import RemoteExecutionContext
from repro.core.execution.rewrite import build_operator, replace_udf_calls_with_columns
from repro.core.execution.access import IndexNestedLoopJoinOperator, IndexScanOperator
from repro.core.optimizer.decision import OptimizationDecision
from repro.core.optimizer.plans import AccessPath, CandidatePlan, TableOperation
from repro.core.strategies import ExecutionStrategy, StrategyConfig
from repro.relational.expressions import Expression, conjoin
from repro.relational.operators import (
    Distinct,
    Filter,
    HashJoin,
    Limit,
    NestedLoopJoin,
    Operator,
    ProjectExpressions,
    Sort,
    TableScan,
)
from repro.relational.predicates import (
    columns_covered,
    equi_join_sides,
    index_condition,
)
from repro.relational.schema import NeededColumns, column_key
from repro.sql.logical import BoundQuery, BoundTable, ClientUdfCall
from repro.storage.index import KeyInterval


@dataclass
class PlanBuildResult:
    """The physical plan plus what the executor needs: the config it was
    built for (and runs with) and its remote operators."""

    root: Operator
    config: StrategyConfig
    remote_operators: List[RemoteUdfOperator] = field(default_factory=list)

    def explain(self) -> str:
        return self.root.explain()


def find_remote_operators(root: Operator) -> List[RemoteUdfOperator]:
    """All remote UDF operators in the tree, in post-order.

    A :class:`~repro.core.execution.adaptive.PlanMigrationOperator` counts as
    one remote operator here (it owns a whole UDF chain); the observer reads
    it through its per-stage views.
    """
    remote = (RemoteUdfOperator, PlanMigrationOperator)
    return [operator for operator in root.walk() if isinstance(operator, remote)]


def _unrealisable(path: AccessPath, why: str) -> PlanError:
    return PlanError(f"cannot realise the priced {path.describe()}: {why}")


def build_plan(
    query: BoundQuery,
    context: RemoteExecutionContext,
    config: Optional[StrategyConfig] = None,
    server_functions: Optional[Dict[str, Callable[..., Any]]] = None,
    decision: Optional[OptimizationDecision] = None,
    defer_output_shaping: bool = False,
) -> PlanBuildResult:
    """Build the physical plan for ``query``.

    ``decision`` is the plan to realise, whole (the module docstring says
    how); without one the plan is :meth:`OptimizationDecision.pinned`'s:
    FROM order, order of appearance, ``config.strategy`` and sequential
    scans.  Realisation is strict: a chain that does not place every table
    and UDF call of the query, or an access path that cannot be built (index
    dropped since planning or incomplete, a served predicate gone from the
    query or not indexable on the index's column, range over a hash index,
    probe column not in the outer side) raises :class:`PlanError`, because
    running anything else would execute a plan nobody priced.  ``config``
    supplies the tunables and defaults to the decision's ``strategy_config``.

    ``defer_output_shaping`` stops the plan after the final projection,
    leaving :func:`shape_output` to the caller.  Scatter-gather uses this
    for per-shard plans: a shard-local LIMIT would drop globally surviving
    rows, and shard-local DISTINCT/ORDER BY only hold per stream — the
    coordinator applies them once over the merged result.
    """
    if decision is None:
        decision = OptimizationDecision.pinned(
            query, config if config is not None else StrategyConfig()
        )
    if config is None:
        config = decision.strategy_config
    root = _PlanBuilder(query, context, config, server_functions or {}, decision).build()
    if not defer_output_shaping:
        root = shape_output(root, query)
    return PlanBuildResult(root, config, find_remote_operators(root))


class _PlanBuilder:
    """Stateful helper carrying the predicate bookkeeping while building."""

    def __init__(
        self,
        query: BoundQuery,
        context: RemoteExecutionContext,
        config: StrategyConfig,
        server_functions: Dict[str, Callable[..., Any]],
        decision: OptimizationDecision,
    ) -> None:
        self.query = query
        self.context = context
        self.config = config
        self.server_functions = server_functions
        self.decision = decision
        self.applied_predicates: Set[int] = set()
        self.result_column_mapping: Dict[str, str] = {}
        #: ids of the query's tables and UDF calls a node has been matched to.
        self.placed: Set[int] = set()

    # -- top level ----------------------------------------------------------------------

    def build(self) -> Operator:
        nodes = self.decision.plan.nodes()
        if len(nodes) != len(self.query.tables) + len(self.query.client_udf_calls):
            raise PlanError("the decision does not place every table and client-site UDF of the query")
        plan: Optional[Operator] = None
        udfs: List[Tuple[ClientUdfCall, ExecutionStrategy]] = []
        for node in nodes:
            if isinstance(node.operation, TableOperation):
                plan = self._apply_table(plan, node)
            else:
                # The hoist: a UDF node applies after the last join, in chain
                # order, wherever the chain puts it (242 of the 662 decisions
                # of tests/decision_digest.py price one below a join).  ROADMAP
                # item 7 deletes this rule: the node then applies right here.
                udfs.append((self._own(self.query.client_udf_calls, node.operation.name), node.strategy))
        plan = self._apply_udf_free_residuals(plan)
        plan = self._apply_client_udfs(plan, udfs)
        plan = self._apply_remaining_predicates(plan)
        return self._apply_output(plan)

    def _own(self, candidates: Sequence[Any], name: str) -> Any:
        """The first of the query's ``candidates`` (tables or UDF calls) not yet
        placed that ``name`` (an alias or a UDF name) names, in any case."""
        for candidate in candidates:
            own = candidate.alias if isinstance(candidate, BoundTable) else candidate.name
            if own.lower() == name.lower() and id(candidate) not in self.placed:
                self.placed.add(id(candidate))
                return candidate
        raise PlanError(f"the decision places {name}, which the query does not have")

    # -- scans and joins ----------------------------------------------------------------

    def _apply_table(self, plan: Optional[Operator], node: CandidatePlan) -> Operator:
        """The table ``node`` applies: the leaf of the join tree, or joined to ``plan``."""
        bound, path = self._own(self.query.tables, node.operation.alias), node.path
        if plan is None:
            return self._scan_leaf(bound, path)
        if path is not None and path.kind == "index_join":
            return self._index_join(plan, bound, path)
        return self._join(plan, self._scan_leaf(bound, path))

    def _scan_leaf(self, bound: BoundTable, path: Optional[AccessPath]) -> Operator:
        """A base-table leaf with its single-table predicates applied.

        With an ``index_scan`` access path the leaf fetches through the
        index; every single-table filter still goes on top — the ones the
        index serves become (cheap) re-checks over the already-matching
        rows, kept for correctness against index over-approximation and
        built with ``observe_selectivity=False`` so their residual pass-through
        rate is not recorded as the predicates' selectivity.
        """
        served: Tuple[str, ...] = ()
        if path is None:
            plan: Operator = TableScan(bound.table, alias=bound.alias)
        elif path.kind == "index_scan":
            plan = self._index_scan_leaf(bound, path)
            served = path.predicate_keys
        else:
            raise _unrealisable(path, "the table opens the join order: no outer side probes it")
        for predicate in self.query.single_table_predicates(bound.alias):
            plan = Filter(
                plan,
                predicate.expression,
                self.server_functions,
                observe_selectivity=str(predicate.expression) not in served,
            )
            self.applied_predicates.add(id(predicate))
        return plan

    @staticmethod
    def _index_handle(bound: BoundTable, path: AccessPath) -> Any:
        """The live, complete index ``path`` was priced with."""
        handle = bound.table.indexes().get(path.index_name)
        if handle is None or handle.incomplete:
            raise _unrealisable(path, "the index is gone or incomplete")
        return handle

    def _index_scan_leaf(self, bound: BoundTable, path: AccessPath) -> Operator:
        """The index-scan leaf the access path asks for.

        Every conjunct the path was priced as serving must still be in the
        query and indexable on the path's column; together they fold to the
        one interval the scan looks up.
        """
        handle = self._index_handle(bound, path)
        if not path.predicate_keys:
            raise _unrealisable(path, "it names no predicate to serve")
        in_query = {
            str(predicate.expression): predicate.expression
            for predicate in self.query.single_table_predicates(bound.alias)
        }
        conditions = []
        for key in path.predicate_keys:
            if key not in in_query:
                raise _unrealisable(path, f"{bound.alias} has no such predicate in this query")
            condition = index_condition(in_query[key])
            if condition is None:
                raise _unrealisable(path, "the predicate is not an indexable comparison")
            if column_key(condition.column) != handle.definition.column.lower():
                raise _unrealisable(path, f"{key} is not on the indexed column")
            if not condition.is_equality and not handle.supports_range:
                raise _unrealisable(path, "the index serves equality only, not a range")
            conditions.append(condition)
        interval = KeyInterval.fold((c.operator, c.value) for c in conditions)
        return IndexScanOperator(
            bound.table, handle, interval, conditions[0].column, self.context, alias=bound.alias
        )

    def _index_join(self, plan: Operator, bound: BoundTable, path: AccessPath) -> Operator:
        """Join ``bound`` as the inner of an index nested-loop join.

        The inner table's single-table predicates cannot go below the probe,
        so they become residual filters above the join — built with
        ``observe_selectivity=False`` because they then see join-reduced
        input, not the base table the recorded selectivity would describe.
        """
        handle = self._index_handle(bound, path)
        outer_columns = set(plan.output_schema().qualified_names())
        if path.join_column is None or not columns_covered(
            frozenset({path.join_column}), outer_columns
        ):
            # An index nested-loop join is only valid in the join order it
            # was priced for: its probe column must come from the outer side.
            raise _unrealisable(path, "the probe column is not in the outer side")
        try:
            joined: Operator = IndexNestedLoopJoinOperator(
                plan, bound.table, handle, path.join_column, self.context, alias=bound.alias
            )
        except SchemaError as exc:  # e.g. an ambiguous probe column
            raise _unrealisable(path, str(exc)) from exc

        # The probe serves the equi-join predicate it was priced for, found
        # by its key as an index scan finds its conjuncts — never by bare
        # column names, which ``C.K = B.K`` shares with ``A.K = B.K``.
        served = [
            id(predicate)
            for predicate in self.query.join_predicates()
            if str(predicate.expression) in path.predicate_keys
        ]
        if not served:
            raise _unrealisable(path, f"{bound.alias} has no such join predicate in this query")
        self.applied_predicates.update(served)
        available = set(joined.output_schema().qualified_names())
        for predicate in self._covered(self.query.join_predicates(), available):
            joined = Filter(joined, predicate.expression, self.server_functions)
        for predicate in self._take(self.query.single_table_predicates(bound.alias)):
            joined = Filter(
                joined, predicate.expression, self.server_functions, observe_selectivity=False
            )
        return joined

    def _join(self, left: Operator, right: Operator) -> Operator:
        left_columns = set(left.output_schema().qualified_names())
        right_columns = set(right.output_schema().qualified_names())
        available = left_columns | right_columns

        equi_pairs: List[Tuple[str, str]] = []
        residual: List[Expression] = []
        for predicate in self._covered(self.query.join_predicates(), available):
            pair = equi_join_sides(predicate.expression, left_columns, right_columns)
            if pair is not None:
                equi_pairs.append(pair)
            else:
                residual.append(predicate.expression)

        if equi_pairs:
            joined: Operator = HashJoin(
                left,
                right,
                left_keys=[pair[0] for pair in equi_pairs],
                right_keys=[pair[1] for pair in equi_pairs],
            )
        else:
            joined = NestedLoopJoin(left, right, predicate=conjoin(residual), functions=self.server_functions)
            residual = []
        for expression in residual:
            joined = Filter(joined, expression, self.server_functions)
        return joined

    def _apply_udf_free_residuals(self, plan: Operator) -> Operator:
        """Any UDF-free predicate not yet applied goes in as a server filter."""
        available = set(plan.output_schema().qualified_names())
        udf_free = [predicate for predicate in self.query.predicates if not predicate.references_udf]
        for predicate in self._covered(udf_free, available):
            plan = Filter(plan, predicate.expression, self.server_functions)
        return plan

    def _take(
        self, predicates: Sequence[Any], wanted: Callable[[Any], bool] = lambda predicate: True
    ) -> List[Any]:
        """Those of ``predicates`` not applied yet that ``wanted`` accepts, now applied."""
        taken = [p for p in predicates if id(p) not in self.applied_predicates and wanted(p)]
        self.applied_predicates.update(map(id, taken))
        return taken

    def _covered(self, predicates: Sequence[Any], available: Set[str]) -> List[Any]:
        """Those of ``predicates`` not applied yet that read only ``available`` columns, now applied."""
        return self._take(predicates, lambda predicate: columns_covered(predicate.columns, available))

    def _evaluable(self, predicate: Any) -> bool:
        """Whether ``predicate`` reads client-site UDF results, all of applied UDFs."""
        return predicate.references_udf and {
            name.lower() for name in predicate.udf_names
        }.issubset(self.result_column_mapping)

    # -- client-site UDFs ------------------------------------------------------------------

    def _apply_client_udfs(
        self, plan: Operator, udfs: List[Tuple[ClientUdfCall, ExecutionStrategy]]
    ) -> Operator:
        """Each UDF call with its node's strategy, in chain order."""
        if udfs and self.config.reoptimizer is not None:
            # Mid-query re-optimization owns the whole chain: one migration
            # operator applies every client-site UDF, so the application
            # order itself can change at segment boundaries.
            return self._apply_migration_chain(plan, udfs)

        calls = [call for call, _ in udfs]
        for index, (call, strategy) in enumerate(udfs):
            plan = self._apply_one_udf(plan, call, strategy, calls[index + 1 :])
        return plan

    def _apply_migration_chain(
        self, plan: Operator, udfs: List[Tuple[ClientUdfCall, ExecutionStrategy]]
    ) -> Operator:
        calls = [call for call, _ in udfs]
        for call in calls:
            self.result_column_mapping[call.udf.name.lower()] = call.result_column_name
        stages = [
            MigrationStage(
                udf=call.udf,
                argument_columns=tuple(call.argument_columns),
                result_column_name=call.result_column_name,
                strategy=strategy,
            )
            for call, strategy in udfs
        ]
        predicates = [
            MigrationPredicate(
                expression=self._rewritten(predicate.expression),
                udf_names=frozenset(name.lower() for name in predicate.udf_names),
                declared_selectivity=max(predicate.selectivity, 1e-6),
            )
            for predicate in self._take(self.query.predicates, self._evaluable)
        ]
        return PlanMigrationOperator(
            plan,
            stages,
            self.context,
            config=self.config,
            predicates=predicates,
            output_columns=self._columns_needed_above(plan, calls),
            controller=self.config.reoptimizer,
        )

    def _apply_one_udf(
        self,
        plan: Operator,
        call: ClientUdfCall,
        strategy: ExecutionStrategy,
        remaining_calls: List[ClientUdfCall],
    ) -> Operator:
        self.result_column_mapping[call.udf.name.lower()] = call.result_column_name

        config = self.config.with_strategy(strategy)
        # The predicates that become evaluable once this UDF has run.
        pushable = conjoin(
            [self._rewritten(p.expression) for p in self._take(self.query.predicates, self._evaluable)]
        )
        output_columns = None
        if config.strategy is ExecutionStrategy.CLIENT_SITE_JOIN:
            # The arguments of a UDF the select list calls survive as well —
            # what the estimator prices (it reads the outputs as written) and
            # every pinned figure ships; the migrated chain drops them.
            output_columns = self._columns_needed_above(
                plan,
                [call],
                remaining_calls + [c for c in self.query.client_udf_calls if c.used_in_output],
            )

        return build_operator(
            child=plan,
            udf=call.udf,
            argument_columns=list(call.argument_columns),
            context=self.context,
            config=config,
            pushable_predicate=pushable,
            output_columns=output_columns,
            result_column_name=call.result_column_name,
        )

    def _columns_needed_above(
        self,
        plan: Operator,
        calls: List[ClientUdfCall],
        argument_calls: Sequence[ClientUdfCall] = (),
    ) -> Optional[List[str]]:
        """Columns of ``plan`` extended by ``calls``' results still read above them.

        The pushable projection of whatever applies ``calls`` (one
        client-site join, or the migrated chain, which pushes it *into* its
        stages): what the outputs and the not-yet-applied predicates read
        once every applied UDF call is a result column, plus the argument
        columns of ``argument_calls``.  ``None`` (keep everything) when that
        names no column of the extended schema.
        """
        needed = NeededColumns(
            column for call in argument_calls for column in call.argument_columns
        )
        for output in self.query.outputs:
            needed.update(self._rewritten(output.expression).columns())
        for predicate in self.query.predicates:
            if id(predicate) not in self.applied_predicates:
                needed.update(self._rewritten(predicate.expression).columns())
        extended = plan.output_schema().qualified_names() + [
            call.result_column_name for call in calls
        ]
        return needed.keep(extended) or None

    def _rewritten(self, expression: Expression) -> Expression:
        """``expression`` with every applied client-site UDF call as its result column."""
        return replace_udf_calls_with_columns(expression, self.result_column_mapping)

    def _apply_remaining_predicates(self, plan: Operator) -> Operator:
        for predicate in self._take(self.query.predicates):
            plan = Filter(plan, self._rewritten(predicate.expression), self.server_functions)
        return plan

    # -- output ----------------------------------------------------------------------------

    def _apply_output(self, plan: Operator) -> Operator:
        outputs = []
        for output in self.query.outputs:
            outputs.append((output.name, self._rewritten(output.expression), output.dtype))
        return ProjectExpressions(plan, outputs, functions=self.server_functions)


def shape_output(plan: Operator, query: BoundQuery) -> Operator:
    """``query``'s DISTINCT / ORDER BY / LIMIT over ``plan``, its projected rows.

    The last step of every plan: :func:`build_plan` applies it itself, and
    scatter-gather applies it once at the coordinator over the merged
    streams of per-shard plans built with ``defer_output_shaping``.
    """
    if query.distinct:
        plan = Distinct(plan)
    if query.order_by:
        positions, descending = zip(*query.order_by)
        plan = Sort(plan, positions, descending=descending)
    if query.limit is not None:
        plan = Limit(plan, query.limit, query.offset)
    return plan
