"""Direct (non-enumerating) physical plan construction.

This planner builds a straightforward plan for a bound query:

1. scan each table and apply its single-table predicates,
2. join the tables left-deep in FROM order (hash join on equi-join
   predicates, nested loops otherwise),
3. apply each client-site UDF with the strategy named by the
   :class:`~repro.core.strategies.StrategyConfig`, pushing pushable
   predicates and projections to the client for the client-site join,
4. apply the remaining predicates, the final projection, DISTINCT,
   ORDER BY and LIMIT.

It is the executable backend both for direct ``Database.execute`` calls and
for the optimizer: an :class:`~repro.core.optimizer.decision.OptimizationDecision`
(the optimizer's, or a caller's pins) fixes the join order, the UDF order,
the per-UDF strategies and the access paths, and the plan built here realises
all of it or raises :class:`~repro.errors.PlanError` — it never quietly runs
something the decision did not say.
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
from repro.core.optimizer.plans import AccessPath
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
    equi_join_columns,
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

    ``decision`` is the plan to realise, whole: its ``table_order`` is the
    left-deep join order over table aliases, its ``udf_order`` the order the
    client-site UDFs are applied in, its ``udf_strategies`` the execution
    strategy per UDF name, and its ``access_paths`` (per table alias) swap
    sequential scans for index access — an ``index_scan`` path fetches a
    base table through a secondary index, an ``index_join`` path joins the
    table as the inner of an index nested-loop join.  Aliases and names a
    decision does not mention keep FROM order, order of appearance,
    ``config.strategy`` and a sequential scan, which is also the whole plan
    without a decision.  Realisation is strict: an access path that cannot
    be built (index dropped since planning or incomplete, a served predicate
    gone from the query or not indexable on the index's column, range over a
    hash index, probe column not in the outer side)
    raises :class:`PlanError` naming the index, because running a seq scan
    instead would execute a plan nobody priced.  ``config`` supplies the
    tunables and defaults to the decision's ``strategy_config``.

    ``defer_output_shaping`` stops the plan after the final projection,
    leaving :func:`shape_output` to the caller.  Scatter-gather uses this
    for per-shard plans: a shard-local LIMIT would drop globally surviving
    rows, and shard-local DISTINCT/ORDER BY only hold per stream — the
    coordinator applies them once over the merged result.
    """
    if decision is None:
        decision = OptimizationDecision.pinned(config if config is not None else StrategyConfig())
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
        self.applied_predicates: Set[int] = set()
        self.result_column_mapping: Dict[str, str] = {}
        # The decision, keyed the way the builder looks things up: aliases
        # and UDF names case-folded, orders as position per name.
        self.table_order = {a.lower(): i for i, a in enumerate(decision.table_order)}
        self.udf_order = {n.lower(): i for i, n in enumerate(decision.udf_order)}
        self.udf_strategies = {n.lower(): s for n, s in decision.udf_strategies.items()}
        self.access_paths = {a.lower(): p for a, p in decision.access_paths.items()}

    # -- top level ----------------------------------------------------------------------

    def build(self) -> Operator:
        plan = self._build_join_tree()
        plan = self._apply_udf_free_residuals(plan)
        plan = self._apply_client_udfs(plan)
        plan = self._apply_remaining_predicates(plan)
        return self._apply_output(plan)

    # -- scans and joins ----------------------------------------------------------------

    def _build_join_tree(self) -> Operator:
        order = self.table_order
        tables = sorted(
            self.query.tables, key=lambda bound: order.get(bound.alias.lower(), len(order))
        )
        plan = self._scan_leaf(tables[0])
        for bound in tables[1:]:
            path = self.access_paths.get(bound.alias.lower())
            if path is not None and path.kind == "index_join":
                plan = self._index_join(plan, bound, path)
            else:
                plan = self._join(plan, self._scan_leaf(bound))
        return plan

    def _scan_leaf(self, bound: BoundTable) -> Operator:
        """A base-table leaf with its single-table predicates applied.

        With an ``index_scan`` access path the leaf fetches through the
        index; every single-table filter still goes on top — the ones the
        index serves become (cheap) re-checks over the already-matching
        rows, kept for correctness against index over-approximation and
        built with ``observe_selectivity=False`` so their residual pass-through
        rate is not recorded as the predicates' selectivity.
        """
        path = self.access_paths.get(bound.alias.lower())
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

        served = {column_key(path.join_column), column_key(path.column)}
        for predicate in self.query.join_predicates():
            if id(predicate) in self.applied_predicates:
                continue
            pair = equi_join_columns(predicate.expression)
            if pair is not None and {column_key(name) for name in pair} == served:
                self.applied_predicates.add(id(predicate))
                break
        available = set(joined.output_schema().qualified_names())
        for predicate in self.query.join_predicates():
            if id(predicate) in self.applied_predicates:
                continue
            if not columns_covered(predicate.columns, available):
                continue
            joined = Filter(joined, predicate.expression, self.server_functions)
            self.applied_predicates.add(id(predicate))
        for predicate in self.query.single_table_predicates(bound.alias):
            if id(predicate) in self.applied_predicates:
                continue
            joined = Filter(
                joined, predicate.expression, self.server_functions, observe_selectivity=False
            )
            self.applied_predicates.add(id(predicate))
        return joined

    def _join(self, left: Operator, right: Operator) -> Operator:
        left_columns = set(left.output_schema().qualified_names())
        right_columns = set(right.output_schema().qualified_names())
        available = left_columns | right_columns

        equi_pairs: List[Tuple[str, str]] = []
        residual: List[Expression] = []
        for predicate in self.query.join_predicates():
            if id(predicate) in self.applied_predicates:
                continue
            if not columns_covered(predicate.columns, available):
                continue
            pair = self._equi_join_pair(predicate.expression, left_columns, right_columns)
            if pair is not None:
                equi_pairs.append(pair)
            else:
                residual.append(predicate.expression)
            self.applied_predicates.add(id(predicate))

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

    @staticmethod
    def _equi_join_pair(
        expression: Expression, left_columns: Set[str], right_columns: Set[str]
    ) -> Optional[Tuple[str, str]]:
        """``(left_key, right_key)`` when the expression is a two-sided equi-join."""
        pair = equi_join_columns(expression)
        for left, right in (pair, pair[::-1]) if pair is not None else ():
            if columns_covered(frozenset({left}), left_columns) and columns_covered(
                frozenset({right}), right_columns
            ):
                return (left, right)
        return None

    def _apply_udf_free_residuals(self, plan: Operator) -> Operator:
        """Any UDF-free predicate not yet applied goes in as a server filter."""
        available = set(plan.output_schema().qualified_names())
        for predicate in self.query.predicates:
            if id(predicate) in self.applied_predicates or predicate.references_udf:
                continue
            if columns_covered(predicate.columns, available):
                plan = Filter(plan, predicate.expression, self.server_functions)
                self.applied_predicates.add(id(predicate))
        return plan

    # -- client-site UDFs ------------------------------------------------------------------

    def _apply_client_udfs(self, plan: Operator) -> Operator:
        order = self.udf_order
        calls = sorted(
            self.query.client_udf_calls,
            key=lambda call: order.get(call.udf.name.lower(), len(order)),
        )

        if calls and self.config.reoptimizer is not None:
            # Mid-query re-optimization owns the whole chain: one migration
            # operator applies every client-site UDF, so the application
            # order itself can change at segment boundaries.
            return self._apply_migration_chain(plan, calls)

        for index, call in enumerate(calls):
            remaining_calls = calls[index + 1 :]
            plan = self._apply_one_udf(plan, call, remaining_calls)
        return plan

    def _apply_migration_chain(self, plan: Operator, calls: List[ClientUdfCall]) -> Operator:
        for call in calls:
            self.result_column_mapping[call.udf.name.lower()] = call.result_column_name
        stages: List[MigrationStage] = []
        for call in calls:
            stages.append(
                MigrationStage(
                    udf=call.udf,
                    argument_columns=tuple(call.argument_columns),
                    result_column_name=call.result_column_name,
                    strategy=self._strategy_for(call),
                )
            )
        chain_names = set(self.result_column_mapping.keys())
        predicates: List[MigrationPredicate] = []
        for predicate in self.query.predicates:
            if id(predicate) in self.applied_predicates or not predicate.references_udf:
                continue
            referenced = {name.lower() for name in predicate.udf_names}
            if referenced <= chain_names:
                predicates.append(
                    MigrationPredicate(
                        expression=self._rewritten(predicate.expression),
                        udf_names=frozenset(referenced),
                        declared_selectivity=max(predicate.selectivity, 1e-6),
                    )
                )
                self.applied_predicates.add(id(predicate))
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
        self, plan: Operator, call: ClientUdfCall, remaining_calls: List[ClientUdfCall]
    ) -> Operator:
        self.result_column_mapping[call.udf.name.lower()] = call.result_column_name

        config = self.config.with_strategy(self._strategy_for(call))
        pushable = self._pushable_predicate_for(call)
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

    def _strategy_for(self, call: ClientUdfCall) -> ExecutionStrategy:
        """The decision's strategy for this UDF; ``config.strategy`` if it names none."""
        return self.udf_strategies.get(call.udf.name.lower(), self.config.strategy)

    def _pushable_predicate_for(self, call: ClientUdfCall) -> Optional[Expression]:
        """Conjoin the predicates that become evaluable once this UDF has run."""
        applied_udfs = set(self.result_column_mapping.keys())
        usable: List[Expression] = []
        for predicate in self.query.predicates:
            if id(predicate) in self.applied_predicates or not predicate.references_udf:
                continue
            referenced = {name.lower() for name in predicate.udf_names}
            if referenced <= applied_udfs:
                usable.append(self._rewritten(predicate.expression))
                self.applied_predicates.add(id(predicate))
        return conjoin(usable)

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
        for predicate in self.query.predicates:
            if id(predicate) in self.applied_predicates:
                continue
            plan = Filter(plan, self._rewritten(predicate.expression), self.server_functions)
            self.applied_predicates.add(id(predicate))
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
