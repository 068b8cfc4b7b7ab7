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
for the optimizer (which decides the join/UDF order and the per-UDF strategy
and then emits the same operator classes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import PlanError
from repro.core.execution.adaptive import (
    MigrationPredicate,
    MigrationStage,
    PlanMigrationOperator,
)
from repro.core.execution.base import RemoteUdfOperator
from repro.core.execution.context import RemoteExecutionContext
from repro.core.execution.rewrite import build_operator, replace_udf_calls_with_columns
from repro.core.execution.access import IndexNestedLoopJoinOperator, IndexScanOperator
from repro.core.optimizer.plans import AccessPath
from repro.core.strategies import ExecutionStrategy, StrategyConfig
from repro.relational.expressions import ColumnRef, Expression, conjoin
from repro.relational.operators import (
    Distinct,
    Filter,
    HashJoin,
    Limit,
    NestedLoopJoin,
    Operator,
    Project,
    ProjectExpressions,
    Sort,
    TableScan,
)
from repro.relational.predicates import (
    PredicateInfo,
    columns_covered,
    equi_join_columns,
    index_condition,
)
from repro.sql.logical import BoundQuery, ClientUdfCall


@dataclass
class PlanBuildResult:
    """The physical plan plus bookkeeping the executor needs."""

    root: Operator
    remote_operators: List[RemoteUdfOperator] = field(default_factory=list)
    strategy: Optional[ExecutionStrategy] = None

    @property
    def output_schema(self):
        return self.root.output_schema()

    def explain(self) -> str:
        return self.root.explain()


def find_remote_operators(root: Operator) -> List[RemoteUdfOperator]:
    """All remote UDF operators in the tree, in depth-first order.

    A :class:`~repro.core.execution.adaptive.PlanMigrationOperator` counts as
    one remote operator here (it owns a whole UDF chain); the observer
    expands it into per-stage views.
    """
    found: List[RemoteUdfOperator] = []

    def visit(operator: Operator) -> None:
        for child in operator.children:
            visit(child)
        if isinstance(operator, (RemoteUdfOperator, PlanMigrationOperator)):
            found.append(operator)

    visit(root)
    return found


def build_plan(
    query: BoundQuery,
    context: RemoteExecutionContext,
    config: Optional[StrategyConfig] = None,
    server_functions: Optional[Dict[str, Callable[..., Any]]] = None,
    udf_order: Optional[Sequence[str]] = None,
    udf_strategies: Optional[Dict[str, ExecutionStrategy]] = None,
    table_order: Optional[Sequence[str]] = None,
    defer_output_shaping: bool = False,
    access_paths: Optional[Dict[str, AccessPath]] = None,
) -> PlanBuildResult:
    """Build the physical plan for ``query``.

    ``udf_order`` optionally fixes the order in which client-site UDFs are
    applied (used by the optimizer and by plan-space benchmarks); by default
    they are applied in order of appearance.  ``udf_strategies`` overrides the
    execution strategy per UDF name, and ``table_order`` fixes the join order
    (a left-deep order over table aliases); both are what the optimizer's
    decisions feed back into plan construction.

    ``access_paths`` (per table alias, from the optimizer's decision) swaps
    the default sequential scans for index access: an ``index_scan`` path
    fetches a base table through a secondary index instead of scanning it,
    an ``index_join`` path joins the table as the inner of an index
    nested-loop join.  Paths are best-effort — when the named index no
    longer exists (dropped since planning, or the table is in-memory) the
    plan silently falls back to the sequential scan / regular join.

    ``defer_output_shaping`` stops the plan after the final projection,
    leaving DISTINCT / ORDER BY / LIMIT to the caller.  Scatter-gather uses
    this for per-shard plans: a shard-local LIMIT would drop globally
    surviving rows, and shard-local DISTINCT/ORDER BY only hold per stream —
    the coordinator applies them once over the merged result.
    """
    config = config if config is not None else StrategyConfig()
    server_functions = server_functions or {}
    builder = _PlanBuilder(query, context, config, server_functions)
    builder.udf_strategies = {
        name.lower(): strategy for name, strategy in (udf_strategies or {}).items()
    }
    builder.table_order = [name.lower() for name in table_order] if table_order else None
    builder.defer_output_shaping = defer_output_shaping
    builder.access_paths = {
        alias.lower(): path for alias, path in (access_paths or {}).items()
    }
    root = builder.build(udf_order=udf_order)
    return PlanBuildResult(
        root=root,
        remote_operators=find_remote_operators(root),
        strategy=config.strategy,
    )


class _PlanBuilder:
    """Stateful helper carrying the predicate bookkeeping while building."""

    def __init__(
        self,
        query: BoundQuery,
        context: RemoteExecutionContext,
        config: StrategyConfig,
        server_functions: Dict[str, Callable[..., Any]],
    ) -> None:
        self.query = query
        self.context = context
        self.config = config
        self.server_functions = server_functions
        self.applied_predicates: Set[int] = set()
        self.result_column_mapping: Dict[str, str] = {}
        self.udf_strategies: Dict[str, ExecutionStrategy] = {}
        self.table_order: Optional[List[str]] = None
        self.defer_output_shaping = False
        self.access_paths: Dict[str, AccessPath] = {}

    # -- top level ----------------------------------------------------------------------

    def build(self, udf_order: Optional[Sequence[str]] = None) -> Operator:
        plan = self._build_join_tree()
        plan = self._apply_udf_free_residuals(plan)
        plan = self._apply_client_udfs(plan, udf_order)
        plan = self._apply_remaining_predicates(plan)
        plan = self._apply_output(plan)
        return plan

    # -- scans and joins ----------------------------------------------------------------

    def _build_join_tree(self) -> Operator:
        tables = list(self.query.tables)
        if self.table_order:
            order = {alias: index for index, alias in enumerate(self.table_order)}
            tables.sort(key=lambda bound: order.get(bound.alias.lower(), len(order)))
        plan = self._scan_leaf(tables[0])
        for bound in tables[1:]:
            joined = self._index_join(plan, bound)
            plan = joined if joined is not None else self._join(plan, self._scan_leaf(bound))
        return plan

    def _scan_leaf(self, bound) -> Operator:
        """A base-table leaf with its single-table predicates applied.

        With an ``index_scan`` access path the leaf fetches through the
        index; every single-table filter still goes on top — the one the
        index serves becomes a (cheap) re-check over the already-matching
        rows, kept for correctness against index over-approximation and
        marked ``observe_selectivity = False`` so its residual pass-through
        rate is not recorded as the predicate's selectivity.
        """
        served_key: Optional[str] = None
        scan: Optional[Operator] = self._index_scan_leaf(bound)
        if scan is not None:
            served_key = self.access_paths[bound.alias.lower()].predicate_key
        else:
            scan = TableScan(bound.table, alias=bound.alias)
        plan: Operator = scan
        for predicate in self.query.single_table_predicates(bound.alias):
            filter_operator = Filter(plan, predicate.expression, self.server_functions)
            if served_key is not None and str(predicate.expression) == served_key:
                filter_operator.observe_selectivity = False
            plan = filter_operator
            self.applied_predicates.add(id(predicate))
        return plan

    def _index_scan_leaf(self, bound) -> Optional[Operator]:
        """The index-scan leaf the access path asks for, or None to fall back."""
        path = self.access_paths.get(bound.alias.lower())
        if path is None or path.kind != "index_scan" or path.predicate_key is None:
            return None
        handle = bound.table.indexes().get(path.index_name)
        if handle is None or getattr(handle, "incomplete", False):
            return None
        for predicate in self.query.single_table_predicates(bound.alias):
            if str(predicate.expression) != path.predicate_key:
                continue
            condition = index_condition(predicate.expression)
            if condition is None:
                return None
            if not condition.is_equality and not getattr(handle, "supports_range", False):
                return None
            return IndexScanOperator(bound.table, handle, condition, alias=bound.alias)
        return None

    def _index_join(self, plan: Operator, bound) -> Optional[Operator]:
        """Join ``bound`` as the inner of an index nested-loop join, or None.

        The inner table's single-table predicates cannot go below the probe,
        so they become residual filters above the join — marked
        ``observe_selectivity = False`` because they then see join-reduced
        input, not the base table the recorded selectivity would describe.
        """
        path = self.access_paths.get(bound.alias.lower())
        if path is None or path.kind != "index_join" or path.join_column is None:
            return None
        handle = bound.table.indexes().get(path.index_name)
        if handle is None or getattr(handle, "incomplete", False):
            return None
        outer_schema = plan.output_schema()
        if not columns_covered(frozenset({path.join_column}), set(outer_schema.qualified_names())):
            return None
        try:
            joined: Operator = IndexNestedLoopJoinOperator(
                plan, bound.table, handle, path.join_column, alias=bound.alias
            )
        except Exception:  # noqa: BLE001 - ambiguous probe column etc.: fall back
            return None

        def bare(name: str) -> str:
            return name.partition(".")[2].lower() if "." in name else name.lower()

        served = {bare(path.join_column), bare(path.column)}
        for predicate in self.query.join_predicates():
            if id(predicate) in self.applied_predicates:
                continue
            pair = equi_join_columns(predicate.expression)
            if pair is not None and {bare(pair[0]), bare(pair[1])} == served:
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
            residual = Filter(joined, predicate.expression, self.server_functions)
            residual.observe_selectivity = False
            joined = residual
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
        from repro.relational.expressions import Comparison

        if not isinstance(expression, Comparison) or expression.operator != "=":
            return None
        left, right = expression.left, expression.right
        if not isinstance(left, ColumnRef) or not isinstance(right, ColumnRef):
            return None

        left_side = "left" if columns_covered(frozenset({left.name}), left_columns) else (
            "right" if columns_covered(frozenset({left.name}), right_columns) else None
        )
        right_side = "left" if columns_covered(frozenset({right.name}), left_columns) else (
            "right" if columns_covered(frozenset({right.name}), right_columns) else None
        )
        if left_side == "left" and right_side == "right":
            return (left.name, right.name)
        if left_side == "right" and right_side == "left":
            return (right.name, left.name)
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

    def _apply_client_udfs(self, plan: Operator, udf_order: Optional[Sequence[str]]) -> Operator:
        calls = list(self.query.client_udf_calls)
        if udf_order is not None:
            order = {name.lower(): index for index, name in enumerate(udf_order)}
            calls.sort(key=lambda call: order.get(call.udf.name.lower(), len(order)))

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
            override = self.udf_strategies.get(call.udf.name.lower())
            stages.append(
                MigrationStage(
                    udf=call.udf,
                    argument_columns=tuple(call.argument_columns),
                    result_column_name=call.result_column_name,
                    strategy=override if override is not None else self.config.strategy,
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
                        expression=replace_udf_calls_with_columns(
                            predicate.expression, self.result_column_mapping
                        ),
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
            output_columns=self._chain_output_columns(plan, calls),
            controller=self.config.reoptimizer,
        )

    def _chain_output_columns(
        self, plan: Operator, calls: List[ClientUdfCall]
    ) -> Optional[List[str]]:
        """Columns still needed above the whole migrated UDF chain.

        The migration operator pushes this projection *into* the chain: each
        stage keeps only what later stages and the final output read, so
        mid-chain client-site joins stop shipping columns nothing needs.
        Returns ``None`` (keep everything) when the needed set cannot be
        computed safely.
        """
        needed: Set[str] = set()
        for output in self.query.outputs:
            rewritten = replace_udf_calls_with_columns(
                output.expression, self.result_column_mapping
            )
            needed |= set(rewritten.columns())
        for predicate in self.query.predicates:
            if id(predicate) in self.applied_predicates:
                continue
            rewritten = replace_udf_calls_with_columns(
                predicate.expression, self.result_column_mapping
            )
            needed |= set(rewritten.columns())
        for expression, _ in self.query.order_by:
            rewritten = replace_udf_calls_with_columns(
                expression, self.result_column_mapping
            )
            needed |= set(rewritten.columns())
        if not needed:
            return None

        extended_names = list(plan.output_schema().qualified_names()) + [
            call.result_column_name for call in calls
        ]
        needed_bare = {name.partition(".")[2] if "." in name else name for name in needed}
        kept = [
            name
            for name in extended_names
            if name in needed
            or (name.partition(".")[2] if "." in name else name) in needed_bare
        ]
        if not kept:
            return None
        return kept

    def _apply_one_udf(
        self, plan: Operator, call: ClientUdfCall, remaining_calls: List[ClientUdfCall]
    ) -> Operator:
        self.result_column_mapping[call.udf.name.lower()] = call.result_column_name

        config = self.config
        override = self.udf_strategies.get(call.udf.name.lower())
        if override is not None:
            config = config.with_strategy(override)

        pushable = self._pushable_predicate_for(call)
        output_columns = None
        if config.strategy is ExecutionStrategy.CLIENT_SITE_JOIN:
            output_columns = self._needed_columns_after(plan, call, remaining_calls)

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

    def _pushable_predicate_for(self, call: ClientUdfCall) -> Optional[Expression]:
        """Conjoin the predicates that become evaluable once this UDF has run."""
        applied_udfs = set(self.result_column_mapping.keys())
        usable: List[Expression] = []
        for predicate in self.query.predicates:
            if id(predicate) in self.applied_predicates or not predicate.references_udf:
                continue
            referenced = {name.lower() for name in predicate.udf_names}
            if referenced <= applied_udfs:
                usable.append(
                    replace_udf_calls_with_columns(predicate.expression, self.result_column_mapping)
                )
                self.applied_predicates.add(id(predicate))
        return conjoin(usable)

    def _needed_columns_after(
        self, plan: Operator, call: ClientUdfCall, remaining_calls: List[ClientUdfCall]
    ) -> Optional[List[str]]:
        """Columns (of the extended schema) still needed downstream of this UDF.

        Used as the pushable projection of the client-site join.  Returns
        ``None`` (no projection) when the needed set cannot be computed
        safely, e.g. when an ORDER BY expression is not a plain column.
        """
        extended_names = set(plan.output_schema().qualified_names())
        extended_names.add(call.result_column_name)
        for applied in self.result_column_mapping.values():
            extended_names.add(applied)

        needed: Set[str] = set()
        for output in self.query.outputs:
            rewritten = replace_udf_calls_with_columns(output.expression, self.result_column_mapping)
            needed |= set(rewritten.columns())
            # Columns feeding not-yet-applied UDF calls inside outputs.
            for nested in output.expression.function_calls():
                needed |= set(nested.argument_columns())
        for predicate in self.query.predicates:
            if id(predicate) in self.applied_predicates:
                continue
            rewritten = replace_udf_calls_with_columns(predicate.expression, self.result_column_mapping)
            needed |= set(rewritten.columns())
        for later in remaining_calls:
            needed |= set(later.argument_columns)
        for expression, _ in self.query.order_by:
            needed |= set(expression.columns())

        # Keep only names that exist in the extended schema, resolving bare
        # names where necessary; preserve the extended schema's column order.
        schema_columns: List[str] = []
        extended_schema_names = list(plan.output_schema().qualified_names()) + [call.result_column_name]
        for name in extended_schema_names:
            bare = name.partition(".")[2] if "." in name else name
            if name in needed or bare in needed or any(
                candidate.partition(".")[2] == bare for candidate in needed if "." in candidate
            ):
                schema_columns.append(name)
        if not schema_columns:
            return None
        return schema_columns

    def _apply_remaining_predicates(self, plan: Operator) -> Operator:
        for predicate in self.query.predicates:
            if id(predicate) in self.applied_predicates:
                continue
            rewritten = replace_udf_calls_with_columns(predicate.expression, self.result_column_mapping)
            plan = Filter(plan, rewritten, self.server_functions)
            self.applied_predicates.add(id(predicate))
        return plan

    # -- output shaping --------------------------------------------------------------------

    def _apply_output(self, plan: Operator) -> Operator:
        outputs = []
        for output in self.query.outputs:
            rewritten = replace_udf_calls_with_columns(output.expression, self.result_column_mapping)
            outputs.append((output.name, rewritten, output.dtype))
        plan = ProjectExpressions(plan, outputs, functions=self.server_functions)

        if self.defer_output_shaping:
            return plan

        if self.query.distinct:
            plan = Distinct(plan)

        if self.query.order_by:
            sort_columns: List[str] = []
            for expression, descending in self.query.order_by:
                rewritten = replace_udf_calls_with_columns(expression, self.result_column_mapping)
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
            descending_flags = {flag for _, flag in self.query.order_by}
            plan = Sort(plan, sort_columns, descending=descending_flags == {True})

        if self.query.limit is not None:
            plan = Limit(plan, self.query.limit, self.query.offset)
        return plan
