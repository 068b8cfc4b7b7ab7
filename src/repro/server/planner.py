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

It works in two passes.  The *planning* pass builds no operator: it places
every predicate, derives each operator's schema, rewrites applied UDF calls
to their result columns and folds index intervals into a
:class:`PlanRecipe` — immutable steps, each one operator to build over the
operators of its input steps.  The *instantiation* pass builds fresh
operators from those steps over one execution's context, config and server
functions, and makes the checks that read live state (an index still there
and complete).  The decision keeps the recipes planned from it
(``OptimizationDecision.recipes``), so a decision the database serves from
its memo is planned once and afterwards only instantiated; operators,
controllers and every per-run state object still belong to one execution.

It is the executable backend both for direct ``Database.execute`` calls and
for the optimizer: the plan built here realises the whole chain or raises
:class:`~repro.errors.PlanError` — it never quietly runs something the
decision did not say.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

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
from repro.relational.schema import Column, NeededColumns, Schema, column_key
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


class _Run(NamedTuple):
    """What one execution's operators are built over."""

    context: RemoteExecutionContext
    config: StrategyConfig
    functions: Dict[str, Callable[..., Any]]


class PlanStep(NamedTuple):
    """One operator of a :class:`PlanRecipe`.

    ``build(run, *operators)`` makes a fresh operator over the operators
    instantiated from ``inputs``, reading only what it captured when it was
    planned and the run's context, config and server functions.  ``schema``
    is the schema that operator outputs.
    """

    build: Callable[..., Operator]
    inputs: Tuple["PlanStep", ...]
    schema: Schema

    def instantiate(self, run: _Run) -> Operator:
        return self.build(run, *[step.instantiate(run) for step in self.inputs])


@dataclass(frozen=True)
class PlanRecipe:
    """What the planning pass makes of ``query`` under one decision: the steps
    up to the final projection (``root``), ready to instantiate per execution."""

    query: BoundQuery
    root: PlanStep


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

    The operators are instantiated from the recipe ``decision`` keeps for
    ``query`` (:func:`plan_recipe`), so a second build from the same
    decision skips the planning pass.

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
    root = plan_recipe(query, config, decision).root.instantiate(
        _Run(context, config, server_functions or {})
    )
    if not defer_output_shaping:
        root = shape_output(root, query)
    return PlanBuildResult(root, config, find_remote_operators(root))


def plan_recipe(
    query: BoundQuery, config: StrategyConfig, decision: OptimizationDecision
) -> PlanRecipe:
    """The recipe of ``decision``'s plan for ``query``: the one ``decision``
    keeps, else planned now and kept.

    The only part of ``config`` a recipe depends on is whether mid-query
    re-optimization is armed (one migration operator then owns the UDF
    chain); everything else in it is read when a step is instantiated.
    """
    migrating = config.reoptimizer is not None
    recipe = decision.recipes.get(migrating)
    if recipe is None or recipe.query is not query:
        recipe = PlanRecipe(query, _Planner(query, decision, migrating).plan())
        decision.recipes[migrating] = recipe
    return recipe


def _filter(step: PlanStep, expression: Expression, observe: bool = True) -> PlanStep:
    """``step``'s rows that satisfy ``expression`` (see :class:`Filter` for ``observe``)."""
    return PlanStep(
        lambda run, child: Filter(child, expression, run.functions, observe_selectivity=observe),
        (step,),
        step.schema,
    )


def _live_index(table: Any, path: AccessPath) -> Any:
    """The live, complete index ``path`` was priced with."""
    handle = table.indexes().get(path.index_name)
    if handle is None or handle.incomplete:
        raise _unrealisable(path, "the index is gone or incomplete")
    return handle


def _applied(
    schema: Schema, calls: Sequence[ClientUdfCall], output_columns: Optional[Sequence[str]]
) -> Schema:
    """``schema`` extended by ``calls``' result columns, cut to ``output_columns`` if given."""
    for call in calls:
        schema = schema.append(Column(call.result_column_name, call.udf.result_dtype))
    return schema if output_columns is None else schema.project(output_columns)


class _Planner:
    """The planning pass: the predicate bookkeeping, building no operator."""

    def __init__(self, query: BoundQuery, decision: OptimizationDecision, migrating: bool) -> None:
        self.query = query
        self.decision = decision
        self.migrating = migrating
        self.applied_predicates: Set[int] = set()
        self.result_column_mapping: Dict[str, str] = {}
        #: ids of the query's tables and UDF calls a node has been matched to.
        self.placed: Set[int] = set()

    # -- top level ----------------------------------------------------------------------

    def plan(self) -> PlanStep:
        nodes = self.decision.plan.nodes()
        if len(nodes) != len(self.query.tables) + len(self.query.client_udf_calls):
            raise PlanError("the decision does not place every table and client-site UDF of the query")
        step: Optional[PlanStep] = None
        udfs: List[Tuple[ClientUdfCall, ExecutionStrategy]] = []
        for node in nodes:
            if isinstance(node.operation, TableOperation):
                step = self._apply_table(step, node)
            else:
                # The hoist: a UDF node applies after the last join, in chain
                # order, wherever the chain puts it (242 of the 662 decisions
                # of tests/decision_digest.py price one below a join).  ROADMAP
                # item 7 deletes this rule: the node then applies right here.
                udfs.append((self._own(self.query.client_udf_calls, node.operation.name), node.strategy))
        step = self._apply_udf_free_residuals(step)
        step = self._apply_client_udfs(step, udfs)
        step = self._apply_remaining_predicates(step)
        return self._apply_output(step)

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

    def _apply_table(self, step: Optional[PlanStep], node: CandidatePlan) -> PlanStep:
        """The table ``node`` applies: the leaf of the join tree, or joined to ``step``."""
        bound, path = self._own(self.query.tables, node.operation.alias), node.path
        if step is None:
            return self._scan_leaf(bound, path)
        if path is not None and path.kind == "index_join":
            return self._index_join(step, bound, path)
        return self._join(step, self._scan_leaf(bound, path))

    def _scan_leaf(self, bound: BoundTable, path: Optional[AccessPath]) -> PlanStep:
        """A base-table leaf with its single-table predicates applied.

        With an ``index_scan`` access path the leaf fetches through the
        index; every single-table filter still goes on top — the ones the
        index serves become (cheap) re-checks over the already-matching
        rows, kept for correctness against index over-approximation and
        built with ``observe_selectivity=False`` so their residual pass-through
        rate is not recorded as the predicates' selectivity.
        """
        served: Tuple[str, ...] = ()
        table, alias = bound.table, bound.alias
        if path is None:
            step = PlanStep(lambda run: TableScan(table, alias=alias), (), bound.schema)
        elif path.kind == "index_scan":
            step = self._index_scan_leaf(bound, path)
            served = path.predicate_keys
        else:
            raise _unrealisable(path, "the table opens the join order: no outer side probes it")
        for predicate in self.query.single_table_predicates(alias):
            step = _filter(step, predicate.expression, str(predicate.expression) not in served)
            self.applied_predicates.add(id(predicate))
        return step

    def _index_scan_leaf(self, bound: BoundTable, path: AccessPath) -> PlanStep:
        """The index-scan leaf the access path asks for.

        Every conjunct the path was priced as serving must still be in the
        query and indexable; together they fold to the one interval the scan
        looks up.  That the index is still there, complete, on the
        conjuncts' column and able to serve a range is checked against the
        live index each time the leaf is built.
        """
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
            conditions.append(condition)
        interval = KeyInterval.fold((c.operator, c.value) for c in conditions)
        checks = tuple(
            (key, column_key(c.column), c.is_equality) for key, c in zip(path.predicate_keys, conditions)
        )
        table, alias, column = bound.table, bound.alias, conditions[0].column

        def build(run: _Run) -> Operator:
            handle = _live_index(table, path)
            for key, key_column, is_equality in checks:
                if key_column != handle.definition.column.lower():
                    raise _unrealisable(path, f"{key} is not on the indexed column")
                if not is_equality and not handle.supports_range:
                    raise _unrealisable(path, "the index serves equality only, not a range")
            return IndexScanOperator(table, handle, interval, column, run.context, alias=alias)

        return PlanStep(build, (), bound.schema)

    def _index_join(self, step: PlanStep, bound: BoundTable, path: AccessPath) -> PlanStep:
        """Join ``bound`` as the inner of an index nested-loop join.

        The inner table's single-table predicates cannot go below the probe,
        so they become residual filters above the join — built with
        ``observe_selectivity=False`` because they then see join-reduced
        input, not the base table the recorded selectivity would describe.
        """
        outer_columns = set(step.schema.qualified_names())
        if path.join_column is None or not columns_covered(
            frozenset({path.join_column}), outer_columns
        ):
            # An index nested-loop join is only valid in the join order it
            # was priced for: its probe column must come from the outer side.
            raise _unrealisable(path, "the probe column is not in the outer side")
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
        table, alias, join_column = bound.table, bound.alias, path.join_column

        def build(run: _Run, outer: Operator) -> Operator:
            handle = _live_index(table, path)
            try:
                return IndexNestedLoopJoinOperator(
                    outer, table, handle, join_column, run.context, alias=alias
                )
            except SchemaError as exc:  # e.g. an ambiguous probe column
                raise _unrealisable(path, str(exc)) from exc

        joined = PlanStep(build, (step,), step.schema.concat(bound.schema))
        available = set(joined.schema.qualified_names())
        for predicate in self._covered(self.query.join_predicates(), available):
            joined = _filter(joined, predicate.expression)
        for predicate in self._take(self.query.single_table_predicates(alias)):
            joined = _filter(joined, predicate.expression, observe=False)
        return joined

    def _join(self, left: PlanStep, right: PlanStep) -> PlanStep:
        left_columns = set(left.schema.qualified_names())
        right_columns = set(right.schema.qualified_names())
        available = left_columns | right_columns

        equi_pairs: List[Tuple[str, str]] = []
        residual: List[Expression] = []
        for predicate in self._covered(self.query.join_predicates(), available):
            pair = equi_join_sides(predicate.expression, left_columns, right_columns)
            if pair is not None:
                equi_pairs.append(pair)
            else:
                residual.append(predicate.expression)

        schema = left.schema.concat(right.schema)
        if equi_pairs:
            left_keys, right_keys = zip(*equi_pairs)
            joined = PlanStep(
                lambda run, outer, inner: HashJoin(
                    outer, inner, left_keys=left_keys, right_keys=right_keys
                ),
                (left, right),
                schema,
            )
        else:
            predicate = conjoin(residual)
            joined = PlanStep(
                lambda run, outer, inner: NestedLoopJoin(
                    outer, inner, predicate=predicate, functions=run.functions
                ),
                (left, right),
                schema,
            )
            residual = []
        for expression in residual:
            joined = _filter(joined, expression)
        return joined

    def _apply_udf_free_residuals(self, step: PlanStep) -> PlanStep:
        """Any UDF-free predicate not yet applied goes in as a server filter."""
        available = set(step.schema.qualified_names())
        udf_free = [predicate for predicate in self.query.predicates if not predicate.references_udf]
        for predicate in self._covered(udf_free, available):
            step = _filter(step, predicate.expression)
        return step

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
        self, step: PlanStep, udfs: List[Tuple[ClientUdfCall, ExecutionStrategy]]
    ) -> PlanStep:
        """Each UDF call with its node's strategy, in chain order."""
        if udfs and self.migrating:
            # Mid-query re-optimization owns the whole chain: one migration
            # operator applies every client-site UDF, so the application
            # order itself can change at segment boundaries.
            return self._apply_migration_chain(step, udfs)

        calls = [call for call, _ in udfs]
        for index, (call, strategy) in enumerate(udfs):
            step = self._apply_one_udf(step, call, strategy, calls[index + 1 :])
        return step

    def _apply_migration_chain(
        self, step: PlanStep, udfs: List[Tuple[ClientUdfCall, ExecutionStrategy]]
    ) -> PlanStep:
        calls = [call for call, _ in udfs]
        for call in calls:
            self.result_column_mapping[call.udf.name.lower()] = call.result_column_name
        stages = tuple(
            MigrationStage(
                udf=call.udf,
                argument_columns=tuple(call.argument_columns),
                result_column_name=call.result_column_name,
                strategy=strategy,
            )
            for call, strategy in udfs
        )
        estimates = self.query.declared_selectivities(
            [bound.table.statistics for bound in self.query.tables]
        )
        predicates = tuple(
            MigrationPredicate(
                expression=self._rewritten(predicate.expression),
                udf_names=frozenset(name.lower() for name in predicate.udf_names),
                declared_selectivity=estimates[id(predicate)],
            )
            for predicate in self._take(self.query.predicates, self._evaluable)
        )
        output_columns = self._columns_needed_above(step, calls)

        def build(run: _Run, child: Operator) -> Operator:
            return PlanMigrationOperator(
                child,
                stages,
                run.context,
                config=run.config,
                predicates=predicates,
                output_columns=output_columns,
                controller=run.config.reoptimizer,
            )

        return PlanStep(build, (step,), _applied(step.schema, calls, output_columns))

    def _apply_one_udf(
        self,
        step: PlanStep,
        call: ClientUdfCall,
        strategy: ExecutionStrategy,
        remaining_calls: List[ClientUdfCall],
    ) -> PlanStep:
        self.result_column_mapping[call.udf.name.lower()] = call.result_column_name

        # The predicates that become evaluable once this UDF has run.
        pushable = conjoin(
            [self._rewritten(p.expression) for p in self._take(self.query.predicates, self._evaluable)]
        )
        output_columns = None
        if strategy is ExecutionStrategy.CLIENT_SITE_JOIN:
            # The arguments of a UDF the select list calls survive as well —
            # what the estimator prices (it reads the outputs as written) and
            # every pinned figure ships; the migrated chain drops them.
            output_columns = self._columns_needed_above(
                step,
                [call],
                remaining_calls + [c for c in self.query.client_udf_calls if c.used_in_output],
            )
        udf, arguments, result_column = call.udf, tuple(call.argument_columns), call.result_column_name

        def build(run: _Run, child: Operator) -> Operator:
            return build_operator(
                child=child,
                udf=udf,
                argument_columns=arguments,
                context=run.context,
                config=run.config.with_strategy(strategy),
                pushable_predicate=pushable,
                output_columns=output_columns,
                result_column_name=result_column,
            )

        return PlanStep(build, (step,), _applied(step.schema, [call], output_columns))

    def _columns_needed_above(
        self,
        step: PlanStep,
        calls: List[ClientUdfCall],
        argument_calls: Sequence[ClientUdfCall] = (),
    ) -> Optional[Tuple[str, ...]]:
        """Columns of ``step`` extended by ``calls``' results still read above them.

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
        extended = step.schema.qualified_names() + [call.result_column_name for call in calls]
        return tuple(needed.keep(extended)) or None

    def _rewritten(self, expression: Expression) -> Expression:
        """``expression`` with every applied client-site UDF call as its result column."""
        return replace_udf_calls_with_columns(expression, self.result_column_mapping)

    def _apply_remaining_predicates(self, step: PlanStep) -> PlanStep:
        for predicate in self._take(self.query.predicates):
            step = _filter(step, self._rewritten(predicate.expression))
        return step

    # -- output ----------------------------------------------------------------------------

    def _apply_output(self, step: PlanStep) -> PlanStep:
        outputs = tuple(
            (output.name, self._rewritten(output.expression), output.dtype)
            for output in self.query.outputs
        )
        return PlanStep(
            lambda run, child: ProjectExpressions(child, outputs, functions=run.functions),
            (step,),
            ProjectExpressions.schema_over(step.schema, outputs),
        )


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
