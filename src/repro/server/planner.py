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
every predicate, derives each operator's schema and decides which UDF calls
are read as result columns where, into a :class:`PlanRecipe` — immutable
steps, each one operator to build over the operators of its input steps.  A
step holds nothing a literal of the query wrote: what it reads of the query
(conjuncts, an index scan's interval, the outputs) is a *reader* of the
recipe, which finds its part of a query by position.  The recipe therefore
serves every query of the template it was planned for.  The
*instantiation* pass asks the readers about the run's query, builds fresh
operators from the steps over one execution's context, config and server
functions, and makes the checks that read live state (an index still there
and complete).  The decision keeps the recipes planned from it
(``OptimizationDecision.recipes``), and a decision the database serves from
its memo — for the same text or for a new literal of its template — shares
its entry's, so a template is planned once and afterwards only
instantiated; operators, controllers and every per-run state object still
belong to one execution.

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
from repro.relational.expressions import Expression, Literal, conjoin, written_literals
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
    """What one execution's operators are built over: its context, config
    and server functions, its query and the recipe's readers' ``values``
    for that query, in reader order."""

    context: RemoteExecutionContext
    config: StrategyConfig
    functions: Dict[str, Callable[..., Any]]
    query: BoundQuery
    values: Tuple[Any, ...]


class PlanStep(NamedTuple):
    """One operator of a :class:`PlanRecipe`.

    ``build(run, *operators)`` makes a fresh operator over the operators
    instantiated from ``inputs``, reading only what it captured when it was
    planned and the run's fields.  ``schema`` is the schema that operator
    outputs.
    """

    build: Callable[..., Operator]
    inputs: Tuple["PlanStep", ...]
    schema: Schema

    def instantiate(self, run: _Run) -> Operator:
        return self.build(run, *[step.instantiate(run) for step in self.inputs])


@dataclass(frozen=True)
class PlanRecipe:
    """What the planning pass makes of ``query`` under one decision: the steps
    up to the final projection (``root``), ready to instantiate per execution
    of any query of ``query``'s template.

    ``readers`` are what the steps read of a run's query, each a function
    of the query that finds its part by position; ``values`` are their
    answers for ``query`` itself.
    """

    query: BoundQuery
    root: PlanStep
    readers: Tuple[Callable[[BoundQuery], Any], ...]
    values: Tuple[Any, ...]

    def serves(self, query: BoundQuery) -> bool:
        """Whether ``query`` is another text of the planned query's template
        over the same table and UDF objects (a fragment of a table binds a
        text of the template too)."""
        planned = self.query
        return (
            query.template is not None
            and query.template == planned.template
            and _same(query.tables, planned.tables, "table")
            and _same(query.client_udf_calls, planned.client_udf_calls, "udf")
        )


def _same(mine: Sequence[Any], theirs: Sequence[Any], attribute: str) -> bool:
    """Whether two lists of bound tables or UDF calls hold the same
    ``attribute`` objects, position by position."""
    return mine is theirs or all(
        getattr(one, attribute) is getattr(other, attribute) for one, other in zip(mine, theirs)
    )


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
    ``query``'s template (:func:`plan_recipe`), so a second build from the
    same decision, or from one that shares its recipes, skips the planning
    pass.

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
    recipe = plan_recipe(query, config, decision)
    values = recipe.values if query is recipe.query else tuple(read(query) for read in recipe.readers)
    root = recipe.root.instantiate(_Run(context, config, server_functions or {}, query, values))
    if not defer_output_shaping:
        root = shape_output(root, query)
    # Every remote operator applies one of the query's client-site UDF calls.
    remote = find_remote_operators(root) if query.client_udf_calls else []
    return PlanBuildResult(root, config, remote)


def plan_recipe(
    query: BoundQuery, config: StrategyConfig, decision: OptimizationDecision
) -> PlanRecipe:
    """The recipe of ``decision``'s plan for ``query``: the one ``decision``
    keeps for ``query``'s template, else planned now and kept.

    The only part of ``config`` a recipe depends on is whether mid-query
    re-optimization is armed (one migration operator then owns the UDF
    chain); everything else in it is read when a step is instantiated.
    """
    migrating = config.reoptimizer is not None
    recipe = decision.recipes.get(migrating)
    if recipe is None or (recipe.query is not query and not recipe.serves(query)):
        planner = _Planner(query, decision, migrating)
        root = planner.plan()
        recipe = PlanRecipe(query, root, tuple(planner.readers), tuple(planner.values))
        decision.recipes[migrating] = recipe
    return recipe


def plan_shape(query: BoundQuery, plan: CandidatePlan) -> tuple:
    """What the planning pass reads of ``plan`` for ``query``: per chain node,
    the table alias or UDF name it applies, its strategy and its access path,
    the conjuncts that path serves as positions in ``query.predicates``.

    A recipe holds nothing a statistics read or a literal decided, so two
    decisions for queries of one template with equal shapes plan to the same
    recipe, whatever they estimated.
    """
    texts: Optional[List[str]] = None
    shape = []
    for node in plan.nodes():
        operation, path = node.operation, node.path
        own = operation.alias if isinstance(operation, TableOperation) else operation.name
        access = None
        if path is not None:
            if texts is None:
                texts = [str(predicate.expression) for predicate in query.predicates]
            keys = set(path.predicate_keys)
            access = (
                path.kind, path.index_name, path.index_kind, path.column, path.join_column,
                tuple(position for position, text in enumerate(texts) if text in keys),
            )
        shape.append((type(operation), own.lower(), node.strategy, access))
    return tuple(shape)


def _rewritten(expression: Expression, mapping: Dict[str, str]) -> Expression:
    """``expression`` with every client-site UDF call ``mapping`` names as its result column."""
    return replace_udf_calls_with_columns(expression, mapping) if mapping else expression


def _filter(step: PlanStep, value: int, observe: bool = True) -> PlanStep:
    """``step``'s rows that satisfy the predicate ``run.values[value]`` (see
    :class:`Filter` for ``observe``)."""
    return PlanStep(
        lambda run, child: Filter(
            child, run.values[value], run.functions, observe_selectivity=observe
        ),
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
    """The planning pass: the predicate bookkeeping, building no operator.

    What a step reads of the query is registered as a reader
    (:meth:`_read`): ``readers`` and their ``values`` for ``query`` become
    the recipe's.
    """

    def __init__(self, query: BoundQuery, decision: OptimizationDecision, migrating: bool) -> None:
        self.query = query
        self.decision = decision
        self.migrating = migrating
        self.applied_predicates: Set[int] = set()
        self.result_column_mapping: Dict[str, str] = {}
        #: ids of the query's tables and UDF calls a node has been matched to.
        self.placed: Set[int] = set()
        #: Each conjunct's position in ``query.predicates``, by ``id``.
        self.positions = {id(predicate): i for i, predicate in enumerate(query.predicates)}
        self.readers: List[Callable[[BoundQuery], Any]] = []
        self.values: List[Any] = []

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

    # -- what a step reads of the query ---------------------------------------------------

    def _read(
        self, reader: Callable[[BoundQuery], Any], sources: Sequence[Expression]
    ) -> Tuple[int, Any]:
        """``reader`` registered: its value's index in ``run.values``, and that
        value for the planned query.

        ``sources`` are the query's expressions it reads.  When none of them
        holds a literal the text wrote, every query of the template holds
        them alike: the value is read once, here, and kept.
        """
        value = reader(self.query)
        if not any(written_literals(expression) for expression in sources):
            reader = lambda query: value  # noqa: E731
        self.readers.append(reader)
        self.values.append(value)
        return len(self.values) - 1, value

    def _conjunction(self, predicates: Sequence[Any]) -> Tuple[int, Optional[Expression]]:
        """A reader of ``predicates`` ANDed (None for none), each with the UDF
        calls applied so far as their result columns."""
        positions = [self.positions[id(predicate)] for predicate in predicates]
        mapping = dict(self.result_column_mapping)
        return self._read(
            lambda query: conjoin(
                [_rewritten(query.predicates[position].expression, mapping) for position in positions]
            ),
            [predicate.expression for predicate in predicates],
        )

    def _filters(self, step: PlanStep, predicates: Sequence[Any], observe: bool = True) -> PlanStep:
        """``step`` under one filter per predicate, in order."""
        for predicate in predicates:
            step = _filter(step, self._conjunction([predicate])[0], observe)
        return step

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
            step = self._filters(step, [predicate], str(predicate.expression) not in served)
            self.applied_predicates.add(id(predicate))
        return step

    def _index_scan_leaf(self, bound: BoundTable, path: AccessPath) -> PlanStep:
        """The index-scan leaf the access path asks for.

        Every conjunct the path was priced as serving must still be in the
        query and indexable; together they fold to the one interval the scan
        looks up, read off each run's query at the conjuncts' positions.
        That the index is still there, complete, on the conjuncts' column
        and able to serve a range is checked against the live index each
        time the leaf is built.
        """
        if not path.predicate_keys:
            raise _unrealisable(path, "it names no predicate to serve")
        in_query: Dict[str, List[int]] = {}
        for predicate in self.query.single_table_predicates(bound.alias):
            in_query.setdefault(str(predicate.expression), []).append(self.positions[id(predicate)])
        positions, served, conditions = [], [], []
        for key in path.predicate_keys:
            found = in_query.get(key)
            if not found:
                raise _unrealisable(path, f"{bound.alias} has no such predicate in this query")
            # Conjuncts that read alike are served in query order.
            positions.append(found.pop(0) if len(found) > 1 else found[0])
            served.append(self.query.predicates[positions[-1]].expression)
            condition = index_condition(served[-1])
            if condition is None:
                raise _unrealisable(path, "the predicate is not an indexable comparison")
            conditions.append(condition)
        # Every text of the template writes each served conjunct's literal on
        # the side ``index_condition`` found it: the interval reads it there.
        ends = [
            (position, condition.operator, "right" if isinstance(expression.right, Literal) else "left")
            for position, condition, expression in zip(positions, conditions, served)
        ]
        interval, _ = self._read(
            lambda query: KeyInterval.fold(
                [
                    (operator, getattr(query.predicates[position].expression, side).value)
                    for position, operator, side in ends
                ]
            ),
            served,
        )
        checks = tuple(
            (position, column_key(c.column), c.is_equality) for position, c in zip(positions, conditions)
        )
        table, alias, column = bound.table, bound.alias, conditions[0].column

        def build(run: _Run) -> Operator:
            handle = _live_index(table, path)
            for position, key_column, is_equality in checks:
                if key_column != handle.definition.column.lower():
                    key = run.query.predicates[position].expression
                    raise _unrealisable(path, f"{key} is not on the indexed column")
                if not is_equality and not handle.supports_range:
                    raise _unrealisable(path, "the index serves equality only, not a range")
            return IndexScanOperator(
                table, handle, run.values[interval], column, run.context, alias=alias
            )

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
        joined = self._filters(joined, self._covered(self.query.join_predicates(), available))
        return self._filters(joined, self._take(self.query.single_table_predicates(alias)), observe=False)

    def _join(self, left: PlanStep, right: PlanStep) -> PlanStep:
        left_columns = set(left.schema.qualified_names())
        right_columns = set(right.schema.qualified_names())
        available = left_columns | right_columns

        equi_pairs: List[Tuple[str, str]] = []
        residual: List[Any] = []
        for predicate in self._covered(self.query.join_predicates(), available):
            pair = equi_join_sides(predicate.expression, left_columns, right_columns)
            if pair is not None:
                equi_pairs.append(pair)
            else:
                residual.append(predicate)

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
            return self._filters(joined, residual)
        predicate, _ = self._conjunction(residual)
        return PlanStep(
            lambda run, outer, inner: NestedLoopJoin(
                outer, inner, predicate=run.values[predicate], functions=run.functions
            ),
            (left, right),
            schema,
        )

    def _apply_udf_free_residuals(self, step: PlanStep) -> PlanStep:
        """Any UDF-free predicate not yet applied goes in as a server filter."""
        available = set(step.schema.qualified_names())
        udf_free = [predicate for predicate in self.query.predicates if not predicate.references_udf]
        return self._filters(step, self._covered(udf_free, available))

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
        positions = [
            self.positions[id(predicate)]
            for predicate in self._take(self.query.predicates, self._evaluable)
        ]
        mapping = dict(self.result_column_mapping)

        def migration_predicates(query: BoundQuery) -> Tuple[MigrationPredicate, ...]:
            # Declared estimates read the tables' statistics: each run reads
            # them afresh, so the recipe holds nothing a statistics read said.
            estimates = query.declared_selectivities([bound.table.statistics for bound in query.tables])
            return tuple(
                MigrationPredicate(
                    expression=_rewritten(predicate.expression, mapping),
                    udf_names=frozenset(name.lower() for name in predicate.udf_names),
                    declared_selectivity=estimates[id(predicate)],
                )
                for predicate in (query.predicates[position] for position in positions)
            )

        output_columns = self._columns_needed_above(step, calls)

        def build(run: _Run, child: Operator) -> Operator:
            return PlanMigrationOperator(
                child,
                stages,
                run.context,
                config=run.config,
                predicates=migration_predicates(run.query),
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
        pushable, _ = self._conjunction(self._take(self.query.predicates, self._evaluable))
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
                pushable_predicate=run.values[pushable],
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
        mapping = self.result_column_mapping
        for output in self.query.outputs:
            needed.update(_rewritten(output.expression, mapping).columns())
        for predicate in self.query.predicates:
            if id(predicate) not in self.applied_predicates:
                needed.update(_rewritten(predicate.expression, mapping).columns())
        extended = step.schema.qualified_names() + [call.result_column_name for call in calls]
        return tuple(needed.keep(extended)) or None

    def _apply_remaining_predicates(self, step: PlanStep) -> PlanStep:
        return self._filters(step, self._take(self.query.predicates))

    # -- output ----------------------------------------------------------------------------

    def _apply_output(self, step: PlanStep) -> PlanStep:
        mapping = dict(self.result_column_mapping)
        index, outputs = self._read(
            lambda query: tuple(
                (output.name, _rewritten(output.expression, mapping), output.dtype)
                for output in query.outputs
            ),
            [output.expression for output in self.query.outputs],
        )
        return PlanStep(
            lambda run, child: ProjectExpressions(child, run.values[index], functions=run.functions),
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
