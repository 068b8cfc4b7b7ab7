"""Expression rewrites and operator construction helpers.

When a query predicate mentions a client-site UDF — e.g.
``ClientAnalysis(S.Quotes) > 500`` — the execution operators materialise the
UDF's value as a *result column* of the extended schema.  Predicates that are
applied after (or pushed alongside) the UDF must therefore be rewritten to
refer to that column instead of re-invoking the function.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.errors import ExecutionError
from repro.client.udf import UdfDefinition
from repro.core.execution.clientjoin import ClientSiteJoinOperator
from repro.core.execution.context import RemoteExecutionContext
from repro.core.execution.naive import NaiveUdfOperator
from repro.core.execution.semijoin import SemiJoinUdfOperator
from repro.core.strategies import ExecutionStrategy, StrategyConfig
from repro.relational.expressions import (
    Arithmetic,
    BooleanOp,
    ColumnRef,
    Comparison,
    Expression,
    FunctionCall,
    Literal,
)
from repro.relational.operators.base import Operator


def replace_udf_calls_with_columns(
    expression: Expression, mapping: Dict[str, str]
) -> Expression:
    """Return a copy of ``expression`` with UDF calls replaced by column refs.

    ``mapping`` maps lower-cased UDF names to the result-column names that
    hold their values in the extended schema.  Calls to functions not in the
    mapping are preserved (their arguments are still rewritten recursively).
    """
    if isinstance(expression, FunctionCall):
        replacement = mapping.get(expression.name.lower())
        if replacement is not None:
            return ColumnRef(replacement)
        return FunctionCall(
            expression.name,
            [replace_udf_calls_with_columns(argument, mapping) for argument in expression.arguments],
        )
    if isinstance(expression, Comparison):
        return Comparison(
            expression.operator,
            replace_udf_calls_with_columns(expression.left, mapping),
            replace_udf_calls_with_columns(expression.right, mapping),
        )
    if isinstance(expression, Arithmetic):
        return Arithmetic(
            expression.operator,
            replace_udf_calls_with_columns(expression.left, mapping),
            replace_udf_calls_with_columns(expression.right, mapping),
        )
    if isinstance(expression, BooleanOp):
        return BooleanOp(
            expression.operator,
            [replace_udf_calls_with_columns(operand, mapping) for operand in expression.operands],
        )
    if isinstance(expression, (ColumnRef, Literal)):
        return expression
    raise ExecutionError(f"cannot rewrite expression node {type(expression).__name__}")


def build_operator(
    child: Operator,
    udf: UdfDefinition,
    argument_columns: Sequence[str],
    context: RemoteExecutionContext,
    config: StrategyConfig,
    pushable_predicate: Optional[Expression] = None,
    output_columns: Optional[Sequence[str]] = None,
    result_column_name: Optional[str] = None,
    semi_join_state=None,
) -> Operator:
    """Instantiate the execution operator named by ``config.strategy``.

    For the naive and semi-join strategies, pushable predicates and
    projections cannot run at the client; when supplied they are applied on
    the server by wrapping the operator in Filter/Project operators, so every
    strategy produces identical rows for the same inputs.

    A config armed for mid-query adaptation gets the *segmented* executor
    (:class:`~repro.core.execution.adaptive.PlanMigrationOperator`, here with
    this one UDF as its only stage): ``config.strategy`` is then the *initial*
    strategy, and the operator may hand the unprocessed tail of the input to
    a different one at segment boundaries.  The config's
    :class:`~repro.adaptive.segmented.ReOptimizer` drives it; failing that,
    one built from ``config.switch_policy``, whose changes count as strategy
    switches — so with both armed, re-optimization wins.

    ``semi_join_state`` (a
    :class:`~repro.core.execution.semijoin.SemiJoinSegmentState`) carries
    duplicate-elimination state across the segments of an adaptive
    execution, so later segments never re-ship resolved arguments.
    """
    from repro.relational.operators.filter import Filter
    from repro.relational.operators.project import Project

    controller = config.reoptimizer
    if controller is None and config.switch_policy is not None:
        from repro.adaptive.segmented import ReOptimizer

        controller = ReOptimizer(
            config.switch_policy, statistics=config.statistics, plan_wide=False
        )
    if controller is not None:
        # Imported lazily: the segmented executor builds plain per-segment
        # operators through this very function.
        from repro.core.execution.adaptive import (
            MigrationPredicate,
            MigrationStage,
            PlanMigrationOperator,
        )

        stage = MigrationStage(
            udf=udf,
            argument_columns=tuple(argument_columns),
            result_column_name=result_column_name or udf.result_column_name,
            strategy=config.strategy,
        )
        predicates = []
        if pushable_predicate is not None:
            predicates.append(
                MigrationPredicate(
                    expression=pushable_predicate,
                    udf_names=frozenset({udf.name.lower()}),
                    declared_selectivity=udf.selectivity,
                )
            )
        return PlanMigrationOperator(
            child,
            [stage],
            context,
            config=config,
            predicates=predicates,
            output_columns=output_columns,
            controller=controller,
        )

    if config.strategy is ExecutionStrategy.CLIENT_SITE_JOIN:
        return ClientSiteJoinOperator(
            child,
            udf,
            argument_columns,
            context,
            config=config,
            pushable_predicate=pushable_predicate,
            output_columns=output_columns,
            result_column_name=result_column_name,
        )

    operator_class = (
        NaiveUdfOperator if config.strategy is ExecutionStrategy.NAIVE else SemiJoinUdfOperator
    )
    operator: Operator = operator_class(
        child,
        udf,
        argument_columns,
        context,
        config=config,
        result_column_name=result_column_name,
        carry_state=semi_join_state,
    )
    if pushable_predicate is not None:
        operator = Filter(operator, pushable_predicate)
    if output_columns is not None:
        operator = Project(operator, list(output_columns))
    return operator
