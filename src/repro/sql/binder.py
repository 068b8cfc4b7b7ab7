"""The binder: resolves a parsed statement against the catalog and UDF registry."""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Union

from repro.errors import BindError
from repro.client.registry import UdfRegistry
from repro.client.udf import UdfDefinition
from repro.relational.catalog import Catalog
from repro.relational.expressions import (
    Arithmetic,
    BooleanOp,
    ColumnRef,
    Comparison,
    Expression,
    FunctionCall,
    Literal,
    conjuncts,
)
from repro.relational.predicates import PredicateInfo
from repro.relational.schema import Schema
from repro.relational.types import BOOLEAN, FLOAT, STRING, DataType, INTEGER
from repro.sql.ast import (
    AstBinaryOp,
    AstColumn,
    AstExpression,
    AstFunctionCall,
    AstLiteral,
    AstStar,
    AstUnaryOp,
    CreateIndexStatement,
    DropIndexStatement,
    SelectStatement,
)
from repro.sql.logical import BoundQuery, BoundTable, ClientUdfCall, OutputColumn
from repro.sql.parser import parse

_COMPARISON_OPERATORS = {"=", "<>", "!=", "<", "<=", ">", ">="}
_ARITHMETIC_OPERATORS = {"+", "-", "*", "/"}
_BOOLEAN_OPERATORS = {"AND", "OR"}

#: What SQL text binds to: a query, or index DDL as parsed (the storage
#: catalog resolves and validates an index statement's names when it runs).
BoundStatement = Union[BoundQuery, CreateIndexStatement, DropIndexStatement]


class Binder:
    """Binds parsed statements: a SELECT into a :class:`BoundQuery`."""

    def __init__(self, catalog: Catalog, udfs: Optional[UdfRegistry] = None) -> None:
        self.catalog = catalog
        self.udfs = udfs if udfs is not None else UdfRegistry()

    # -- public API --------------------------------------------------------------------

    def bind_sql(self, sql: str) -> BoundStatement:
        """The one call from SQL text to what runs: ``sql`` parsed once, bound,
        its template recorded (:attr:`BoundQuery.template`)."""
        statement = parse(sql)
        if isinstance(statement, SelectStatement):
            bound = self.bind(statement, sql=sql)
            bound.template = (self.catalog.generation, self.udfs.generation) + statement.template
            return bound
        return statement

    def bind(self, statement: SelectStatement, sql: str = "") -> BoundQuery:
        tables = self._bind_tables(statement)
        combined_schema = self._combined_schema(tables)

        outputs = self._bind_outputs(statement, tables, combined_schema)
        where = (
            self._bind_expression(statement.where, combined_schema)
            if statement.where is not None
            else None
        )
        predicates = [PredicateInfo.analyze(conjunct) for conjunct in conjuncts(where)]

        client_calls = self._collect_client_udf_calls(outputs, predicates)

        order_by = [
            (self._order_position(item.expression, outputs, combined_schema), item.descending)
            for item in statement.order_by
        ]

        return BoundQuery(
            sql=sql or str(statement),
            tables=tables,
            outputs=outputs,
            predicates=predicates,
            client_udf_calls=client_calls,
            combined_schema=combined_schema,
            distinct=statement.distinct,
            order_by=order_by,
            limit=statement.limit,
            offset=statement.offset,
        )

    # -- tables -------------------------------------------------------------------------

    def _bind_tables(self, statement: SelectStatement) -> List[BoundTable]:
        if not statement.tables:
            raise BindError("the FROM clause is empty")
        tables: List[BoundTable] = []
        seen_aliases: Set[str] = set()
        for reference in statement.tables:
            if not self.catalog.has_table(reference.name):
                raise BindError(
                    f"table {reference.name!r} does not exist; known tables: "
                    f"{self.catalog.table_names()}"
                )
            table = self.catalog.table(reference.name)
            alias = reference.binding_name
            if alias.lower() in seen_aliases:
                raise BindError(f"duplicate table alias {alias!r}")
            seen_aliases.add(alias.lower())
            tables.append(BoundTable(table=table, alias=alias, schema=table.schema.qualify(alias)))
        return tables

    @staticmethod
    def _combined_schema(tables: List[BoundTable]) -> Schema:
        combined = tables[0].schema
        for bound in tables[1:]:
            combined = combined.concat(bound.schema)
        return combined

    # -- outputs -------------------------------------------------------------------------

    def _bind_outputs(
        self,
        statement: SelectStatement,
        tables: List[BoundTable],
        combined_schema: Schema,
    ) -> List[OutputColumn]:
        outputs: List[OutputColumn] = []
        for item in statement.items:
            if isinstance(item.expression, AstStar):
                outputs.extend(self._expand_star(item.expression, tables))
                continue
            expression = self._bind_expression(item.expression, combined_schema)
            name = item.alias or self._default_output_name(item.expression, len(outputs))
            outputs.append(
                OutputColumn(name=name, expression=expression, dtype=self._infer_type(expression, combined_schema))
            )
        if not outputs:
            raise BindError("the SELECT list is empty")
        return outputs

    def _expand_star(self, star: AstStar, tables: List[BoundTable]) -> List[OutputColumn]:
        selected = tables
        if star.table is not None:
            selected = [t for t in tables if t.alias.lower() == star.table.lower()]
            if not selected:
                raise BindError(f"unknown table alias {star.table!r} in {star}")
        outputs = []
        for bound in selected:
            for column in bound.schema.columns:
                outputs.append(
                    OutputColumn(
                        name=column.name,
                        expression=ColumnRef(column.qualified_name),
                        dtype=column.dtype,
                    )
                )
        return outputs

    def _order_position(
        self, key: AstExpression, outputs: List[OutputColumn], schema: Schema
    ) -> int:
        """The output an ``ORDER BY`` key sorts by, as a position in the select list.

        The output whose bound expression is the key's (``A.K`` is the
        output ``A.K AS V``, never a ``… AS K``; a call is the output making
        the same call), else the output whose alias an unqualified key names.
        Rows are sorted after the projection, so a key that is neither is
        refused.
        """
        alias = key.name if isinstance(key, AstColumn) and key.table is None else None
        try:
            expression = self._bind_expression(key, schema)
        except BindError:
            if alias is None:
                raise
            expression = None  # no such column: the name may still be an alias
        for position, output in enumerate(outputs):
            if output.expression == expression:
                return position
        for position, output in enumerate(outputs):
            if output.name == alias:
                return position
        raise BindError(f"ORDER BY column {str(key)!r} is not in the output")

    @staticmethod
    def _default_output_name(expression: AstExpression, index: int) -> str:
        if isinstance(expression, AstColumn):
            return expression.name
        if isinstance(expression, AstFunctionCall):
            return expression.name
        return f"column_{index + 1}"

    def _infer_type(self, expression: Expression, schema: Schema) -> DataType:
        if isinstance(expression, ColumnRef):
            return schema.column(expression.name).dtype
        if isinstance(expression, FunctionCall):  # bound only for a registered UDF
            return self.udfs.get(expression.name).result_dtype
        if isinstance(expression, Literal):
            value = expression.value
            if isinstance(value, bool):
                return BOOLEAN
            if isinstance(value, int):
                return INTEGER
            if isinstance(value, str):
                return STRING
            return FLOAT
        if isinstance(expression, Comparison) or (
            isinstance(expression, BooleanOp)
        ):
            return BOOLEAN
        return FLOAT

    # -- expressions -----------------------------------------------------------------------

    def _bind_expression(self, node: AstExpression, schema: Schema) -> Expression:
        if isinstance(node, AstLiteral):
            return Literal(node.value)
        if isinstance(node, AstColumn):
            name = node.qualified_name
            if not schema.has_column(name):
                raise BindError(
                    f"unknown column {name!r}; available columns: {schema.qualified_names()}"
                )
            # Normalise to the fully qualified spelling for stable downstream lookups.
            column = schema.column(name)
            return ColumnRef(column.qualified_name)
        if isinstance(node, AstFunctionCall):
            if not self.udfs.has(node.name):
                raise BindError(
                    f"unknown function {node.name!r}; registered UDFs: {self.udfs.names()}"
                )
            arguments = [self._bind_expression(argument, schema) for argument in node.arguments]
            udf = self.udfs.get(node.name)
            return FunctionCall(udf.name, arguments)
        if isinstance(node, AstUnaryOp):
            if node.operator.upper() == "NOT":
                return BooleanOp("NOT", [self._bind_expression(node.operand, schema)])
            raise BindError(f"unsupported unary operator {node.operator!r}")
        if isinstance(node, AstBinaryOp):
            operator = node.operator.upper()
            left = self._bind_expression(node.left, schema)
            right = self._bind_expression(node.right, schema)
            if operator in _BOOLEAN_OPERATORS:
                return BooleanOp(operator, [left, right])
            if node.operator in _COMPARISON_OPERATORS:
                return Comparison(node.operator, left, right)
            if node.operator in _ARITHMETIC_OPERATORS:
                return Arithmetic(node.operator, left, right)
            raise BindError(f"unsupported operator {node.operator!r}")
        if isinstance(node, AstStar):
            raise BindError("'*' is only allowed directly in the SELECT list")
        raise BindError(f"cannot bind AST node {type(node).__name__}")

    # -- client-site UDF discovery -------------------------------------------------------------

    def _collect_client_udf_calls(
        self, outputs: List[OutputColumn], predicates: List[PredicateInfo]
    ) -> List[ClientUdfCall]:
        calls: Dict[FunctionCall, ClientUdfCall] = {}

        def record(call: FunctionCall, in_predicate: bool, in_output: bool) -> None:
            udf = self.udfs.maybe_get(call.name)
            if udf is None or not udf.is_client_site:
                return
            existing = calls.get(call)
            if existing is None:
                argument_columns = []
                for argument in call.arguments:
                    if not isinstance(argument, ColumnRef):
                        raise BindError(
                            f"client-site UDF {call.name!r} arguments must be plain "
                            f"column references, got {argument}"
                        )
                    argument_columns.append(argument.name)
                existing = ClientUdfCall(
                    udf=udf,
                    call=call,
                    argument_columns=tuple(argument_columns),
                )
                calls[call] = existing
            existing.used_in_predicate = existing.used_in_predicate or in_predicate
            existing.used_in_output = existing.used_in_output or in_output

        for output in outputs:
            for call in output.expression.function_calls():
                record(call, in_predicate=False, in_output=True)
        for predicate in predicates:
            for call in predicate.expression.function_calls():
                record(call, in_predicate=True, in_output=False)
        return list(calls.values())
