"""Abstract syntax tree produced by the SQL parser.

The AST is purely syntactic: names are unresolved strings.  The binder
(:mod:`repro.sql.binder`) turns the AST into bound relational expressions and
a :class:`~repro.sql.logical.BoundQuery`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union


class AstExpression:
    """Base class for syntactic expressions."""


@dataclass(frozen=True)
class AstLiteral(AstExpression):
    value: Union[int, float, str, bool, None]

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return str(self.value)


@dataclass(frozen=True)
class AstColumn(AstExpression):
    name: str
    table: Optional[str] = None

    @property
    def qualified_name(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name

    def __str__(self) -> str:
        return self.qualified_name


@dataclass(frozen=True)
class AstFunctionCall(AstExpression):
    name: str
    arguments: Tuple[AstExpression, ...]

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(argument) for argument in self.arguments)})"


@dataclass(frozen=True)
class AstBinaryOp(AstExpression):
    operator: str
    left: AstExpression
    right: AstExpression

    def __str__(self) -> str:
        return f"({self.left} {self.operator} {self.right})"


@dataclass(frozen=True)
class AstUnaryOp(AstExpression):
    operator: str
    operand: AstExpression

    def __str__(self) -> str:
        return f"{self.operator} ({self.operand})"


@dataclass(frozen=True)
class AstStar(AstExpression):
    """``*`` or ``alias.*`` in a select list."""

    table: Optional[str] = None

    def __str__(self) -> str:
        return f"{self.table}.*" if self.table else "*"


@dataclass(frozen=True)
class SelectItem:
    """One entry of the select list: an expression with an optional alias."""

    expression: AstExpression
    alias: Optional[str] = None

    def __str__(self) -> str:
        return f"{self.expression} AS {self.alias}" if self.alias else str(self.expression)


@dataclass(frozen=True)
class TableReference:
    """One entry of the FROM list: a table name with an optional alias."""

    name: str
    alias: Optional[str] = None

    @property
    def binding_name(self) -> str:
        return self.alias or self.name

    def __str__(self) -> str:
        return f"{self.name} {self.alias}" if self.alias else self.name


@dataclass(frozen=True)
class OrderItem:
    expression: AstExpression
    descending: bool = False


@dataclass(frozen=True)
class CreateIndexStatement:
    """``CREATE INDEX name ON table (column) [USING BTREE|HASH]``."""

    name: str
    table: str
    column: str
    kind: str = "btree"

    def __str__(self) -> str:
        return (
            f"CREATE INDEX {self.name} ON {self.table} ({self.column}) "
            f"USING {self.kind.upper()}"
        )


@dataclass(frozen=True)
class DropIndexStatement:
    """``DROP INDEX name``."""

    name: str

    def __str__(self) -> str:
        return f"DROP INDEX {self.name}"


@dataclass
class SelectStatement:
    """A parsed SELECT statement."""

    items: List[SelectItem] = field(default_factory=list)
    tables: List[TableReference] = field(default_factory=list)
    where: Optional[AstExpression] = None
    distinct: bool = False
    order_by: List[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None
    offset: int = 0
    #: The statement's tokens with each literal that binds to a ``Literal``
    #: replaced by its Python type (:meth:`repro.sql.parser.Parser.parse`).
    template: Tuple[object, ...] = field(default=(), compare=False, repr=False)

    def __str__(self) -> str:
        parts = ["SELECT"]
        if self.distinct:
            parts.append("DISTINCT")
        parts.append(", ".join(str(item) for item in self.items))
        parts.append("FROM " + ", ".join(str(table) for table in self.tables))
        if self.where is not None:
            parts.append(f"WHERE {self.where}")
        if self.order_by:
            columns = ", ".join(
                str(item.expression) + (" DESC" if item.descending else "") for item in self.order_by
            )
            parts.append(f"ORDER BY {columns}")
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        return " ".join(parts)
