"""Scalar expression trees.

Expressions appear in WHERE clauses, projection lists, and join conditions.
The node types are deliberately small:

* :class:`Literal` — a constant;
* :class:`ColumnRef` — a (possibly qualified) column reference;
* :class:`Comparison` — ``=, <>, <, <=, >, >=`` over two sub-expressions;
* :class:`Arithmetic` — ``+, -, *, /`` over two sub-expressions;
* :class:`BooleanOp` — ``AND, OR, NOT``;
* :class:`FunctionCall` — a call to a named (possibly client-site) UDF.

Every expression can be *bound* against a schema, producing a plain Python
callable ``row -> value`` with all column positions resolved once.  Function
calls are resolved through a ``functions`` mapping supplied at bind time, so
the same expression tree can be bound either on the server (server-site UDFs)
or on the client (pushed-down predicates calling client-site UDFs).
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ExpressionError
from repro.relational.schema import Schema

#: Signature of a bound expression: maps a row to a value.
BoundExpression = Callable[[Sequence[Any]], Any]

#: Signature of a resolvable function: positional arguments to result.
ScalarFunction = Callable[..., Any]

_COMPARISON_OPS: Dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_ARITHMETIC_OPS: Dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


class Expression:
    """Base class for scalar expressions."""

    def bind(
        self, schema: Schema, functions: Optional[Dict[str, ScalarFunction]] = None
    ) -> BoundExpression:
        """Resolve column references and function names; return ``row -> value``."""
        raise NotImplementedError

    def columns(self) -> FrozenSet[str]:
        """Qualified names of all columns referenced anywhere in the tree."""
        raise NotImplementedError

    def function_calls(self) -> List["FunctionCall"]:
        """All :class:`FunctionCall` nodes in the tree, in depth-first order."""
        return []

    def children(self) -> Tuple["Expression", ...]:
        return ()

    def walk(self) -> Iterator["Expression"]:
        """Depth-first traversal of the tree, including this node."""
        yield self
        for child in self.children():
            yield from child.walk()

    def evaluate(
        self,
        row: Sequence[Any],
        schema: Schema,
        functions: Optional[Dict[str, ScalarFunction]] = None,
    ) -> Any:
        """Convenience one-shot evaluation (binds on every call)."""
        return self.bind(schema, functions)(row)

    # Expressions are compared structurally, which the optimizer relies on to
    # recognise identical predicates across plan alternatives.
    def _key(self) -> Tuple:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if type(self) is not type(other):
            return NotImplemented
        return self._key() == other._key()  # type: ignore[union-attr]

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    @cached_property
    def canonical_key(self) -> str:
        """This predicate's identity, whatever order or nesting wrote it.

        The text with top-level ``AND`` flattened and the conjuncts sorted:
        observed selectivities are filed under it, so they survive a plan
        that applies the conjuncts elsewhere or in another order.  Worked
        out from the tree, once per expression — a literal holding `` AND ``
        or a parenthesis is one token here, as it was to the parser.
        """
        parts = [str(part) for part in conjuncts(self)]
        if len(parts) > 1:
            return "(" + " AND ".join(sorted(parts)) + ")"
        return str(self).strip()


class Literal(Expression):
    """A constant value."""

    def __init__(self, value: Any) -> None:
        self.value = value

    def bind(self, schema: Schema, functions=None) -> BoundExpression:
        value = self.value
        return lambda row: value

    def columns(self) -> FrozenSet[str]:
        return frozenset()

    def _key(self) -> Tuple:
        return (self.value,)

    def __repr__(self) -> str:
        return f"Literal({self.value!r})"

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return repr(self.value)


class ColumnRef(Expression):
    """A reference to a column by (optionally qualified) name."""

    def __init__(self, name: str) -> None:
        self.name = name

    def bind(self, schema: Schema, functions=None) -> BoundExpression:
        position = schema.index_of(self.name)
        return lambda row: row[position]

    def columns(self) -> FrozenSet[str]:
        return frozenset({self.name})

    def _key(self) -> Tuple:
        return (self.name,)

    def __repr__(self) -> str:
        return f"ColumnRef({self.name!r})"

    def __str__(self) -> str:
        return self.name


class Comparison(Expression):
    """A binary comparison producing a boolean."""

    def __init__(self, operator: str, left: Expression, right: Expression) -> None:
        if operator not in _COMPARISON_OPS:
            raise ExpressionError(f"unknown comparison operator {operator!r}")
        self.operator = operator
        self.left = left
        self.right = right

    def bind(self, schema: Schema, functions=None) -> BoundExpression:
        op = _COMPARISON_OPS[self.operator]
        left = self.left.bind(schema, functions)
        right = self.right.bind(schema, functions)

        def evaluate(row: Sequence[Any]) -> Optional[bool]:
            a = left(row)
            b = right(row)
            if a is None or b is None:
                return None
            return op(a, b)

        return evaluate

    def columns(self) -> FrozenSet[str]:
        return self.left.columns() | self.right.columns()

    def function_calls(self) -> List["FunctionCall"]:
        return self.left.function_calls() + self.right.function_calls()

    def children(self) -> Tuple[Expression, ...]:
        return (self.left, self.right)

    def _key(self) -> Tuple:
        return (self.operator, self.left, self.right)

    def __repr__(self) -> str:
        return f"Comparison({self.operator!r}, {self.left!r}, {self.right!r})"

    def __str__(self) -> str:
        return f"{self.left} {self.operator} {self.right}"


class Arithmetic(Expression):
    """A binary arithmetic expression."""

    def __init__(self, operator: str, left: Expression, right: Expression) -> None:
        if operator not in _ARITHMETIC_OPS:
            raise ExpressionError(f"unknown arithmetic operator {operator!r}")
        self.operator = operator
        self.left = left
        self.right = right

    def bind(self, schema: Schema, functions=None) -> BoundExpression:
        op = _ARITHMETIC_OPS[self.operator]
        left = self.left.bind(schema, functions)
        right = self.right.bind(schema, functions)

        def evaluate(row: Sequence[Any]) -> Any:
            a = left(row)
            b = right(row)
            if a is None or b is None:
                return None
            try:
                return op(a, b)
            except ZeroDivisionError as exc:
                raise ExpressionError(f"division by zero in {self}") from exc

        return evaluate

    def columns(self) -> FrozenSet[str]:
        return self.left.columns() | self.right.columns()

    def function_calls(self) -> List["FunctionCall"]:
        return self.left.function_calls() + self.right.function_calls()

    def children(self) -> Tuple[Expression, ...]:
        return (self.left, self.right)

    def _key(self) -> Tuple:
        return (self.operator, self.left, self.right)

    def __repr__(self) -> str:
        return f"Arithmetic({self.operator!r}, {self.left!r}, {self.right!r})"

    def __str__(self) -> str:
        return f"({self.left} {self.operator} {self.right})"


class BooleanOp(Expression):
    """``AND``, ``OR`` (n-ary) and ``NOT`` (unary)."""

    def __init__(self, operator: str, operands: Sequence[Expression]) -> None:
        operator = operator.upper()
        if operator not in ("AND", "OR", "NOT"):
            raise ExpressionError(f"unknown boolean operator {operator!r}")
        if operator == "NOT" and len(operands) != 1:
            raise ExpressionError("NOT takes exactly one operand")
        if operator in ("AND", "OR") and len(operands) < 2:
            raise ExpressionError(f"{operator} takes at least two operands")
        self.operator = operator
        self.operands = tuple(operands)

    def bind(self, schema: Schema, functions=None) -> BoundExpression:
        bound = [operand.bind(schema, functions) for operand in self.operands]
        operator = self.operator

        if operator == "NOT":
            inner = bound[0]

            def evaluate_not(row: Sequence[Any]) -> Optional[bool]:
                value = inner(row)
                if value is None:
                    return None
                return not bool(value)

            return evaluate_not

        if operator == "AND":

            def evaluate_and(row: Sequence[Any]) -> Optional[bool]:
                saw_null = False
                for operand in bound:
                    value = operand(row)
                    if value is None:
                        saw_null = True
                    elif not value:
                        return False
                return None if saw_null else True

            return evaluate_and

        def evaluate_or(row: Sequence[Any]) -> Optional[bool]:
            saw_null = False
            for operand in bound:
                value = operand(row)
                if value is None:
                    saw_null = True
                elif value:
                    return True
            return None if saw_null else False

        return evaluate_or

    def columns(self) -> FrozenSet[str]:
        result: FrozenSet[str] = frozenset()
        for operand in self.operands:
            result |= operand.columns()
        return result

    def function_calls(self) -> List["FunctionCall"]:
        calls: List[FunctionCall] = []
        for operand in self.operands:
            calls.extend(operand.function_calls())
        return calls

    def children(self) -> Tuple[Expression, ...]:
        return self.operands

    def _key(self) -> Tuple:
        return (self.operator, self.operands)

    def __repr__(self) -> str:
        return f"BooleanOp({self.operator!r}, {list(self.operands)!r})"

    def __str__(self) -> str:
        if self.operator == "NOT":
            return f"NOT ({self.operands[0]})"
        joiner = f" {self.operator} "
        return "(" + joiner.join(str(operand) for operand in self.operands) + ")"


class FunctionCall(Expression):
    """A call to a named scalar function (built-in or UDF).

    The function body is *not* stored in the expression; it is resolved at
    bind time through the ``functions`` mapping.  This keeps expression trees
    serialisable and lets the same tree be evaluated on either site.
    """

    def __init__(self, name: str, arguments: Sequence[Expression]) -> None:
        self.name = name
        self.arguments = tuple(arguments)

    def bind(self, schema: Schema, functions=None) -> BoundExpression:
        functions = functions or {}
        resolved = functions.get(self.name) or functions.get(self.name.lower())
        if resolved is None:
            raise ExpressionError(
                f"function {self.name!r} is not available at this site; "
                f"known functions: {sorted(functions)}"
            )
        bound_args = [argument.bind(schema, functions) for argument in self.arguments]

        def evaluate(row: Sequence[Any]) -> Any:
            return resolved(*[argument(row) for argument in bound_args])

        return evaluate

    def columns(self) -> FrozenSet[str]:
        result: FrozenSet[str] = frozenset()
        for argument in self.arguments:
            result |= argument.columns()
        return result

    def function_calls(self) -> List["FunctionCall"]:
        calls = [self]
        for argument in self.arguments:
            calls.extend(argument.function_calls())
        return calls

    def children(self) -> Tuple[Expression, ...]:
        return self.arguments

    def argument_columns(self) -> FrozenSet[str]:
        """Columns referenced by the call's arguments (the UDF's argument columns)."""
        return self.columns()

    def _key(self) -> Tuple:
        return (self.name.lower(), self.arguments)

    def __repr__(self) -> str:
        return f"FunctionCall({self.name!r}, {list(self.arguments)!r})"

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(argument) for argument in self.arguments)})"


def conjuncts(expression: Optional[Expression]) -> List[Expression]:
    """Split an expression into its top-level AND conjuncts.

    ``None`` yields an empty list; non-AND expressions yield themselves.
    """
    if expression is None:
        return []
    if isinstance(expression, BooleanOp) and expression.operator == "AND":
        result: List[Expression] = []
        for operand in expression.operands:
            result.extend(conjuncts(operand))
        return result
    return [expression]


def conjoin(expressions: Sequence[Expression]) -> Optional[Expression]:
    """Combine expressions with AND; returns None for an empty sequence."""
    expressions = [e for e in expressions if e is not None]
    if not expressions:
        return None
    if len(expressions) == 1:
        return expressions[0]
    return BooleanOp("AND", expressions)
