"""A small SQL front end.

Covers the subset the paper's queries need: ``SELECT`` lists with expressions
and UDF calls, ``FROM`` lists with aliases, ``WHERE`` clauses with ``AND`` /
``OR`` / ``NOT``, comparisons, arithmetic and UDF calls, ``ORDER BY`` and
``LIMIT``; plus ``CREATE INDEX`` / ``DROP INDEX``.  Lexer → parser → binder run
in one call, :meth:`Binder.bind_sql`; a bound query is what planners consume.
"""

from repro.sql.lexer import Lexer, Token, TokenType, tokenize
from repro.sql.ast import (
    SelectStatement,
    SelectItem,
    TableReference,
    AstExpression,
    AstColumn,
    AstLiteral,
    AstFunctionCall,
    AstBinaryOp,
    AstUnaryOp,
)
from repro.sql.parser import Parser, parse
from repro.sql.binder import Binder
from repro.sql.logical import BoundQuery, BoundTable, OutputColumn

__all__ = [
    "Lexer",
    "Token",
    "TokenType",
    "tokenize",
    "SelectStatement",
    "SelectItem",
    "TableReference",
    "AstExpression",
    "AstColumn",
    "AstLiteral",
    "AstFunctionCall",
    "AstBinaryOp",
    "AstUnaryOp",
    "Parser",
    "parse",
    "Binder",
    "BoundQuery",
    "BoundTable",
    "OutputColumn",
]
