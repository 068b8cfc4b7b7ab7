"""Recursive-descent parser for the supported SQL subset.

Grammar (informally)::

    statement := select | create_index | drop_index
    create_index := CREATE INDEX name ON table '(' column ')' [USING (BTREE | HASH)]
    drop_index := DROP INDEX name
    select    := SELECT [DISTINCT] items FROM tables [WHERE or_expr]
                 [ORDER BY order_items] [LIMIT number [OFFSET number]]
    items     := item (',' item)*
    item      := '*' | expr [AS identifier | identifier]
    tables    := table (',' table)*
    table     := identifier [AS identifier | identifier]
    or_expr   := and_expr (OR and_expr)*
    and_expr  := not_expr (AND not_expr)*
    not_expr  := NOT not_expr | comparison
    comparison:= additive [('=' | '<>' | '!=' | '<' | '<=' | '>' | '>=') additive]
    additive  := multiplicative (('+' | '-') multiplicative)*
    multiplicative := primary (('*' | '/') primary)*
    primary   := number | string | TRUE | FALSE | NULL | '(' or_expr ')'
               | identifier '(' [or_expr (',' or_expr)*] ')'      (function call)
               | identifier ['.' (identifier | '*')]              (column / star)
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.errors import ParseError
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
    OrderItem,
    SelectItem,
    SelectStatement,
    TableReference,
)
from repro.sql.lexer import Token, TokenType, literal_value, tokenize

#: Any parsed statement.
Statement = Union[SelectStatement, CreateIndexStatement, DropIndexStatement]

_COMPARISON_OPERATORS = {"=", "<>", "!=", "<", "<=", ">", ">="}


class Parser:
    """A recursive-descent parser over the lexer's token stream."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens: List[Token] = tokenize(text)
        self.index = 0
        #: token index -> the Python type of the literal it parsed to, for
        #: every NUMBER / STRING token that became an :class:`AstLiteral`.
        self.slots: Dict[int, type] = {}

    # -- token helpers --------------------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.current
        if token.type is not TokenType.END:
            self.index += 1
        return token

    def expect(self, token_type: TokenType, value: Optional[str] = None) -> Token:
        token = self.current
        if token.type is not token_type or (value is not None and token.value != value):
            expected = value or token_type.value
            raise ParseError(
                f"expected {expected!r} but found {token.value or 'end of input'!r} "
                f"at offset {token.position}"
            )
        return self.advance()

    def accept_keyword(self, keyword: str) -> bool:
        if self.current.matches_keyword(keyword):
            self.advance()
            return True
        return False

    def expect_keyword(self, keyword: str) -> None:
        if not self.accept_keyword(keyword):
            raise ParseError(
                f"expected keyword {keyword!r} but found {self.current.value or 'end of input'!r} "
                f"at offset {self.current.position}"
            )

    # -- entry point -----------------------------------------------------------------

    def parse(self) -> Statement:
        # CREATE / DROP / INDEX / ON / USING are deliberately *not* lexer
        # keywords (they stay usable as identifiers in queries), so index DDL
        # dispatches on the leading identifier instead.
        if self._at_word("CREATE"):
            statement: Statement = self._create_index()
        elif self._at_word("DROP"):
            statement = self._drop_index()
        else:
            statement = self._select()
        if self.current.type is not TokenType.END:
            raise ParseError(
                f"unexpected trailing input {self.current.value!r} at offset {self.current.position}"
            )
        if isinstance(statement, SelectStatement):
            statement.template = self.template()
        return statement

    def template(self) -> Tuple[object, ...]:
        """The statement without its literal values: every token's text, and
        each literal that binds to a ``Literal`` as its Python type instead.

        Two texts with one template bind to queries of one shape whose
        literals differ only in value (``LIMIT`` / ``OFFSET`` counts and
        ``ORDER BY`` keys stay verbatim: they bind to no ``Literal``)."""
        slots = self.slots
        return tuple([slots.get(index, token.value) for index, token in enumerate(self.tokens)])

    # -- index DDL ----------------------------------------------------------------------

    def _at_word(self, word: str) -> bool:
        token = self.current
        return token.type is TokenType.IDENTIFIER and token.value.upper() == word

    def _expect_word(self, word: str) -> str:
        if not self._at_word(word):
            raise ParseError(
                f"expected {word!r} but found {self.current.value or 'end of input'!r} "
                f"at offset {self.current.position}"
            )
        return self.advance().value

    def _create_index(self) -> CreateIndexStatement:
        self._expect_word("CREATE")
        self._expect_word("INDEX")
        name = self.expect(TokenType.IDENTIFIER).value
        self._expect_word("ON")
        table = self.expect(TokenType.IDENTIFIER).value
        self.expect(TokenType.LPAREN)
        column = self.expect(TokenType.IDENTIFIER).value
        self.expect(TokenType.RPAREN)
        kind = "btree"
        if self._at_word("USING"):
            self.advance()
            kind = self.expect(TokenType.IDENTIFIER).value.lower()
            if kind not in ("btree", "hash"):
                raise ParseError(f"unknown index kind {kind!r} (expected BTREE or HASH)")
        return CreateIndexStatement(name=name, table=table, column=column, kind=kind)

    def _drop_index(self) -> DropIndexStatement:
        self._expect_word("DROP")
        self._expect_word("INDEX")
        name = self.expect(TokenType.IDENTIFIER).value
        return DropIndexStatement(name=name)

    # -- productions -------------------------------------------------------------------

    def _select(self) -> SelectStatement:
        self.expect_keyword("SELECT")
        statement = SelectStatement()
        statement.distinct = self.accept_keyword("DISTINCT")
        statement.items = self._select_items()
        self.expect_keyword("FROM")
        statement.tables = self._table_references()
        if self.accept_keyword("WHERE"):
            statement.where = self._or_expression()
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            # A key only names an output, so its literals stay in the template.
            slots = dict(self.slots)
            statement.order_by = self._order_items()
            self.slots = slots
        if self.accept_keyword("LIMIT"):
            statement.limit = self._count()
            if self.accept_keyword("OFFSET"):
                statement.offset = self._count()
        return statement

    def _count(self) -> int:
        """A ``LIMIT`` / ``OFFSET`` count: an integer literal."""
        token = self.expect(TokenType.NUMBER)
        try:
            return int(token.value)
        except ValueError:
            raise ParseError(
                f"expected an integer count but found {token.value!r} at offset {token.position}"
            ) from None

    def _select_items(self) -> List[SelectItem]:
        items = [self._select_item()]
        while self.current.type is TokenType.COMMA:
            self.advance()
            items.append(self._select_item())
        return items

    def _select_item(self) -> SelectItem:
        if self.current.type is TokenType.STAR:
            self.advance()
            return SelectItem(AstStar())
        expression = self._or_expression()
        alias: Optional[str] = None
        if self.accept_keyword("AS"):
            alias = self.expect(TokenType.IDENTIFIER).value
        elif self.current.type is TokenType.IDENTIFIER:
            alias = self.advance().value
        return SelectItem(expression, alias)

    def _table_references(self) -> List[TableReference]:
        tables = [self._table_reference()]
        while self.current.type is TokenType.COMMA:
            self.advance()
            tables.append(self._table_reference())
        return tables

    def _table_reference(self) -> TableReference:
        name = self.expect(TokenType.IDENTIFIER).value
        alias: Optional[str] = None
        if self.accept_keyword("AS"):
            alias = self.expect(TokenType.IDENTIFIER).value
        elif self.current.type is TokenType.IDENTIFIER:
            alias = self.advance().value
        return TableReference(name, alias)

    def _order_items(self) -> List[OrderItem]:
        items = [self._order_item()]
        while self.current.type is TokenType.COMMA:
            self.advance()
            items.append(self._order_item())
        return items

    def _order_item(self) -> OrderItem:
        expression = self._or_expression()
        descending = False
        if self.accept_keyword("DESC"):
            descending = True
        else:
            self.accept_keyword("ASC")
        return OrderItem(expression, descending)

    # -- expressions ----------------------------------------------------------------------

    def _or_expression(self) -> AstExpression:
        left = self._and_expression()
        while self.current.matches_keyword("OR"):
            self.advance()
            right = self._and_expression()
            left = AstBinaryOp("OR", left, right)
        return left

    def _and_expression(self) -> AstExpression:
        left = self._not_expression()
        while self.current.matches_keyword("AND"):
            self.advance()
            right = self._not_expression()
            left = AstBinaryOp("AND", left, right)
        return left

    def _not_expression(self) -> AstExpression:
        if self.current.matches_keyword("NOT"):
            self.advance()
            return AstUnaryOp("NOT", self._not_expression())
        return self._comparison()

    def _comparison(self) -> AstExpression:
        left = self._additive()
        if self.current.type is TokenType.OPERATOR and self.current.value in _COMPARISON_OPERATORS:
            operator = self.advance().value
            right = self._additive()
            return AstBinaryOp(operator, left, right)
        return left

    def _additive(self) -> AstExpression:
        left = self._multiplicative()
        while self.current.type is TokenType.OPERATOR and self.current.value in ("+", "-"):
            operator = self.advance().value
            right = self._multiplicative()
            left = AstBinaryOp(operator, left, right)
        return left

    def _multiplicative(self) -> AstExpression:
        left = self._primary()
        while True:
            if self.current.type is TokenType.STAR:
                operator = "*"
                self.advance()
            elif self.current.type is TokenType.OPERATOR and self.current.value == "/":
                operator = "/"
                self.advance()
            else:
                break
            right = self._primary()
            left = AstBinaryOp(operator, left, right)
        return left

    def _primary(self) -> AstExpression:
        token = self.current
        if token.type is TokenType.NUMBER:
            value = literal_value(token.value)
            self.slots[self.index] = type(value)
            self.advance()
            return AstLiteral(value)
        if token.type is TokenType.STRING:
            self.slots[self.index] = str
            self.advance()
            return AstLiteral(token.value)
        if token.matches_keyword("TRUE"):
            self.advance()
            return AstLiteral(True)
        if token.matches_keyword("FALSE"):
            self.advance()
            return AstLiteral(False)
        if token.matches_keyword("NULL"):
            self.advance()
            return AstLiteral(None)
        if token.type is TokenType.LPAREN:
            self.advance()
            expression = self._or_expression()
            self.expect(TokenType.RPAREN)
            return expression
        if token.type is TokenType.IDENTIFIER:
            return self._identifier_expression()
        raise ParseError(
            f"unexpected token {token.value or 'end of input'!r} at offset {token.position}"
        )

    def _identifier_expression(self) -> AstExpression:
        name = self.expect(TokenType.IDENTIFIER).value
        if self.current.type is TokenType.LPAREN:
            self.advance()
            arguments: List[AstExpression] = []
            if self.current.type is not TokenType.RPAREN:
                arguments.append(self._or_expression())
                while self.current.type is TokenType.COMMA:
                    self.advance()
                    arguments.append(self._or_expression())
            self.expect(TokenType.RPAREN)
            return AstFunctionCall(name, tuple(arguments))
        if self.current.type is TokenType.DOT:
            self.advance()
            if self.current.type is TokenType.STAR:
                self.advance()
                return AstStar(table=name)
            column = self.expect(TokenType.IDENTIFIER).value
            return AstColumn(column, table=name)
        return AstColumn(name)


def parse(text: str) -> Statement:
    """Parse ``text`` into a statement (SELECT, CREATE INDEX, or DROP INDEX)."""
    return Parser(text).parse()
