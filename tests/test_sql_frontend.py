"""Tests for the SQL lexer, parser and binder."""

import pytest

from repro.errors import BindError, LexerError, ParseError
from repro.client.registry import UdfRegistry
from repro.client.udf import UdfSite
from repro.relational.catalog import Catalog
from repro.relational.expressions import Comparison, FunctionCall
from repro.relational.schema import Schema
from repro.relational.table import Table
from repro.relational.types import FLOAT, INTEGER, STRING, TIME_SERIES, TimeSeries
from repro.sql.ast import AstBinaryOp, AstColumn, AstFunctionCall, AstLiteral, AstStar
from repro.sql.binder import Binder
from repro.sql.lexer import TokenType, tokenize
from repro.sql.parser import parse


class TestLexer:
    def test_tokenizes_keywords_identifiers_numbers(self):
        tokens = tokenize("SELECT a, b2 FROM t WHERE a > 1.5")
        kinds = [token.type for token in tokens]
        assert kinds[0] is TokenType.KEYWORD
        assert TokenType.NUMBER in kinds
        assert kinds[-1] is TokenType.END

    def test_strings_with_escaped_quotes(self):
        tokens = tokenize("SELECT 'it''s' FROM t")
        strings = [t for t in tokens if t.type is TokenType.STRING]
        assert strings[0].value == "it's"

    def test_qualified_names_lex_as_identifier_dot_identifier(self):
        tokens = tokenize("S.Change")
        assert [t.type for t in tokens[:3]] == [TokenType.IDENTIFIER, TokenType.DOT, TokenType.IDENTIFIER]

    def test_two_character_operators(self):
        tokens = tokenize("a <= b <> c >= d")
        operators = [t.value for t in tokens if t.type is TokenType.OPERATOR]
        assert operators == ["<=", "<>", ">="]

    def test_unterminated_string_and_bad_character(self):
        with pytest.raises(LexerError):
            tokenize("SELECT 'oops FROM t")
        with pytest.raises(LexerError):
            tokenize("SELECT a ; b")


class TestParser:
    def test_paper_figure1_query(self):
        statement = parse(
            "SELECT S.Name, S.Report FROM StockQuotes S "
            "WHERE S.Change / S.Close > 0.2 AND ClientAnalysis(S.Quotes) > 500"
        )
        assert len(statement.items) == 2
        assert statement.tables[0].name == "StockQuotes"
        assert statement.tables[0].alias == "S"
        where = statement.where
        assert isinstance(where, AstBinaryOp) and where.operator == "AND"
        udf_side = where.right
        assert isinstance(udf_side, AstBinaryOp)
        assert isinstance(udf_side.left, AstFunctionCall)
        assert udf_side.left.name == "ClientAnalysis"

    def test_paper_figure11_query(self):
        statement = parse(
            "SELECT S.Name, E.BrokerName FROM StockQuotes S, Estimations E "
            "WHERE S.Name = E.CompanyName AND ClientAnalysis(S.Quotes) = E.Rating"
        )
        assert [table.alias for table in statement.tables] == ["S", "E"]

    def test_select_star_and_aliases(self):
        statement = parse("SELECT *, S.* , price AS p FROM Stocks S LIMIT 5 OFFSET 2")
        assert isinstance(statement.items[0].expression, AstStar)
        assert statement.items[1].expression.table == "S"
        assert statement.items[2].alias == "p"
        assert statement.limit == 5 and statement.offset == 2

    def test_distinct_and_order_by(self):
        statement = parse("SELECT DISTINCT a FROM t ORDER BY a DESC")
        assert statement.distinct
        assert statement.order_by[0].descending

    def test_operator_precedence(self):
        statement = parse("SELECT a FROM t WHERE a + 1 * 2 > 3 OR b = 1 AND c = 2")
        where = statement.where
        assert where.operator == "OR"
        assert where.right.operator == "AND"
        left = where.left
        assert left.operator == ">"
        assert left.left.operator == "+"
        assert left.left.right.operator == "*"

    def test_parenthesised_expressions_and_not(self):
        statement = parse("SELECT a FROM t WHERE NOT (a = 1 OR b = 2)")
        assert statement.where.operator == "NOT"

    def test_function_calls_with_multiple_arguments(self):
        statement = parse("SELECT Volatility(S.Quotes, S.FuturePrices) FROM S")
        call = statement.items[0].expression
        assert isinstance(call, AstFunctionCall)
        assert len(call.arguments) == 2

    def test_literals(self):
        statement = parse("SELECT a FROM t WHERE a = 'x' AND b = 2.5 AND c = TRUE AND d = NULL")
        text = str(statement)
        assert "'x'" in text and "2.5" in text

    @pytest.mark.parametrize(
        "bad",
        [
            "SELECT FROM t",
            "SELECT a",
            "SELECT a FROM",
            "SELECT a FROM t WHERE",
            "SELECT a FROM t extra junk +",
            "SELECT a FROM t LIMIT x",
        ],
    )
    def test_parse_errors(self, bad):
        with pytest.raises(ParseError):
            parse(bad)

    @pytest.mark.parametrize(
        "text, offset",
        [("SELECT T.Id FROM T LIMIT 2.5", 25), ("SELECT T.Id FROM T LIMIT 2 OFFSET 1.5", 34)],
    )
    def test_a_non_integer_count_is_a_parse_error(self, text, offset):
        """``LIMIT`` / ``OFFSET`` take an integer literal: a fraction is a
        ``ParseError`` at the token's offset, from ``parse`` and from
        ``Database.execute`` alike, also once an integer text of the same
        shape was served."""
        from repro.server.engine import Database

        with pytest.raises(ParseError, match=f"expected an integer count .* at offset {offset}$"):
            parse(text)
        db = Database()
        db.create_table("T", [("Id", INTEGER)], rows=[[index] for index in range(5)])
        assert db.execute("SELECT T.Id FROM T LIMIT 2 OFFSET 1").rows == [(1,), (2,)]
        with pytest.raises(ParseError, match=f"at offset {offset}$"):
            db.execute(text)


@pytest.fixture
def binder():
    catalog = Catalog()
    catalog.register(
        Table(
            "StockQuotes",
            Schema.of(("Name", STRING), ("Quotes", TIME_SERIES), ("Close", FLOAT)),
            rows=[["A", TimeSeries([1.0, 2.0]), 10.0], ["B", TimeSeries([2.0, 3.0]), 20.0]],
        )
    )
    catalog.register(
        Table(
            "Estimations",
            Schema.of(("CompanyName", STRING), ("Rating", INTEGER)),
            rows=[["A", 3], ["B", 4]],
        )
    )
    udfs = UdfRegistry()
    udfs.register_function("ClientAnalysis", lambda q: sum(q), site=UdfSite.CLIENT, selectivity=0.3)
    udfs.register_function("Round2", lambda x: round(x, 2), site=UdfSite.SERVER)
    return Binder(catalog, udfs)


class TestBinder:
    def test_binds_columns_and_tables(self, binder):
        query = binder.bind_sql("SELECT S.Name, S.Close FROM StockQuotes S WHERE S.Close > 15")
        assert [table.alias for table in query.tables] == ["S"]
        assert query.output_column_names() == ["Name", "Close"]
        assert len(query.predicates) == 1

    def test_star_expansion(self, binder):
        query = binder.bind_sql("SELECT * FROM StockQuotes S, Estimations E")
        assert len(query.outputs) == 5

    def test_client_udf_calls_discovered_with_argument_columns(self, binder):
        query = binder.bind_sql(
            "SELECT S.Name FROM StockQuotes S WHERE ClientAnalysis(S.Quotes) > 500"
        )
        assert len(query.client_udf_calls) == 1
        call = query.client_udf_calls[0]
        assert call.udf.name == "ClientAnalysis"
        assert call.argument_columns == ("S.Quotes",)
        assert call.used_in_predicate and not call.used_in_output

    def test_same_call_in_output_and_predicate_is_single_entry(self, binder):
        query = binder.bind_sql(
            "SELECT ClientAnalysis(S.Quotes) FROM StockQuotes S WHERE ClientAnalysis(S.Quotes) > 1"
        )
        assert len(query.client_udf_calls) == 1
        call = query.client_udf_calls[0]
        assert call.used_in_predicate and call.used_in_output

    def test_server_udf_not_listed_as_client_call(self, binder):
        query = binder.bind_sql("SELECT Round2(S.Close) FROM StockQuotes S")
        assert query.client_udf_calls == []

    def test_join_and_single_table_predicate_classification(self, binder):
        query = binder.bind_sql(
            "SELECT S.Name FROM StockQuotes S, Estimations E "
            "WHERE S.Name = E.CompanyName AND S.Close > 15 AND ClientAnalysis(S.Quotes) = E.Rating"
        )
        assert len(query.join_predicates()) == 1
        assert len(query.single_table_predicates("S")) == 1
        assert len(query.udf_predicates()) == 1

    def test_udf_selectivity_used_for_predicates(self, binder):
        query = binder.bind_sql(
            "SELECT S.Name FROM StockQuotes S WHERE ClientAnalysis(S.Quotes) > 500"
        )
        estimates = query.declared_selectivities([bound.table.statistics for bound in query.tables])
        assert estimates[id(query.predicates[0])] == pytest.approx(0.3)

    @pytest.mark.parametrize(
        "bad",
        [
            "SELECT S.Name FROM Missing S",
            "SELECT S.Oops FROM StockQuotes S",
            "SELECT Unknown(S.Quotes) FROM StockQuotes S",
            "SELECT S.Name FROM StockQuotes S, StockQuotes S",
            "SELECT ClientAnalysis(S.Quotes + 1) FROM StockQuotes S",
        ],
    )
    def test_bind_errors(self, binder, bad):
        with pytest.raises(BindError):
            binder.bind_sql(bad)

    def test_describe_mentions_udfs(self, binder):
        query = binder.bind_sql(
            "SELECT S.Name FROM StockQuotes S WHERE ClientAnalysis(S.Quotes) > 500"
        )
        assert "ClientAnalysis" in query.describe()
