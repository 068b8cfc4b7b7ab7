"""A new text of a bound template is served without lexing, parsing or binding.

``SqlSurface.statement`` splits each new text into the text between its
literals and the literals themselves (``split_literals``, one regular
expression).  When a remembered text of the same key was bound under the
same catalog and UDF registry generations, and the literals that bind to no
``Literal`` (``LIMIT``, ``OFFSET``, ``ORDER BY`` keys) are that text's
verbatim, the new text is that text's query holding its own literals
(``BoundQuery.with_literals``).  The tests bind one text, then another of the
same template, and hold what the surface gives for the second to what a
fresh ``Binder.bind_sql`` builds for it: every bound field, ``describe()``,
the template, the optimizer's decision and plan-tree digest, and the rows.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from plan_tree_digest import _build
from repro.core.optimizer import Optimizer
from repro.errors import BindError, LexerError
from repro.relational.types import FLOAT, INTEGER
from repro.sql.binder import Binder
from repro.sql.lexer import TokenType, literal_value, split_literals, tokenize
from test_optimizer_budget import counted_front_end
from test_template_memo import QUOTES, ROWS, open_database, quotes_rows, score


@pytest.fixture(scope="module")
def quotes_db(tmp_path_factory):
    """The ``Quotes`` table of ``test_template_memo``, paged, analyzed and
    indexed (hash on ``Id`` and ``Name``, B-tree on ``Price``)."""
    db = open_database(str(tmp_path_factory.mktemp("statement-templates")))
    db.create_table("Quotes", QUOTES, rows=quotes_rows(0, ROWS))
    db.analyze("Quotes")
    db.create_index("quotes_id", "Quotes", "Id", kind="hash")
    db.create_index("quotes_price", "Quotes", "Price", kind="btree")
    db.create_index("quotes_name", "Quotes", "Name", kind="hash")
    yield db
    db.close()


# ---------------------------------------------------------------------------
# The key
# ---------------------------------------------------------------------------

LEXER_CASES = [
    "SELECT Q1.Id, 5abc, .5, S.Change, 'it''s', 1.2.3, x.5 FROM T",
    "SELECT 1_000, a1.5, 5..5, '', '''', 'a''''b', Q2.x9 FROM T9",
    "SELECT T.A FROM T WHERE T.A >= 10 AND T.B <> 'x y' ORDER BY T.A LIMIT 4 OFFSET 2",
    "SELECT 'SELECT 5' FROM T WHERE f(T.A, 2.50) = 007",
]


@pytest.mark.parametrize("text", LEXER_CASES)
def test_the_split_finds_the_lexers_literals(text):
    tokens = tokenize(text)
    key, literals = split_literals(text)
    assert [literal_value(raw) for raw in literals] == [
        token.value if token.type is TokenType.STRING else literal_value(token.value)
        for token in tokens
        if token.type in (TokenType.NUMBER, TokenType.STRING)
    ]
    assert "".join(part if isinstance(part, str) else raw for part, raw in _interleave(key, literals)) == text


def _interleave(key: tuple, literals: List[str]):
    raws = iter(literals)
    for part in key:
        yield part, (next(raws) if isinstance(part, type) else None)


@given(st.text(alphabet="aQ1_5.' x=,()", max_size=24))
@settings(max_examples=300, deadline=None)
def test_the_split_agrees_with_the_lexer_on_any_text(text):
    """Wherever the lexer succeeds the split finds its NUMBER / STRING tokens;
    a text the split refuses is one the lexer refuses too."""
    split = split_literals(text)
    try:
        tokens = tokenize(text)
    except LexerError:
        return
    assert split is not None
    literals = [token for token in tokens if token.type in (TokenType.NUMBER, TokenType.STRING)]
    assert [literal_value(raw) for raw in split[1]] == [
        token.value if token.type is TokenType.STRING else literal_value(token.value)
        for token in literals
    ]


def test_a_text_the_split_cannot_vouch_for_has_no_key():
    assert split_literals("SELECT 'open FROM T") is None  # a quote opening no string
    assert split_literals("SELECT T.Ä FROM T") is None  # Unicode character classes
    assert split_literals("SELECT 5 FROM T")[0] != split_literals("SELECT 5.0 FROM T")[0]


# ---------------------------------------------------------------------------
# The differential: served against a fresh bind
# ---------------------------------------------------------------------------

_SELECT_ITEMS = [
    ("Q1.Price", ()),
    ("Q1.Name AS n2", ()),
    ("{} AS c1", ("number",)),
    ("{}x9", ("any",)),  # a literal and its alias, no space between them
    ("Q1.Price + {}", ("number",)),
    ("Score(Q1.Price) AS s1", ()),
]
_CONJUNCTS = [
    ("Q1.Id = {}", ("int",)),
    ("Q1.Price >= {}", ("number",)),
    ("Q1.Name = {}", ("str",)),
    ("Score(Q1.Price) > {}", ("number",)),
    ("NOT (Q1.Price < {})", ("number",)),
    ("(Q1.Id < {} OR Q1.Name <> {})", ("int", "str")),
]


def _render(kind: str, value) -> str:
    if kind == "str":
        return "'" + value.replace("'", "''") + "'"
    return f"{value:.2f}" if kind == "float" else str(value)


_VALUES = {
    "int": st.integers(0, ROWS + 10),
    "float": st.floats(0.0, ROWS * 0.5 + 5.0, allow_nan=False),
    "str": st.sampled_from(["name03", "name17", "it's", "", "''", "nobody"]),
}


@st.composite
def _cases(draw) -> Dict[str, object]:
    """A template (SQL with ``{}`` per literal), each literal's kind and
    whether it binds to no ``Literal``, two sets of values and the change
    made between the two binds."""
    pieces: List[str] = ["Q1.Id"]
    kinds: List[str] = []
    fixed: List[bool] = []
    copies: Dict[int, int] = {}  # a fixed literal -> the slot whose first value it repeats

    def add(text: str, wanted: Tuple[str, ...], is_fixed: bool = False) -> str:
        for want in wanted:
            if want == "any":
                want = draw(st.sampled_from(["int", "float", "str"]))
            elif want == "number":
                want = draw(st.sampled_from(["int", "float"]))
            kinds.append(want)
            fixed.append(is_fixed)
        return text

    for index in draw(st.lists(st.integers(0, len(_SELECT_ITEMS) - 1), unique=True, max_size=3)):
        pieces.append(add(*_SELECT_ITEMS[index]))
    order = draw(st.sampled_from([None, "Q1.Id", "Q1.Id DESC", "output holding a literal"]))
    if order == "output holding a literal":
        pieces.append(add("Q1.Price * {} AS w3", ("number",)))
        source = len(kinds) - 1
    sql = "SELECT " + ", ".join(pieces) + " FROM Quotes Q1"
    conjuncts = draw(st.lists(st.integers(0, len(_CONJUNCTS) - 1), unique=True, max_size=3))
    if conjuncts:
        sql += " WHERE " + " AND ".join(add(*_CONJUNCTS[index]) for index in conjuncts)
    if order == "output holding a literal":
        sql += " ORDER BY " + add("Q1.Price * {}", (kinds[source],), is_fixed=True)
        copies[len(kinds) - 1] = source
    elif order is not None:
        sql += f" ORDER BY {order}"
    if order is not None:
        limit = draw(st.sampled_from(["", " LIMIT {}", " LIMIT {} OFFSET {}"]))
        sql += add(limit, ("int",) * limit.count("{}"), is_fixed=True)
    first = [draw(_VALUES[kind]) for kind in kinds]
    for target, source in copies.items():
        first[target] = first[source]
    second = [value if draw(st.booleans()) else draw(_VALUES[kind]) for kind, value in zip(kinds, first)]
    return {
        "sql": sql,
        "kinds": kinds,
        "fixed": fixed,
        "first": first,
        "second": second,
        "ordered_by_literal": bool(copies),
        "change": draw(st.sampled_from(["none", "none", "udf", "ddl"])),
    }


def _text(case: Dict[str, object], values: list) -> str:
    return case["sql"].format(*(_render(kind, value) for kind, value in zip(case["kinds"], values)))


def _reregister(db) -> None:
    definition = db.udfs.get("Score")
    db.register_client_udf(
        "Score",
        score,
        result_dtype=FLOAT,
        result_size_bytes=8,
        cost_per_call_seconds=0.0005,
        selectivity=0.25 if definition.selectivity == 0.5 else 0.5,
        replace=True,
    )


CHANGES = {
    "none": lambda db: None,
    "udf": _reregister,
    "ddl": lambda db: db.create_table("Scratch", [("K", INTEGER)], rows=[(1,)], replace=True),
}


def fields(bound) -> tuple:
    """Everything a bound query holds, a literal's type included."""
    return (
        bound.sql,
        bound.describe(),
        bound.template,
        [(table.table, table.alias, str(table.schema)) for table in bound.tables],
        [(output.name, repr(output.expression), output.dtype) for output in bound.outputs],
        [(repr(p.expression), p.columns, p.udf_names) for p in bound.predicates],
        [
            (call.udf, repr(call.call), call.argument_columns, call.used_in_predicate, call.used_in_output)
            for call in bound.client_udf_calls
        ],
        str(bound.combined_schema),
        bound.distinct,
        bound.order_by,
        bound.limit,
        bound.offset,
    )


def planned(db, bound) -> tuple:
    decision = Optimizer(db.network, settings=db.cost_settings).optimize(bound)
    return decision.describe(), _build(db, bound, decision)["digest"]


def _forget(db) -> None:
    for memo in (db._statements, db._template_texts, db._decisions, db._templates):
        memo.clear()


@example(
    {
        "sql": "SELECT Q1.Id, {}x9 FROM Quotes Q1 WHERE Q1.Name = {} AND Score(Q1.Price) > {}",
        "kinds": ["str", "str", "float"],
        "fixed": [False, False, False],
        "first": ["it's", "name03", 20.5],
        "second": ["''", "name17", 300.25],
        "ordered_by_literal": False,
        "change": "none",
    }
)
@example(
    {
        "sql": "SELECT Q1.Id, Q1.Price * {} AS w3 FROM Quotes Q1 ORDER BY Q1.Price * {} LIMIT {}",
        "kinds": ["int", "int", "int"],
        "fixed": [False, True, True],
        "first": [2, 2, 5],
        "second": [3, 2, 5],  # the key names no output now: a fresh bind refuses it
        "ordered_by_literal": True,
        "change": "none",
    }
)
@example(
    {
        "sql": "SELECT Q1.Id, {} AS c1 FROM Quotes Q1 WHERE Q1.Id = {} ORDER BY Q1.Id LIMIT {} OFFSET {}",
        "kinds": ["float", "int", "int", "int"],
        "fixed": [False, False, True, True],
        "first": [1.5, 7, 3, 0],
        "second": [2.25, 9, 3, 1],  # another OFFSET: bound afresh
        "ordered_by_literal": False,
        "change": "none",
    }
)
@example(
    {
        "sql": "SELECT Q1.Id, Q1.Price + {} FROM Quotes Q1 WHERE Q1.Price >= {}",
        "kinds": ["int", "float"],
        "fixed": [False, False],
        "first": [1, 10.0],
        "second": [4, 250.5],
        "ordered_by_literal": False,
        "change": "udf",
    }
)
@given(_cases())
@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
def test_a_served_text_is_what_a_fresh_bind_builds(quotes_db, case):
    db = quotes_db
    first, second = _text(case, case["first"]), _text(case, case["second"])
    _forget(db)
    db.bind(first)
    CHANGES[case["change"]](db)
    with counted_front_end() as counts:
        try:
            served = db.bind(second)
        except BindError as error:
            served = error
    try:
        fresh = Binder(db.catalog, db.udfs).bind_sql(second)
    except BindError as error:
        assert type(served) is BindError and str(served) == str(error)
        return
    same_fixed = all(
        _render(kind, one) == _render(kind, other)
        for kind, is_fixed, one, other in zip(case["kinds"], case["fixed"], case["first"], case["second"])
        if is_fixed
    )
    served_by_template = not case["ordered_by_literal"] and same_fixed
    expected_hit = case["change"] == "none" and (second == first or served_by_template)
    assert (counts["parse"], counts["bind_sql"]) == ((0, 0) if expected_hit else (1, 1))
    assert served == fresh and fields(served) == fields(fresh)
    assert planned(db, served) == planned(db, fresh)
    ran = db.execute(second, optimize=True, deliver_results=True).rows
    expected = db.execute(fresh, optimize=True, deliver_results=True).rows
    assert ran == expected if "ORDER BY" in case["sql"] else sorted(ran) == sorted(expected)


def test_a_served_query_shares_only_what_holds_no_literal(quotes_db):
    db = quotes_db
    _forget(db)
    held = db.bind("SELECT Q1.Id, Score(Q1.Price) FROM Quotes Q1 WHERE Q1.Id = 5 AND Score(Q1.Price) > 3")
    served = db.bind("SELECT Q1.Id, Score(Q1.Price) FROM Quotes Q1 WHERE Q1.Id = 6 AND Score(Q1.Price) > 4")
    assert served is not held and served.template is held.template
    assert served.client_udf_calls is held.client_udf_calls
    assert served.outputs[1].expression is held.outputs[1].expression  # Score(Q1.Price): no literal
    for mine, theirs in zip(served.predicates, held.predicates):
        assert mine is not theirs and mine.expression is not theirs.expression
    assert served.predicates[1].expression.left is held.predicates[1].expression.left
    assert [re.sub(r"\d", "#", str(p)) for p in served.predicates] == [
        re.sub(r"\d", "#", str(p)) for p in held.predicates
    ]


def test_the_template_memo_holds_its_bound(quotes_db):
    from repro.server.engine import STATEMENT_MEMO_BOUND

    db = quotes_db
    _forget(db)
    for index in range(3 * STATEMENT_MEMO_BOUND):
        db.bind(f"SELECT Q{index}.Id FROM Quotes Q{index} WHERE Q{index}.Id = {index}")
    assert len(db._template_texts) == STATEMENT_MEMO_BOUND == len(db._statements)
