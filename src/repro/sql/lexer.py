"""SQL lexer."""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple, Union

from repro.errors import LexerError

KEYWORDS = {
    "SELECT",
    "FROM",
    "WHERE",
    "AND",
    "OR",
    "NOT",
    "AS",
    "LIMIT",
    "OFFSET",
    "DISTINCT",
    "ORDER",
    "BY",
    "ASC",
    "DESC",
    "TRUE",
    "FALSE",
    "NULL",
}


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    COMMA = "comma"
    DOT = "dot"
    LPAREN = "lparen"
    RPAREN = "rparen"
    STAR = "star"
    END = "end"


@dataclass(frozen=True)
class Token:
    type: TokenType
    value: str
    position: int

    def matches_keyword(self, keyword: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value == keyword.upper()

    def __str__(self) -> str:
        return f"{self.type.value}:{self.value}"


_OPERATOR_CHARS = set("=<>!+-/*")
_TWO_CHAR_OPERATORS = {"<=", ">=", "<>", "!="}


class Lexer:
    """Turns SQL text into a list of tokens."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.position = 0

    def tokens(self) -> List[Token]:
        return list(self._scan())

    def _scan(self) -> Iterator[Token]:
        text = self.text
        length = len(text)
        while self.position < length:
            char = text[self.position]
            if char.isspace():
                self.position += 1
                continue
            if char.isalpha() or char == "_":
                yield self._identifier()
                continue
            if char.isdigit() or (
                char == "." and self.position + 1 < length and text[self.position + 1].isdigit()
            ):
                yield self._number()
                continue
            if char == "'":
                yield self._string()
                continue
            if char == ",":
                yield Token(TokenType.COMMA, ",", self.position)
                self.position += 1
                continue
            if char == ".":
                yield Token(TokenType.DOT, ".", self.position)
                self.position += 1
                continue
            if char == "(":
                yield Token(TokenType.LPAREN, "(", self.position)
                self.position += 1
                continue
            if char == ")":
                yield Token(TokenType.RPAREN, ")", self.position)
                self.position += 1
                continue
            if char == "*":
                yield Token(TokenType.STAR, "*", self.position)
                self.position += 1
                continue
            if char in _OPERATOR_CHARS:
                yield self._operator()
                continue
            raise LexerError(f"unexpected character {char!r}", self.position)
        yield Token(TokenType.END, "", self.position)

    def _identifier(self) -> Token:
        start = self.position
        text = self.text
        while self.position < len(text) and (text[self.position].isalnum() or text[self.position] == "_"):
            self.position += 1
        word = text[start : self.position]
        if word.upper() in KEYWORDS:
            return Token(TokenType.KEYWORD, word.upper(), start)
        return Token(TokenType.IDENTIFIER, word, start)

    def _number(self) -> Token:
        start = self.position
        text = self.text
        seen_dot = False
        while self.position < len(text):
            char = text[self.position]
            if char.isdigit():
                self.position += 1
            elif char == "." and not seen_dot:
                # Only treat the dot as part of the number when followed by a
                # digit; ``S.Change`` must lex as identifier-dot-identifier.
                if self.position + 1 < len(text) and text[self.position + 1].isdigit():
                    seen_dot = True
                    self.position += 1
                else:
                    break
            else:
                break
        return Token(TokenType.NUMBER, text[start : self.position], start)

    def _string(self) -> Token:
        start = self.position
        text = self.text
        self.position += 1  # opening quote
        characters: List[str] = []
        while self.position < len(text):
            char = text[self.position]
            if char == "'":
                if self.position + 1 < len(text) and text[self.position + 1] == "'":
                    characters.append("'")
                    self.position += 2
                    continue
                self.position += 1
                return Token(TokenType.STRING, "".join(characters), start)
            characters.append(char)
            self.position += 1
        raise LexerError("unterminated string literal", start)

    def _operator(self) -> Token:
        start = self.position
        text = self.text
        if text[start : start + 2] in _TWO_CHAR_OPERATORS:
            self.position += 2
            return Token(TokenType.OPERATOR, text[start : start + 2], start)
        self.position += 1
        return Token(TokenType.OPERATOR, text[start], start)


def tokenize(text: str) -> List[Token]:
    """Convenience wrapper returning the token list for ``text``."""
    return Lexer(text).tokens()


#: A NUMBER or STRING token where the lexer starts one: a string runs to a
#: quote no second quote follows (``''`` is an escaped one), a number starts
#: at a digit no identifier character precedes (``Q1``, ``5abc``) or at a dot
#: a digit follows (``.5``, but ``S.Change``), and takes one fraction.
_LITERAL = re.compile(r"('(?:[^']|'')*'(?!')|(?<![A-Za-z0-9_])[0-9]+(?:\.[0-9]+)?|\.[0-9]+)")


def split_literals(text: str) -> Optional[Tuple[Tuple[object, ...], List[str]]]:
    """``text`` as its literal-free key and the text of each NUMBER / STRING
    token, in order, without lexing it.

    The key is the text between the literals, verbatim, with each literal's
    Python type where it stood: two texts of one key lex to the same tokens
    but for those literals' values.  None when the text is not ASCII (the
    lexer's character classes are Unicode's) or a quote opens no string.
    """
    if not text.isascii():
        return None
    parts: List[object] = _LITERAL.split(text)
    literals = parts[1::2]
    if any("'" in segment for segment in parts[0::2]):
        return None
    for index, raw in enumerate(literals):
        parts[2 * index + 1] = str if raw[0] == "'" else float if "." in raw else int
    return tuple(parts), literals


def literal_value(raw: str) -> Union[int, float, str]:
    """The value of a NUMBER or STRING token's text, as the parser reads it."""
    if raw[0] == "'":
        return raw[1:-1].replace("''", "'")
    return float(raw) if "." in raw else int(raw)
