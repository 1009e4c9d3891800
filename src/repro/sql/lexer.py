"""SQL lexer for the DataCell dialect.

Tokenizes the SQL'03 subset plus the DataCell extensions: square brackets
delimit basket expressions, and ``CREATE BASKET`` / ``CREATE STREAM``
declare stream buffers.  Keywords are case-insensitive; identifiers keep
their case but compare case-insensitively downstream.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, List

from ..errors import SqlSyntaxError

__all__ = ["TokenType", "Token", "tokenize", "KEYWORDS"]


class TokenType(enum.Enum):
    IDENT = "ident"
    KEYWORD = "keyword"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PUNCT = "punct"
    EOF = "eof"


KEYWORDS = frozenset(
    """
    select from where group by having order asc desc limit distinct as and
    or not null is in between like create table basket stream drop insert
    into values int integer bigint smallint double float real varchar text
    string boolean bool timestamp true false join inner left outer on cross
    case when then else end cast exists union all every with window slide
    view
    """.split()
)

_OPERATORS = ("<=", ">=", "<>", "!=", "=", "<", ">", "+", "-", "*", "/", "%")
_PUNCT = "(),.;[]"


@dataclass(frozen=True)
class Token:
    """One lexical token with source position (1-based)."""

    type: TokenType
    value: Any
    line: int
    column: int

    @property
    def lowered(self) -> str:
        return str(self.value).lower()

    def is_keyword(self, *names: str) -> bool:
        return self.type is TokenType.KEYWORD and self.lowered in names

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Token({self.type.value}, {self.value!r})"


def tokenize(text: str) -> List[Token]:
    """Tokenize ``text``; raises :class:`SqlSyntaxError` on bad input."""
    tokens: List[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        # whitespace
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        # comments
        if text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("/*", i):
            end = text.find("*/", i + 2)
            if end == -1:
                raise SqlSyntaxError("unterminated block comment", line, col)
            skipped = text[i : end + 2]
            line += skipped.count("\n")
            col = 1 if "\n" in skipped else col + len(skipped)
            i = end + 2
            continue
        # strings
        if ch == "'":
            value, consumed = _read_string(text, i, line, col)
            tokens.append(Token(TokenType.STRING, value, line, col))
            i += consumed
            col += consumed
            continue
        # numbers
        if ch.isdigit() or (
            ch == "." and i + 1 < n and text[i + 1].isdigit()
        ):
            value, consumed = _read_number(text, i, line, col)
            tokens.append(Token(TokenType.NUMBER, value, line, col))
            i += consumed
            col += consumed
            continue
        # identifiers / keywords
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = (
                TokenType.KEYWORD
                if word.lower() in KEYWORDS
                else TokenType.IDENT
            )
            tokens.append(Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        # quoted identifiers
        if ch == '"':
            j = text.find('"', i + 1)
            if j == -1:
                raise SqlSyntaxError("unterminated quoted identifier", line, col)
            tokens.append(Token(TokenType.IDENT, text[i + 1 : j], line, col))
            col += j + 1 - i
            i = j + 1
            continue
        # operators (longest match first)
        matched = False
        for op in _OPERATORS:
            if text.startswith(op, i):
                tokens.append(Token(TokenType.OPERATOR, op, line, col))
                i += len(op)
                col += len(op)
                matched = True
                break
        if matched:
            continue
        if ch in _PUNCT:
            tokens.append(Token(TokenType.PUNCT, ch, line, col))
            i += 1
            col += 1
            continue
        raise SqlSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token(TokenType.EOF, None, line, col))
    return tokens


def _read_string(text: str, start: int, line: int, col: int):
    """Read a single-quoted string; '' escapes a quote."""
    i = start + 1
    out: List[str] = []
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "'":
            if i + 1 < n and text[i + 1] == "'":
                out.append("'")
                i += 2
                continue
            return "".join(out), i + 1 - start
        if ch == "\n":
            raise SqlSyntaxError("newline in string literal", line, col)
        out.append(ch)
        i += 1
    raise SqlSyntaxError("unterminated string literal", line, col)


def _read_number(text: str, start: int, line: int, col: int):
    """Read an int or float literal."""
    i = start
    n = len(text)
    seen_dot = False
    seen_exp = False
    while i < n:
        ch = text[i]
        if ch.isdigit():
            i += 1
        elif ch == "." and not seen_dot and not seen_exp:
            seen_dot = True
            i += 1
        elif ch in "eE" and not seen_exp and i > start:
            if i + 1 < n and (text[i + 1].isdigit() or text[i + 1] in "+-"):
                seen_exp = True
                i += 2 if text[i + 1] in "+-" else 1
            else:
                break
        else:
            break
    raw = text[start:i]
    try:
        value: Any = float(raw) if (seen_dot or seen_exp) else int(raw)
    except ValueError as exc:
        raise SqlSyntaxError(f"bad numeric literal {raw!r}", line, col) from exc
    return value, i - start
