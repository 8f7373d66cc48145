"""Tokenizer for the XPath subset."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ...errors import XPathSyntaxError

#: Token kinds.
SLASH = "SLASH"  # /
DOUBLE_SLASH = "DOUBLE_SLASH"  # //
LBRACKET = "LBRACKET"
RBRACKET = "RBRACKET"
LPAREN = "LPAREN"
RPAREN = "RPAREN"
AT = "AT"
DOT = "DOT"
DOTDOT = "DOTDOT"
COMMA = "COMMA"
PIPE = "PIPE"
STAR = "STAR"
PLUS = "PLUS"
MINUS = "MINUS"
EQ = "EQ"
NEQ = "NEQ"
LT = "LT"
LE = "LE"
GT = "GT"
GE = "GE"
NAME = "NAME"
LITERAL = "LITERAL"
NUMBER = "NUMBER"
COLONCOLON = "COLONCOLON"
EOF = "EOF"

_SINGLE_CHAR = {
    "[": LBRACKET,
    "]": RBRACKET,
    "(": LPAREN,
    ")": RPAREN,
    "@": AT,
    ",": COMMA,
    "|": PIPE,
    "*": STAR,
    "+": PLUS,
    "-": MINUS,
    "=": EQ,
}


@dataclass(frozen=True)
class Token:
    kind: str
    value: str
    position: int


def _is_name_start(char: str) -> bool:
    return char.isalpha() or char in "_"


def _is_name_char(char: str) -> bool:
    return char.isalnum() or char in "_-."


def tokenize(query: str) -> List[Token]:
    """Split an XPath string into tokens.

    Raises :class:`XPathSyntaxError` on characters outside the grammar.
    """
    tokens: List[Token] = []
    index = 0
    length = len(query)
    while index < length:
        char = query[index]
        if char.isspace():
            index += 1
            continue
        if char == "/":
            if index + 1 < length and query[index + 1] == "/":
                tokens.append(Token(DOUBLE_SLASH, "//", index))
                index += 2
            else:
                tokens.append(Token(SLASH, "/", index))
                index += 1
            continue
        if char == "!":
            if index + 1 < length and query[index + 1] == "=":
                tokens.append(Token(NEQ, "!=", index))
                index += 2
                continue
            raise XPathSyntaxError("unexpected '!'", index)
        if char == ":":
            if index + 1 < length and query[index + 1] == ":":
                tokens.append(Token(COLONCOLON, "::", index))
                index += 2
                continue
            raise XPathSyntaxError("unexpected ':' (namespaces unsupported)", index)
        if char == "<":
            if index + 1 < length and query[index + 1] == "=":
                tokens.append(Token(LE, "<=", index))
                index += 2
            else:
                tokens.append(Token(LT, "<", index))
                index += 1
            continue
        if char == ">":
            if index + 1 < length and query[index + 1] == "=":
                tokens.append(Token(GE, ">=", index))
                index += 2
            else:
                tokens.append(Token(GT, ">", index))
                index += 1
            continue
        if char == ".":
            if index + 1 < length and query[index + 1] == ".":
                tokens.append(Token(DOTDOT, "..", index))
                index += 2
                continue
            if index + 1 < length and query[index + 1].isdigit():
                index = _read_number(query, index, tokens)
                continue
            tokens.append(Token(DOT, ".", index))
            index += 1
            continue
        if char in _SINGLE_CHAR:
            tokens.append(Token(_SINGLE_CHAR[char], char, index))
            index += 1
            continue
        if char in "'\"":
            end = query.find(char, index + 1)
            if end < 0:
                raise XPathSyntaxError("unterminated string literal", index)
            tokens.append(Token(LITERAL, query[index + 1 : end], index))
            index = end + 1
            continue
        if char.isdigit():
            index = _read_number(query, index, tokens)
            continue
        if _is_name_start(char):
            start = index
            index += 1
            while index < length and _is_name_char(query[index]):
                index += 1
            tokens.append(Token(NAME, query[start:index], start))
            continue
        raise XPathSyntaxError(f"unexpected character {char!r}", index)
    tokens.append(Token(EOF, "", length))
    return tokens


def _read_number(query: str, index: int, tokens: List[Token]) -> int:
    start = index
    length = len(query)
    while index < length and query[index].isdigit():
        index += 1
    if index < length and query[index] == ".":
        index += 1
        while index < length and query[index].isdigit():
            index += 1
    tokens.append(Token(NUMBER, query[start:index], start))
    return index
