"""Token kinds and the token record produced by the MiniF lexer."""

from __future__ import annotations

import enum
from typing import Union

from repro.errors import SourcePos


class TokenKind(enum.Enum):
    """Every kind of token the MiniF lexer can produce."""

    # Literals and identifiers.
    INT = "int"
    FLOAT = "float"
    IDENT = "ident"

    # Keywords.
    GLOBAL = "global"
    INIT = "init"
    PROC = "proc"
    IF = "if"
    ELSE = "else"
    WHILE = "while"
    CALL = "call"
    RETURN = "return"
    PRINT = "print"
    AND = "and"
    OR = "or"
    NOT = "not"

    # Punctuation.
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    LBRACKET = "["
    RBRACKET = "]"
    COMMA = ","
    SEMI = ";"
    ASSIGN = "="

    # Operators.
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    EQ = "=="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    EOF = "eof"


#: Keyword spelling -> token kind.
KEYWORDS = {
    "global": TokenKind.GLOBAL,
    "init": TokenKind.INIT,
    "proc": TokenKind.PROC,
    "if": TokenKind.IF,
    "else": TokenKind.ELSE,
    "while": TokenKind.WHILE,
    "call": TokenKind.CALL,
    "return": TokenKind.RETURN,
    "print": TokenKind.PRINT,
    "and": TokenKind.AND,
    "or": TokenKind.OR,
    "not": TokenKind.NOT,
}


class Token:
    """A single lexed token.

    ``value`` holds the parsed payload: an ``int`` for INT tokens, a ``float``
    for FLOAT tokens, the identifier string for IDENT tokens, and the spelling
    for everything else.  ``line`` and ``column`` are 1-based; :attr:`pos`
    builds a :class:`SourcePos` from them on each read, so a position object
    exists only where an AST node or an error keeps one.
    """

    __slots__ = ("kind", "value", "line", "column")

    def __init__(
        self, kind: TokenKind, value: Union[int, float, str], line: int, column: int
    ):
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column

    @property
    def pos(self) -> SourcePos:
        return SourcePos(self.line, self.column)

    def __repr__(self) -> str:
        return f"Token(kind={self.kind!r}, value={self.value!r}, pos={self.pos!r})"

    def __str__(self) -> str:
        return f"{self.kind.name}({self.value!r})@{self.pos}"
