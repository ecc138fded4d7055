"""The character-at-a-time MiniF lexer, kept as a test oracle.

This is the lexer ``repro.lang.lexer`` replaced with one regex pass.
``tests/lang/test_lexer_differential.py`` checks that both produce the
same tokens, comments and errors.  It reads one character at a time and
tracks 1-based line/column positions.  Numeric literals::

    INT   := digit+
    FLOAT := digit+ "." digit* exponent?  |  digit+ exponent
    exponent := ("e" | "E") ("+" | "-")? digit+

It builds each :class:`Token` from a line and a column, as the regex
lexer does.  Its digits are ``str.isdigit()`` characters, so a
non-decimal digit such as ``²`` reaches ``int()`` and raises
``ValueError``; the regex lexer rejects it with a ``LexError`` instead.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.errors import LexError, SourcePos
from repro.lang.tokens import KEYWORDS, Token, TokenKind

#: Two-character operators, tried before single-character ones.
_TWO_CHAR_OPS = {
    "==": TokenKind.EQ,
    "!=": TokenKind.NE,
    "<=": TokenKind.LE,
    ">=": TokenKind.GE,
}

_ONE_CHAR_OPS = {
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    ",": TokenKind.COMMA,
    ";": TokenKind.SEMI,
    "=": TokenKind.ASSIGN,
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "*": TokenKind.STAR,
    "/": TokenKind.SLASH,
    "%": TokenKind.PERCENT,
    "<": TokenKind.LT,
    ">": TokenKind.GT,
}


class ReferenceLexer:
    """Converts MiniF source text into a stream of :class:`Token` objects."""

    def __init__(self, source: str):
        self._source = source
        self._index = 0
        self._line = 1
        self._column = 1
        #: ``(line, text)`` of every ``#`` comment, in source order; the
        #: diagnostics suppression scan reads ``noqa`` directives from here.
        self.comments: List[tuple] = []

    def tokens(self) -> Iterator[Token]:
        """Yield every token in the source, ending with an EOF token."""
        while True:
            self._skip_whitespace_and_comments()
            if self._at_end():
                yield Token(TokenKind.EOF, "", self._line, self._column)
                return
            yield self._next_token()

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------

    def _pos(self) -> SourcePos:
        return SourcePos(self._line, self._column)

    def _at_end(self) -> bool:
        return self._index >= len(self._source)

    def _peek(self, offset: int = 0) -> str:
        index = self._index + offset
        if index >= len(self._source):
            return ""
        return self._source[index]

    def _advance(self) -> str:
        char = self._source[self._index]
        self._index += 1
        if char == "\n":
            self._line += 1
            self._column = 1
        else:
            self._column += 1
        return char

    def _skip_whitespace_and_comments(self) -> None:
        while not self._at_end():
            char = self._peek()
            if char in " \t\r\n":
                self._advance()
            elif char == "#":
                line = self._line
                text: List[str] = []
                while not self._at_end() and self._peek() != "\n":
                    text.append(self._advance())
                self.comments.append((line, "".join(text[1:])))
            else:
                return

    def _next_token(self) -> Token:
        pos = self._pos()
        char = self._peek()
        if char.isdigit():
            return self._lex_number(pos)
        if char.isalpha() or char == "_":
            return self._lex_word(pos)
        two = self._peek() + self._peek(1)
        if two in _TWO_CHAR_OPS:
            self._advance()
            self._advance()
            return Token(_TWO_CHAR_OPS[two], two, pos.line, pos.column)
        if char in _ONE_CHAR_OPS:
            self._advance()
            return Token(_ONE_CHAR_OPS[char], char, pos.line, pos.column)
        if char == "!":
            raise LexError("'!' is only valid as part of '!='", pos)
        raise LexError(f"unexpected character {char!r}", pos)

    def _lex_number(self, pos: SourcePos) -> Token:
        digits = [self._advance()]
        while self._peek().isdigit():
            digits.append(self._advance())
        is_float = False
        if self._peek() == "." and not self._peek(1).isalpha():
            is_float = True
            digits.append(self._advance())
            while self._peek().isdigit():
                digits.append(self._advance())
        if self._peek() in ("e", "E") and (
            self._peek(1).isdigit()
            or (self._peek(1) in "+-" and self._peek(2).isdigit())
        ):
            is_float = True
            digits.append(self._advance())
            if self._peek() in "+-":
                digits.append(self._advance())
            while self._peek().isdigit():
                digits.append(self._advance())
        text = "".join(digits)
        if self._peek().isalpha() or self._peek() == "_":
            raise LexError(f"identifier may not start with a digit: {text}...", pos)
        if is_float:
            return Token(TokenKind.FLOAT, float(text), pos.line, pos.column)
        return Token(TokenKind.INT, int(text), pos.line, pos.column)

    def _lex_word(self, pos: SourcePos) -> Token:
        chars = [self._advance()]
        while self._peek().isalnum() or self._peek() == "_":
            chars.append(self._advance())
        word = "".join(chars)
        kind = KEYWORDS.get(word)
        if kind is not None:
            return Token(kind, word, pos.line, pos.column)
        return Token(TokenKind.IDENT, word, pos.line, pos.column)

