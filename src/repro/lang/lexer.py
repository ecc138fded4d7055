"""Regex lexer for MiniF source text.

One compiled pattern, matched once per lexeme, skips blanks and splits the
source into words, operators, numbers, ``#`` line comments and newlines.
The lexer tracks 1-based line/column positions from the newlines and
produces a trailing EOF token.  Numeric literals::

    INT   := digit+
    FLOAT := digit+ "." digit* exponent?  |  digit+ exponent
    exponent := ("e" | "E") ("+" | "-")? digit+

A digit is a Unicode decimal digit (``\\d``), which ``int`` and ``float``
accept.  A ``.`` belongs to a number only when the character after it is
not a letter (``1.`` is a FLOAT, ``1.e5`` is the INT ``1`` and then an
error at the ``.``).  A leading sign is *not* part of a literal; unary
minus is handled by the parser so that ``a-1`` lexes as three tokens.
"""

from __future__ import annotations

import re
from typing import Iterator, List

from repro.errors import LexError, SourcePos
from repro.lang.tokens import KEYWORDS, Token, TokenKind

#: Operator and punctuation spelling -> kind; each such kind's value is
#: its spelling.
_OPERATORS = {kind.value: kind for kind in TokenKind if not kind.value.isalpha()}

#: One match per lexeme: the blanks before it, then one alternative.
#: ``word`` may start with any ``\w`` character but a decimal digit; the
#: loop narrows its first character to a letter (``isalpha()``, which no
#: regex class spells) or ``_``.  Two-character operators come before
#: their one-character prefixes.  ``eof`` and ``bad`` make every match
#: succeed.
_LEXEME = re.compile(
    r"""
    [ \t\r]*
    (?:
        (?P<word>[^\W\d]\w*)
      | (?P<op>[=!<>]=|[-+*/%(){}\[\],;=<>])
      | (?P<newline>\n)
      | (?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)
      | (?P<comment>\#[^\n]*)
      | (?P<eof>\Z)
      | (?P<bad>.)
    )
    """,
    re.VERBOSE,
)


class Lexer:
    """Converts MiniF source text into a stream of :class:`Token` objects."""

    def __init__(self, source: str):
        self._source = source
        #: ``(line, text)`` of every ``#`` comment, in source order; the
        #: diagnostics suppression scan reads ``noqa`` directives from here.
        self.comments: List[tuple] = []

    def tokens(self) -> Iterator[Token]:
        """Yield every token in the source, ending with an EOF token."""
        source = self._source
        match = _LEXEME.match
        ident = TokenKind.IDENT
        line = 1
        line_start = 0  # index of the first character of ``line``
        index = 0
        while True:
            lexeme = match(source, index)
            group = lexeme.lastgroup
            index = lexeme.end()
            if group == "newline":
                line += 1
                line_start = index
                continue
            text = lexeme[group]
            start = index - len(text)
            column = start - line_start + 1
            if group == "word":
                if not (text[0].isalpha() or text[0] == "_"):
                    raise LexError(
                        f"unexpected character {text[0]!r}", SourcePos(line, column)
                    )
                yield Token(KEYWORDS.get(text, ident), text, line, column)
            elif group == "op":
                yield Token(_OPERATORS[text], text, line, column)
            elif group == "number":
                if not text.isdecimal():
                    dot = text.find(".")
                    if dot >= 0 and source[start + dot + 1 : start + dot + 2].isalpha():
                        # A dot before a letter is not part of the number
                        # (``1.e5``, ``1.x``); isalpha() decides, as above.
                        index = start + dot
                        text = text[:dot]
                follower = source[index : index + 1]
                if follower.isalpha() or follower == "_":
                    raise LexError(
                        f"identifier may not start with a digit: {text}...",
                        SourcePos(line, column),
                    )
                if text.isdecimal():
                    yield Token(TokenKind.INT, int(text), line, column)
                else:
                    yield Token(TokenKind.FLOAT, float(text), line, column)
            elif group == "comment":
                self.comments.append((line, text[1:]))
            elif group == "eof":
                yield Token(TokenKind.EOF, "", line, column)
                return
            elif text == "!":
                raise LexError("'!' is only valid as part of '!='", SourcePos(line, column))
            else:
                raise LexError(f"unexpected character {text!r}", SourcePos(line, column))


def tokenize(source: str) -> List[Token]:
    """Lex ``source`` into a list of tokens (ending with EOF)."""
    return list(Lexer(source).tokens())


def scan_comments(source: str) -> List[tuple]:
    """``(line, text)`` of every ``#`` comment in ``source``.

    Tolerant of lex errors: comments collected before the offending
    character are still returned, so suppression directives work even on
    sources a later phase rejects.
    """
    lexer = Lexer(source)
    try:
        for _ in lexer.tokens():
            pass
    except LexError:
        pass
    return lexer.comments
