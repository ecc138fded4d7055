"""Lexer unit tests: token kinds, values, positions, and errors."""

import pytest

from repro.errors import LexError
from repro.lang.lexer import scan_comments, tokenize
from repro.lang.tokens import TokenKind


def kinds(source):
    return [t.kind for t in tokenize(source)]


def values(source):
    return [t.value for t in tokenize(source)[:-1]]


class TestBasicTokens:
    def test_empty_source_yields_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF

    def test_integer_literal(self):
        tokens = tokenize("42")
        assert tokens[0].kind is TokenKind.INT
        assert tokens[0].value == 42

    def test_zero(self):
        assert tokenize("0")[0].value == 0

    def test_float_with_fraction(self):
        tokens = tokenize("3.25")
        assert tokens[0].kind is TokenKind.FLOAT
        assert tokens[0].value == 3.25

    def test_float_trailing_dot(self):
        tokens = tokenize("7.")
        assert tokens[0].kind is TokenKind.FLOAT
        assert tokens[0].value == 7.0

    def test_float_exponent(self):
        tokens = tokenize("1e3")
        assert tokens[0].kind is TokenKind.FLOAT
        assert tokens[0].value == 1000.0

    def test_float_negative_exponent(self):
        assert tokenize("2E-2")[0].value == pytest.approx(0.02)

    def test_float_fraction_and_exponent(self):
        assert tokenize("1.5e2")[0].value == 150.0

    def test_identifier(self):
        tokens = tokenize("foo_bar9")
        assert tokens[0].kind is TokenKind.IDENT
        assert tokens[0].value == "foo_bar9"

    def test_identifier_with_leading_underscore(self):
        assert tokenize("_x")[0].value == "_x"

    def test_keywords(self):
        source = "global init proc if else while call return print and or not"
        expected = [
            TokenKind.GLOBAL, TokenKind.INIT, TokenKind.PROC, TokenKind.IF,
            TokenKind.ELSE, TokenKind.WHILE, TokenKind.CALL, TokenKind.RETURN,
            TokenKind.PRINT, TokenKind.AND, TokenKind.OR, TokenKind.NOT,
            TokenKind.EOF,
        ]
        assert kinds(source) == expected

    def test_keyword_prefix_is_identifier(self):
        assert tokenize("iff")[0].kind is TokenKind.IDENT
        assert tokenize("printer")[0].kind is TokenKind.IDENT


class TestOperators:
    def test_single_char_operators(self):
        assert kinds("+ - * / % ( ) { } , ; < >")[:-1] == [
            TokenKind.PLUS, TokenKind.MINUS, TokenKind.STAR, TokenKind.SLASH,
            TokenKind.PERCENT, TokenKind.LPAREN, TokenKind.RPAREN,
            TokenKind.LBRACE, TokenKind.RBRACE, TokenKind.COMMA,
            TokenKind.SEMI, TokenKind.LT, TokenKind.GT,
        ]

    def test_two_char_operators(self):
        assert kinds("== != <= >=")[:-1] == [
            TokenKind.EQ, TokenKind.NE, TokenKind.LE, TokenKind.GE,
        ]

    def test_assign_vs_eq(self):
        assert kinds("= ==")[:-1] == [TokenKind.ASSIGN, TokenKind.EQ]

    def test_minus_not_part_of_literal(self):
        assert kinds("a-1")[:-1] == [TokenKind.IDENT, TokenKind.MINUS, TokenKind.INT]

    def test_adjacent_comparison_sequence(self):
        # `<=` greedily beats `<` `=`.
        assert kinds("a<=b")[:-1] == [TokenKind.IDENT, TokenKind.LE, TokenKind.IDENT]


class TestCommentsAndWhitespace:
    def test_line_comment_skipped(self):
        assert values("1 # comment here\n2") == [1, 2]

    def test_comment_at_eof(self):
        assert values("5 # trailing") == [5]

    def test_whitespace_variants(self):
        assert values("1\t2\r\n3") == [1, 2, 3]

    def test_scan_comments_keeps_comments_before_a_lex_error(self):
        assert scan_comments("# noqa\nx = 1; # a\n@ # b") == [
            (1, " noqa"), (2, " a"),
        ]


class TestPositions:
    def test_line_and_column(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].pos.line, tokens[0].pos.column) == (1, 1)
        assert (tokens[1].pos.line, tokens[1].pos.column) == (2, 3)

    def test_position_after_comment(self):
        tokens = tokenize("# c\nx")
        assert tokens[0].pos.line == 2


class TestLexErrors:
    def test_unknown_character(self):
        # A non-decimal digit such as a superscript is no digit to the lexer.
        for source in ("a @ b", "x = ²", "x = 1²"):
            with pytest.raises(LexError, match="unexpected character"):
                tokenize(source)

    def test_bare_bang(self):
        with pytest.raises(LexError, match="'!'"):
            tokenize("a ! b")

    def test_digit_prefixed_identifier(self):
        with pytest.raises(LexError):
            tokenize("12abc")

    def test_error_carries_position(self):
        with pytest.raises(LexError) as info:
            tokenize("\n  $")
        assert info.value.pos.line == 2
        assert info.value.pos.column == 3


class TestNumericEdgeCases:
    def test_dot_without_digits_is_float(self):
        tokens = tokenize("1. + 2")
        assert tokens[0].kind is TokenKind.FLOAT

    def test_e_followed_by_identifier_is_not_exponent(self):
        # `1e` with no digits: the `e` belongs to what follows -> lex error
        # (identifier may not start after a digit run).
        with pytest.raises(LexError):
            tokenize("1e")

    def test_exponent_with_plus(self):
        assert tokenize("1e+2")[0].value == 100.0

    def test_large_integer(self):
        assert tokenize("123456789012345678901234567890")[0].value == (
            123456789012345678901234567890
        )
