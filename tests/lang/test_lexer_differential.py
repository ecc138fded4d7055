"""The regex lexer against the character-at-a-time one it replaced.

Both lexers see the same random strings over the MiniF alphabet plus a
few non-ASCII letters, numerals and blanks.  They must agree on every
token (kind, value, value type and position) and comment, or raise the
same error at the same position.
"""

from hypothesis import example, given, settings, strategies as st

from repro.errors import LexError
from repro.lang.lexer import Lexer
from tests.lang.reference_lexer import ReferenceLexer

#: MiniF's characters, then a letter (é), a vulgar fraction (½), an
#: Arabic-Indic decimal digit (٣), a superscript digit (²) and a
#: no-break space.
ALPHABET = "abeEfix_0159 \t\r\n#.+-*/%(){}[],;=<>!@" + "é½٣²\xa0"


def _lex(lexer_class, source):
    lexer = lexer_class(source)
    try:
        tokens = [
            (token.kind, token.value, type(token.value), token.pos)
            for token in lexer.tokens()
        ]
    except LexError as error:
        return ("error", type(error), error.message, error.pos, lexer.comments)
    return ("tokens", tokens, lexer.comments)


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=ALPHABET, max_size=40))
@example("proc main() { x = 1.5e-3; if (x >= 2) { print(x); } }  # ok")
@example("1.e5")
@example("1.é")
@example("1.½")
@example("1._")
@example("1e+")
@example("é = ٣.٥;")
@example("a½ = ½")
@example("x = \xa0")
@example("# c\r\nx ! y")
def test_regex_lexer_matches_reference(source):
    new = _lex(Lexer, source)
    if any(char.isdigit() and not char.isdecimal() for char in source):
        # The reference lexes a non-decimal digit as part of a number, and
        # int() or float() rejects it with a ValueError.  The regex lexer
        # must raise a LexError instead: any other error fails _lex above.
        return
    assert _lex(ReferenceLexer, source) == new
