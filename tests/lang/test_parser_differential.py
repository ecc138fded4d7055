"""The precedence-climbing parser against the recursive-descent one it
replaced.

Both parsers see the same text, drawn three ways: random token strings
over MiniF's keywords, operators and punctuation (mostly errors), the
printed generator programs, and random expression trees printed with
extra parentheses.  They must build the same AST, down to every node's
type, fields and position, or raise the same error class with the same
message at the same position.  Only inputs within the reference's own
recursion depth are compared, and those nest far less than the new
parser's limit; ``test_nesting.py`` covers deeper ones.
"""

import dataclasses

from hypothesis import example, given, reject, settings, strategies as st

from repro.bench.generator import generate_program
from repro.errors import FrontendError, SourcePos
from repro.lang import parser
from repro.lang.pretty import pretty_program
from tests.lang import reference_parser

#: Words and symbols random token strings are made of.
KEYWORDS = ["global", "init", "proc", "if", "else", "while", "call", "return",
            "print", "and", "or", "not"]
OPERATORS = ["+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=", "="]
PUNCTUATION = ["(", ")", "{", "}", "[", "]", ",", ";"]
OPERANDS = ["x", "y", "f", "main", "0", "7", "2.5"]
TOKENS = KEYWORDS + OPERATORS + PUNCTUATION + OPERANDS


def _tree(node):
    """A node as nested tuples of its type, fields and position."""
    if isinstance(node, list):
        return [_tree(item) for item in node]
    if isinstance(node, SourcePos):
        return (SourcePos, node.line, node.column)
    if dataclasses.is_dataclass(node):
        return (type(node),) + tuple(
            (field.name, _tree(getattr(node, field.name)))
            for field in dataclasses.fields(node)
        )
    return (type(node), node)


def _outcome(parse, source):
    try:
        return ("ast", _tree(parse(source)))
    except FrontendError as error:
        return ("error", type(error), error.message, _tree(error.pos))


def _assert_same(source, program=True):
    name = "parse_program" if program else "parse_expression"
    try:
        expected = _outcome(getattr(reference_parser, name), source)
    except RecursionError:
        reject()
    assert _outcome(getattr(parser, name), source) == expected


def _expression_text():
    """Random expression trees, printed with parentheses where needed
    and, at random, where not."""
    leaves = st.sampled_from(OPERANDS[:2] + OPERANDS[4:])
    binary_ops = st.sampled_from(
        [op for op in OPERATORS if op != "="] + ["and", "or"]
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, binary_ops, children).map(
                lambda t: f"({t[0]}) {t[1]} ({t[2]})"
            ),
            st.tuples(children, binary_ops, children).map(" ".join),
            children.map(lambda c: f"({c})"),
            children.map(lambda c: f"-{c}"),
            children.map(lambda c: f"not {c}"),
            children.map(lambda c: f"x[{c}]"),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), max_size=25).map(" ".join))
@example("x = 1;")  # expected 'global', 'init', or 'proc' at top level
@example("proc main() { x = 1 }")  # expected ';' after assignment
@example("proc main(a b) { }")  # expected ')' after formal parameter list
@example("global a; init { a = b; }")  # init entries must be literals
@example("global a; init { a = -2.5; }")
@example("proc main() { x = 1;")  # unterminated block
@example("proc main() { 1; }")  # expected a statement
@example("proc main() { x = 1 + f(2); }")  # calls only as the right-hand side
@example("proc main() { x = a < not b; }")  # expected an expression
@example("proc main() { x = a < b < c; }")  # comparisons do not chain
@example("proc main() { if (x) y = 1; else { y = 2; } while (x) call f(x); }")
@example("proc main() { x[i + 1] = y[2] % 3; return; }")
def test_token_strings_parse_as_programs(source):
    _assert_same(source)
    _assert_same("proc main() { " + source + " }")


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), max_size=15).map(" ".join))
@example("a b")  # unexpected trailing input
@example("")  # expected an expression, found 'eof'
@example("x[1")  # expected ']' to close array subscript
@example("(1 + 2")  # expected ')' to close parenthesized expression
@example("- - not x")
@example("not a == b and c or d")
def test_token_strings_parse_as_expressions(source):
    _assert_same(source, program=False)


@settings(max_examples=300, deadline=None)
@given(_expression_text())
def test_expression_trees(text):
    _assert_same(text, program=False)
    _assert_same(f"proc main() {{ y = {text}; print({text}); }}")


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_generated_programs(seed):
    _assert_same(pretty_program(generate_program(seed)))
