"""Parser unit tests: every construct, precedence, and error reporting."""

import re
from pathlib import Path

import pytest

from repro.errors import ParseError
from repro.lang import ast
from repro.lang.parser import parse_expression, parse_program


def parse_stmts(body: str):
    program = parse_program(f"proc main() {{ {body} }}")
    return program.procedure("main").body.stmts


class TestTopLevel:
    def test_empty_program(self):
        program = parse_program("")
        assert program.global_names == []
        assert program.procedures == []

    def test_global_declaration(self):
        program = parse_program("global a, b, c;")
        assert program.global_names == ["a", "b", "c"]

    def test_multiple_global_declarations_accumulate(self):
        program = parse_program("global a; global b;")
        assert program.global_names == ["a", "b"]

    def test_init_block(self):
        program = parse_program("global a, b; init { a = 3; b = 2.5; }")
        assert program.inits == [ast.GlobalInit("a", 3), ast.GlobalInit("b", 2.5)]

    def test_init_negative_literal(self):
        program = parse_program("global a; init { a = -4; }")
        assert program.inits[0].value == -4

    def test_init_rejects_expression(self):
        with pytest.raises(ParseError):
            parse_program("global a; init { a = 1 + 2; }")

    def test_procedure_no_params(self):
        program = parse_program("proc main() { }")
        assert program.procedure("main").formals == []

    def test_procedure_params(self):
        program = parse_program("proc f(a, b, c) { }")
        assert program.procedure("f").formals == ["a", "b", "c"]

    def test_unexpected_top_level(self):
        with pytest.raises(ParseError, match="top level"):
            parse_program("x = 1;")


class TestStatements:
    def test_assignment(self):
        (stmt,) = parse_stmts("x = 1;")
        assert stmt == ast.Assign("x", ast.IntLit(1))

    def test_call_statement(self):
        (stmt,) = parse_stmts("call f(1, x);")
        assert stmt == ast.CallStmt("f", [ast.IntLit(1), ast.Var("x")])

    def test_call_no_args(self):
        (stmt,) = parse_stmts("call f();")
        assert stmt == ast.CallStmt("f", [])

    def test_call_assignment(self):
        (stmt,) = parse_stmts("x = f(2);")
        assert stmt == ast.CallAssign("x", "f", [ast.IntLit(2)])

    def test_call_in_compound_expression_rejected(self):
        with pytest.raises(ParseError, match="entire right-hand side"):
            parse_stmts("x = f(2) + 1;")

    def test_call_nested_in_expression_rejected(self):
        with pytest.raises(ParseError):
            parse_stmts("x = 1 + f(2);")

    def test_return_void(self):
        (stmt,) = parse_stmts("return;")
        assert stmt == ast.Return(None)

    def test_return_value(self):
        (stmt,) = parse_stmts("return x + 1;")
        assert stmt == ast.Return(ast.Binary("+", ast.Var("x"), ast.IntLit(1)))

    def test_print(self):
        (stmt,) = parse_stmts("print(7);")
        assert stmt == ast.Print(ast.IntLit(7))

    def test_if_without_else(self):
        (stmt,) = parse_stmts("if (x) { y = 1; }")
        assert isinstance(stmt, ast.If)
        assert stmt.else_block is None

    def test_if_with_else(self):
        (stmt,) = parse_stmts("if (x) { y = 1; } else { y = 2; }")
        assert stmt.else_block is not None

    def test_if_single_statement_becomes_block(self):
        (stmt,) = parse_stmts("if (x) y = 1;")
        assert isinstance(stmt.then_block, ast.Block)
        assert len(stmt.then_block.stmts) == 1

    def test_dangling_else_binds_inner(self):
        (stmt,) = parse_stmts("if (a) if (b) x = 1; else x = 2;")
        assert stmt.else_block is None
        inner = stmt.then_block.stmts[0]
        assert inner.else_block is not None

    def test_while(self):
        (stmt,) = parse_stmts("while (i > 0) { i = i - 1; }")
        assert isinstance(stmt, ast.While)

    def test_nested_block(self):
        (stmt,) = parse_stmts("{ x = 1; y = 2; }")
        assert isinstance(stmt, ast.Block)
        assert len(stmt.stmts) == 2

    def test_missing_semicolon(self):
        with pytest.raises(ParseError, match="';'"):
            parse_stmts("x = 1")

    def test_unterminated_block(self):
        with pytest.raises(ParseError, match="unterminated block"):
            parse_program("proc main() { x = 1;")


class TestExpressions:
    def test_precedence_mul_over_add(self):
        expr = parse_expression("1 + 2 * 3")
        assert expr == ast.Binary(
            "+", ast.IntLit(1), ast.Binary("*", ast.IntLit(2), ast.IntLit(3))
        )

    def test_left_associativity(self):
        expr = parse_expression("1 - 2 - 3")
        assert expr == ast.Binary(
            "-", ast.Binary("-", ast.IntLit(1), ast.IntLit(2)), ast.IntLit(3)
        )

    def test_parentheses_override(self):
        expr = parse_expression("(1 + 2) * 3")
        assert expr == ast.Binary(
            "*", ast.Binary("+", ast.IntLit(1), ast.IntLit(2)), ast.IntLit(3)
        )

    def test_unary_minus(self):
        assert parse_expression("-x") == ast.Unary("-", ast.Var("x"))

    def test_double_unary_minus(self):
        assert parse_expression("--x") == ast.Unary("-", ast.Unary("-", ast.Var("x")))

    def test_unary_binds_tighter_than_mul(self):
        expr = parse_expression("-x * y")
        assert expr == ast.Binary("*", ast.Unary("-", ast.Var("x")), ast.Var("y"))

    def test_comparison(self):
        expr = parse_expression("a + 1 < b * 2")
        assert expr.op == "<"

    def test_comparisons_do_not_chain(self):
        with pytest.raises(ParseError, match="chain"):
            parse_expression("a < b < c")

    def test_logical_precedence(self):
        expr = parse_expression("a or b and c")
        assert expr.op == "or"
        assert expr.right.op == "and"

    def test_not_precedence(self):
        expr = parse_expression("not a == b")
        # `not` binds looser than comparison: not (a == b).
        assert expr == ast.Unary("not", ast.Binary("==", ast.Var("a"), ast.Var("b")))

    def test_and_over_comparison(self):
        expr = parse_expression("a == 1 and b == 2")
        assert expr.op == "and"

    def test_float_literal(self):
        assert parse_expression("2.5") == ast.FloatLit(2.5)

    def test_remainder(self):
        assert parse_expression("a % 2").op == "%"

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_expression("1 + 2 )")

    def test_empty_expression(self):
        with pytest.raises(ParseError, match="expression"):
            parse_expression("")


class TestOperatorTable:
    def test_language_doc_lists_the_table(self):
        doc = Path(__file__).parents[2] / "docs" / "LANGUAGE.md"
        levels = {}
        for level, operators, form in re.findall(
            r"^\| (\d) \| (.+?) \| (.+?) \|$", doc.read_text(), re.M
        ):
            for op in re.findall(r"`([^`]+)`", operators):
                levels["negate" if op == "-" and form == "prefix" else op] = int(level)
        assert levels == {**ast.PRECEDENCE, "negate": ast.NEGATION_PRECEDENCE}

    def test_each_level_binds_looser_than_the_next(self):
        ops = ["or", "and", "==", "+", "*"]
        for loose, tight in zip(ops, ops[1:]):
            expr = parse_expression(f"a {loose} b {tight} c")
            assert expr.op == loose and expr.right.op == tight
            expr = parse_expression(f"a {tight} b {loose} c")
            assert expr.op == loose and expr.left.op == tight

    def test_not_sits_between_and_and_the_comparisons(self):
        expr = parse_expression("not a < b and c")
        assert expr.op == "and"
        assert expr.left == ast.Unary("not", ast.Binary("<", ast.Var("a"), ast.Var("b")))
        with pytest.raises(ParseError, match="expected an expression, found 'not'"):
            parse_expression("a < not b")

    def test_comparisons_do_not_chain(self):
        with pytest.raises(ParseError, match="comparisons do not chain") as info:
            parse_expression("a < b + 1 == c")
        assert info.value.pos.column == 11


class TestLiteralValueHelper:
    def test_int(self):
        assert ast.literal_value(ast.IntLit(4)) == 4

    def test_float(self):
        assert ast.literal_value(ast.FloatLit(1.5)) == 1.5

    def test_negated(self):
        assert ast.literal_value(ast.Unary("-", ast.IntLit(4))) == -4

    def test_double_negated(self):
        expr = ast.Unary("-", ast.Unary("-", ast.IntLit(4)))
        assert ast.literal_value(expr) == 4

    def test_non_literal(self):
        assert ast.literal_value(ast.Var("x")) is None
        assert ast.literal_value(ast.Binary("+", ast.IntLit(1), ast.IntLit(2))) is None
