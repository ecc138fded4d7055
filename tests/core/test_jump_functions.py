"""Jump-function baseline tests: polynomials, the four kinds, Figure 1."""

import pytest

from repro.core.config import ICPConfig
from repro.core.jump_functions import (
    JumpFunctionKind,
    Poly,
    SBOTTOM,
    STOP,
    jump_function_icp,
    spoly,
    sym_eval,
    sym_meet,
)
from repro.ir.eval import EvalError
from repro.ir.lattice import BOTTOM, Const, values_equal
from repro.lang.parser import parse_expression
from tests.helpers import analyze


def solve(source, kind):
    result = analyze(source)
    return jump_function_icp(
        result.program, result.symbols, result.pcg, kind,
        result.modref.callsite_mod, assign_aliases=result.aliases.partners,
    )


class TestPoly:
    def test_constant(self):
        p = Poly.constant(5)
        assert p.is_constant and p.constant_value == 5

    def test_zero_constant_is_empty(self):
        assert Poly.constant(0).terms == ()
        assert Poly.constant(0).constant_value == 0

    def test_float_zero_kept(self):
        p = Poly.constant(0.0)
        assert p.is_constant and p.constant_value == 0.0
        assert p != Poly.constant(0)

    def test_variable_identity(self):
        p = Poly.variable("f")
        assert p.is_identity and p.identity_var == "f"
        assert not p.is_constant

    def test_add_collects_terms(self):
        f = Poly.variable("f")
        two_f = f.add(f)
        assert str(two_f) == "2*f"
        assert not two_f.is_identity

    def test_add_cancellation(self):
        f = Poly.variable("f")
        assert f.sub(f) == Poly.constant(0)

    def test_mul_distributes(self):
        f, g = Poly.variable("f"), Poly.variable("g")
        product = f.add(Poly.constant(1)).mul(g)
        # (f + 1) * g = f*g + g
        assert product == f.mul(g).add(g)

    def test_mul_powers(self):
        f = Poly.variable("f")
        sq = f.mul(f)
        assert str(sq) == "f^2"

    def test_evaluate(self):
        f, g = Poly.variable("f"), Poly.variable("g")
        poly = f.mul(f).add(g.mul(Poly.constant(3))).add(Poly.constant(1))
        assert poly.evaluate({"f": 2, "g": 10}) == 35

    def test_evaluate_overflow_raises(self):
        big = Poly.variable("f").mul(Poly.variable("f"))
        with pytest.raises(EvalError):
            big.evaluate({"f": 1e200})

    def test_variables(self):
        poly = Poly.variable("a").mul(Poly.variable("b")).add(Poly.constant(1))
        assert poly.variables() == {"a", "b"}


class TestSymbolicEval:
    def env(self, **bindings):
        table = {name: spoly(Poly.variable(name)) for name in ("f", "g")}
        table.update(bindings)
        return table

    def eval(self, text, **bindings):
        return sym_eval(parse_expression(text), self.env(**bindings))

    def test_literal(self):
        assert self.eval("7") == spoly(Poly.constant(7))

    def test_linear(self):
        value = self.eval("2 * f + 1")
        assert value.is_poly
        assert value.poly.evaluate({"f": 10}) == 21

    def test_polynomial_product(self):
        value = self.eval("(f + 1) * (f - 1)")
        assert value.poly.evaluate({"f": 5}) == 24

    def test_division_nonconstant_degrades(self):
        assert self.eval("f / 2") == SBOTTOM

    def test_constant_division_folds(self):
        assert self.eval("7 / 2") == spoly(Poly.constant(3))

    def test_comparison_degrades(self):
        assert self.eval("f < 3") == SBOTTOM

    def test_constant_comparison_folds(self):
        assert self.eval("2 < 3") == spoly(Poly.constant(1))

    def test_unknown_var_bottom(self):
        assert self.eval("z + 1") == SBOTTOM

    def test_cancelled_float_keeps_its_type(self):
        # 2.0 * 0 normalizes to the integer polynomial 0 but runs to 0.0.
        value = self.eval("2.0 * 0")
        assert value.poly == Poly.constant(0)
        assert values_equal(value.constant, 0.0)

    def test_cancelled_formal_keeps_its_type(self):
        # f - f runs to 0 for an integer f and to 0.0 for a float f.
        value = self.eval("f - f")
        assert value.poly == Poly.constant(0) and value.constant is None
        assert values_equal(value.evaluate({"f": 3}), 0)
        assert values_equal(value.evaluate({"f": 1.5}), 0.0)

    def test_meet_tells_types_apart(self):
        assert sym_meet(self.eval("0"), self.eval("2.0 * 0")) == SBOTTOM
        assert sym_meet(self.eval("g"), self.eval("g + f - f")) == SBOTTOM

    def test_meet(self):
        a = spoly(Poly.variable("f"))
        assert sym_meet(STOP, a) == a
        assert sym_meet(a, a) == a
        assert sym_meet(a, spoly(Poly.variable("g"))) == SBOTTOM
        assert sym_meet(SBOTTOM, a) == SBOTTOM


FIGURE1 = """
proc main() { call sub1(0); }
proc sub1(f1) {
    x = 1;
    if (f1 != 0) { y = 1; } else { y = 0; }
    call sub2(y, 4, f1, x);
}
proc sub2(f2, f3, f4, f5) { t = f2 + f3 + f4 + f5; print(t); }
"""


class TestFigure1Kinds:
    """Each jump-function kind finds exactly the paper's Figure 1 row."""

    def formals(self, kind):
        solution = solve(FIGURE1, kind)
        return {f for _, f in solution.constant_formals()}

    def test_literal(self):
        assert self.formals(JumpFunctionKind.LITERAL) == {"f1", "f3"}

    def test_intra(self):
        assert self.formals(JumpFunctionKind.INTRA) == {"f1", "f3", "f5"}

    def test_pass_through(self):
        assert self.formals(JumpFunctionKind.PASS_THROUGH) == {"f1", "f3", "f4", "f5"}

    def test_polynomial(self):
        assert self.formals(JumpFunctionKind.POLYNOMIAL) == {"f1", "f3", "f4", "f5"}


class TestPolynomialPropagation:
    def test_arithmetic_on_formals(self):
        solution = solve(
            """
            proc main() { call f(3); }
            proc f(a) { call g(a * a + 1); }
            proc g(b) { print(b); }
            """,
            JumpFunctionKind.POLYNOMIAL,
        )
        assert solution.formal_value("g", "b") == Const(10)

    def test_pass_through_misses_arithmetic(self):
        solution = solve(
            """
            proc main() { call f(3); }
            proc f(a) { call g(a * a + 1); }
            proc g(b) { print(b); }
            """,
            JumpFunctionKind.PASS_THROUGH,
        )
        assert solution.formal_value("g", "b") == BOTTOM

    def test_merged_polynomials_degrade(self):
        solution = solve(
            """
            proc main() { call f(3, 1); }
            proc f(a, c) {
                if (c) { v = a + 1; } else { v = a + 2; }
                call g(v);
            }
            proc g(b) { print(b); }
            """,
            JumpFunctionKind.POLYNOMIAL,
        )
        # No branch evaluation: v merges a+1 and a+2 -> not polynomial.
        assert solution.formal_value("g", "b") == BOTTOM

    def test_call_kills_symbolic_value(self):
        solution = solve(
            """
            proc main() { call f(3); }
            proc f(a) { call w(a); call g(a); }
            proc w(p) { p = 9; }
            proc g(b) { print(b); }
            """,
            JumpFunctionKind.POLYNOMIAL,
        )
        assert solution.formal_value("g", "b") == BOTTOM

    def test_cycles_converge(self):
        solution = solve(
            """
            proc main() { call f(4, 3); }
            proc f(n, k) { if (n) { call f(n - 1, k); } print(k); }
            """,
            JumpFunctionKind.POLYNOMIAL,
        )
        assert solution.formal_value("f", "k") == Const(3)
        assert solution.formal_value("f", "n") == BOTTOM

    @pytest.mark.parametrize("kind", [
        JumpFunctionKind.INTRA,
        JumpFunctionKind.PASS_THROUGH,
        JumpFunctionKind.POLYNOMIAL,
    ])
    def test_cancelled_float_argument_stays_float(self, kind):
        solution = solve(
            """
            proc main() { call f(4 / 2.0 * (100 * 0)); }
            proc f(a) { print(a); }
            """,
            kind,
        )
        value = solution.formal_value("f", "a")
        assert value.is_const and values_equal(value.const_value, 0.0)

    def test_cancelled_formal_takes_its_type(self):
        source = """
            proc main() { call f(1.5); }
            proc f(a) { call g(a - a); }
            proc g(b) { print(b); }
        """
        value = solve(source, JumpFunctionKind.POLYNOMIAL).formal_value("g", "b")
        assert value.is_const and values_equal(value.const_value, 0.0)
        # Without a's value the type of a - a is unknown.
        assert solve(source, JumpFunctionKind.PASS_THROUGH).formal_value(
            "g", "b"
        ) == BOTTOM

    def test_float_filter(self):
        result = analyze("proc main() { call f(2.5); } proc f(a) { print(a); }")
        solution = jump_function_icp(
            result.program,
            result.symbols,
            result.pcg,
            JumpFunctionKind.LITERAL,
            result.modref.callsite_mod,
            ICPConfig(propagate_floats=False),
        )
        assert solution.formal_value("f", "a") == BOTTOM


class TestPrecisionOrdering:
    """LITERAL <= INTRA <= PASS_THROUGH <= POLYNOMIAL (as claim sets)."""

    SOURCES = [
        FIGURE1,
        """
        proc main() { x = 2; call f(x, 5); }
        proc f(a, b) { call g(a, b + 1, a * b); }
        proc g(p, q, r) { print(p + q + r); }
        """,
        """
        proc main() { call f(1); call f(1); }
        proc f(a) { call g(a); a = 2; call g(a); }
        proc g(b) { print(b); }
        """,
    ]

    @pytest.mark.parametrize("source", SOURCES)
    def test_ordering(self, source):
        chains = [
            JumpFunctionKind.LITERAL,
            JumpFunctionKind.INTRA,
            JumpFunctionKind.PASS_THROUGH,
            JumpFunctionKind.POLYNOMIAL,
        ]
        claims = []
        for kind in chains:
            solution = solve(source, kind)
            claims.append(set(solution.constant_formals()))
        assert claims[0] <= claims[1] <= claims[3]
        assert claims[0] <= claims[2] <= claims[3]
