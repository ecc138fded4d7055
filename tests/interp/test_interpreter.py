"""Reference interpreter tests: semantics, by-reference binding, tracing."""

import pytest

from repro.errors import InterpreterError, StepLimitExceeded
from repro.interp import Recorder, run_program
from repro.interp.interpreter import MULTIPLE
from repro.lang.parser import parse_program


def run(source, **kwargs):
    return run_program(parse_program(source), **kwargs).outputs


class TestBasics:
    def test_print(self):
        assert run("proc main() { print(42); }") == [42]

    def test_arithmetic(self):
        assert run("proc main() { print(2 + 3 * 4); }") == [14]

    def test_truncating_division(self):
        assert run("proc main() { print(-7 / 2); }") == [-3]

    def test_float_arithmetic(self):
        assert run("proc main() { print(1.5 * 2); }") == [3.0]

    def test_comparison_results(self):
        assert run("proc main() { print(3 < 4); print(4 < 3); }") == [1, 0]

    def test_logical(self):
        assert run("proc main() { print(1 and 0); print(0 or 2); print(not 0); }") == [0, 1, 1]

    def test_variables(self):
        assert run("proc main() { x = 5; y = x + 1; print(y); }") == [6]

    def test_if_else(self):
        assert run("proc main() { if (0) { print(1); } else { print(2); } }") == [2]

    def test_while(self):
        assert run(
            "proc main() { i = 3; s = 0; while (i > 0) { s = s + i; i = i - 1; } print(s); }"
        ) == [6]

    def test_nested_blocks_share_scope(self):
        assert run("proc main() { { x = 1; } print(x); }") == [1]


class TestCalls:
    def test_simple_call(self):
        assert run("proc main() { call f(4); } proc f(a) { print(a * a); }") == [16]

    def test_return_value(self):
        assert run(
            "proc main() { x = sq(5); print(x); } proc sq(a) { return a * a; }"
        ) == [25]

    def test_early_return(self):
        assert run(
            """
            proc main() { a = f(1); print(a); b = f(0); print(b); }
            proc f(c) { if (c) { return 10; } return 20; }
            """
        ) == [10, 20]

    def test_recursion(self):
        assert run(
            """
            proc main() { x = fact(5); print(x); }
            proc fact(n) { if (n <= 1) { return 1; } r = fact(n - 1); return n * r; }
            """
        ) == [120]

    def test_statements_after_return_skipped(self):
        assert run("proc main() { print(1); return; print(2); }") == [1]


class TestByReference:
    def test_bare_var_modified_by_callee(self):
        assert run(
            "proc main() { x = 1; call bump(x); print(x); } proc bump(a) { a = a + 10; }"
        ) == [11]

    def test_compound_expr_passes_temporary(self):
        assert run(
            "proc main() { x = 1; call bump(x + 0); print(x); } proc bump(a) { a = 99; }"
        ) == [1]

    def test_literal_passes_temporary(self):
        assert run(
            "proc main() { call bump(7); print(1); } proc bump(a) { a = 9; }"
        ) == [1]

    def test_aliased_formals_share_storage(self):
        assert run(
            """
            proc main() { x = 1; call two(x, x); print(x); }
            proc two(a, b) { a = 5; print(b); }
            """
        ) == [5, 5]

    def test_global_aliased_to_formal(self):
        assert run(
            """
            global g;
            proc main() { g = 1; call f(g); print(g); }
            proc f(a) { a = 3; print(g); }
            """
        ) == [3, 3]

    def test_out_parameter(self):
        # Passing an uninitialized variable that the callee assigns.
        assert run(
            "proc main() { call produce(x); print(x); } proc produce(o) { o = 77; }"
        ) == [77]


class TestGlobals:
    def test_init_block_values(self):
        assert run(
            "global g; init { g = 12; } proc main() { print(g); }"
        ) == [12]

    def test_later_init_entry_wins(self):
        assert run(
            "global g; init { g = 1; } init { g = 2; } proc main() { print(g); }"
        ) == [2]

    def test_global_shared_across_procs(self):
        assert run(
            """
            global counter;
            proc main() { counter = 0; call inc(); call inc(); print(counter); }
            proc inc() { counter = counter + 1; }
            """
        ) == [2]

    def test_uninitialized_global_read_fails(self):
        with pytest.raises(InterpreterError, match="uninitialized"):
            run("global g; proc main() { print(g); }")


class TestErrors:
    def test_uninitialized_local(self):
        with pytest.raises(InterpreterError, match="uninitialized"):
            run("proc main() { print(nope); }")

    def test_division_by_zero(self):
        with pytest.raises(InterpreterError, match="zero"):
            run("proc main() { x = 0; print(1 / x); }")

    def test_value_call_without_return(self):
        with pytest.raises(InterpreterError, match="value position"):
            run("proc main() { x = f(); print(x); } proc f() { return; }")

    def test_missing_procedure(self):
        with pytest.raises(InterpreterError, match="missing"):
            run("proc main() { call ghost(); }")

    def test_step_limit(self):
        with pytest.raises(StepLimitExceeded):
            run("proc main() { i = 1; while (i) { i = 2; } }", max_steps=500)

    def test_depth_limit(self):
        with pytest.raises(StepLimitExceeded):
            run(
                "proc main() { call f(1); } proc f(n) { call f(n + 1); }",
                max_depth=50,
            )

    def test_python_stack_exhaustion_is_a_step_limit(self):
        # About six Python frames per call: Python's stack ran out at a
        # call depth of about 170, below the default limit of 200, and
        # surfaced as a RecursionError.
        source = (
            "proc main() { call f(0); }"
            " proc f(n) { if (n < 1000) { call f(n + 1); } }"
        )
        with pytest.raises(StepLimitExceeded, match="Python's stack"):
            run(source)
        with pytest.raises(StepLimitExceeded, match="Python's stack"):
            run(source, max_depth=5000)

    def test_int_squaring_loop_terminates_fast(self):
        # Regression: before the integer-magnitude cap this program burned
        # CPU indefinitely — the step budget bounds how many multiplications
        # run, not how big (and therefore how slow) each one is.  Hypothesis
        # found it by generating exactly this shape.
        with pytest.raises(InterpreterError, match="integer overflow"):
            run(
                """
                proc main() {
                    x = 3;
                    i = 0;
                    while (i < 100000) { x = x * x; i = i + 1; }
                    print(x);
                }
                """
            )

    def test_float_overflow(self):
        with pytest.raises(InterpreterError, match="overflow"):
            run(
                """
                proc main() {
                    x = 1e300;
                    i = 4;
                    while (i > 0) { x = x * x; i = i - 1; }
                    print(x);
                }
                """
            )


class TestRecorder:
    def test_entry_values_recorded(self):
        program = parse_program(
            "proc main() { call f(3); } proc f(a) { print(a); }"
        )
        recorder = Recorder()
        run_program(program, recorder=recorder)
        assert recorder.entry_values[("f", "a")] == 3
        assert recorder.entry_counts["f"] == 1

    def test_multiple_sentinel(self):
        program = parse_program(
            "proc main() { call f(1); call f(2); } proc f(a) { print(a); }"
        )
        recorder = Recorder()
        run_program(program, recorder=recorder)
        assert recorder.entry_values[("f", "a")] is MULTIPLE

    def test_type_sensitive_multiple(self):
        program = parse_program(
            "proc main() { call f(1); call f(1.0); } proc f(a) { print(a); }"
        )
        recorder = Recorder()
        run_program(program, recorder=recorder)
        assert recorder.entry_values[("f", "a")] is MULTIPLE

    def test_globals_at_entry(self):
        program = parse_program(
            "global g; init { g = 9; } proc main() { call f(); } proc f() { print(g); }"
        )
        recorder = Recorder()
        run_program(program, recorder=recorder)
        assert recorder.entry_values[("f", "g")] == 9

    def test_call_args_recorded(self):
        program = parse_program(
            "proc main() { call f(10, 20); } proc f(a, b) { print(a); }"
        )
        recorder = Recorder()
        run_program(program, recorder=recorder)
        assert recorder.call_args[("main", 0, 0)] == 10
        assert recorder.call_args[("main", 0, 1)] == 20

    def test_call_globals_recorded(self):
        program = parse_program(
            "global g; proc main() { g = 4; call f(); } proc f() { print(g); }"
        )
        recorder = Recorder()
        run_program(program, recorder=recorder)
        assert recorder.call_globals[("main", 0, "g")] == 4
