"""The validator that reads collected symbols against the one that walked
procedure bodies itself.

Both validators see the same program and the same flags.  They must both
accept it, or both raise the same error class with the same message at the
same position: the first-error order is part of the contract.  Programs
come from the generator, the benchmark suites, a small program with one
injected fault per validation message, and generator programs with random
faults injected into their printed text.
"""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.generator import GeneratorConfig, generate_program
from repro.bench.suite import RECURSION_SUITE, SUITE, build_benchmark
from repro.errors import ReproError
from repro.lang import validate
from repro.lang.parser import parse_program
from repro.lang.pretty import pretty_program
from repro.lang.symbols import collect_symbols
from tests.lang import reference_validate

FLAGS = [
    {"require_main": require_main, "allow_missing": allow_missing}
    for require_main in (True, False)
    for allow_missing in (False, True)
]


def _outcome(check, program, **flags):
    try:
        check(program, **flags)
    except ReproError as error:
        return ("error", type(error), error.message, error.pos)
    return ("ok",)


def _assert_same(program, **flags):
    expected = _outcome(reference_validate.validate_program, program, **flags)
    assert _outcome(validate.validate_program, program, **flags) == expected
    # The symbols the driver collects give the same outcome.
    given_symbols = _outcome(
        validate.validate_program, program,
        symbols=collect_symbols(program), **flags,
    )
    assert given_symbols == expected
    return expected


@pytest.mark.parametrize("seed", range(30))
def test_generated_programs(seed):
    recursive = GeneratorConfig(allow_recursion=seed % 2 == 1)
    assert _assert_same(generate_program(seed, recursive)) == ("ok",)


@pytest.mark.parametrize("name", sorted({**SUITE, **RECURSION_SUITE}))
def test_suite_profiles(name):
    profile = {**SUITE, **RECURSION_SUITE}[name]
    assert _assert_same(build_benchmark(profile)) == ("ok",)


BASE = """global g, h;
init { g = 1; }
proc main() { call work(1, 2); x = val(3); print(x); }
proc work(a, b) { arr[1] = a; print(arr[b] + g); }
proc val(c) { return c + h; }
"""

#: One fault per message ``validate.py`` raises: (old text, new text,
#: message fragment).
FAULTS = {
    "duplicate global": ("global g, h;", "global g, h, g;", "duplicate global"),
    "duplicate procedure": ("proc val(c)", "proc work() { }\nproc val(c)",
                            "duplicate procedure"),
    "procedure shadows global": ("global g, h;", "global g, h, val;",
                                 "shadows a global variable"),
    "undeclared init": ("init { g = 1; }", "init { g = 1; q = 2; }",
                        "undeclared global"),
    "duplicate formal": ("proc work(a, b)", "proc work(a, a)",
                         "duplicate formal"),
    "formal shadows global": ("proc val(c)", "proc val(h)",
                              "shadows a global"),
    "unknown callee": ("call work(1, 2);", "call work(1, 2); call ghost(1);",
                       "unknown procedure"),
    "arity": ("call work(1, 2)", "call work(1)", "passes 1 argument(s)"),
    "value position": ("return c + h;", "print(c + h); return;",
                       "value position"),
    "array and scalar": ("print(arr[b] + g);", "print(arr[b] + g + arr);",
                         "both as an array and as a scalar"),
    "no main": ("proc main()", "proc start()", "no 'main'"),
    "main parameters": ("proc main()", "proc main(z)", "no parameters"),
}


def _inject(source, *faults):
    for old, new in faults:
        assert old in source, old
        source = source.replace(old, new, 1)
    return source


def test_base_program_is_valid():
    for flags in FLAGS:
        assert _assert_same(parse_program(BASE), **flags) == ("ok",)


@pytest.mark.parametrize("flags", FLAGS, ids=lambda f: "-".join(
    name for name, on in f.items() if on) or "none")
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_each_message(fault, flags):
    old, new, fragment = FAULTS[fault]
    outcome = _assert_same(parse_program(_inject(BASE, (old, new))), **flags)
    suppressed = (
        (fault == "unknown callee" and flags["allow_missing"])
        or (fault in ("no main", "main parameters")
            and not flags["require_main"])
    )
    if suppressed:
        assert outcome == ("ok",)
    else:
        assert outcome[0] == "error" and fragment in outcome[2]


BAD_CALL = ("call work(1, 2)", "call work(1)")
MIX = ("print(arr[b] + g);", "print(arr[b] + g + arr);")


@pytest.mark.parametrize("flags", FLAGS)
def test_two_faults_in_one_procedure(flags):
    # A bad call before an array/scalar mix, and the reverse: calls are
    # checked before usage either way.
    call_first = _inject(BASE, ("proc main() {", "proc main() { arr[1] = 0;"),
                         BAD_CALL, ("print(x);", "print(x + arr);"))
    mix_first = _inject(BASE, ("proc main() {", "proc main() { arr[1] = arr;"),
                        BAD_CALL)
    for source in (call_first, mix_first):
        outcome = _assert_same(parse_program(source), **flags)
        assert "passes 1 argument(s)" in outcome[2]


@pytest.mark.parametrize("flags", FLAGS)
def test_faults_in_two_procedures(flags):
    cases = [
        (_inject(BASE, BAD_CALL, MIX), "passes 1 argument(s)"),
        (_inject(BASE, MIX, FAULTS["formal shadows global"][:2]),
         "both as an array and as a scalar"),
        (_inject(BASE, FAULTS["formal shadows global"][:2], BAD_CALL),
         "passes 1 argument(s)"),
        (_inject(BASE, MIX, FAULTS["value position"][:2]),
         "both as an array and as a scalar"),
        (_inject(BASE, FAULTS["value position"][:2],
                 FAULTS["main parameters"][:2]),
         "value position"),
    ]
    for source, fragment in cases:
        outcome = _assert_same(parse_program(source), **flags)
        assert fragment in outcome[2]


# ----------------------------------------------------------------------
# Random faults in printed generator programs.
# ----------------------------------------------------------------------


def _insert_statement(text, proc, statement):
    match = re.search(rf"proc {proc}\([^)]*\)\s*{{", text)
    return text[: match.end()] + f" {statement}" + text[match.end():]


def _add_formal(text, proc, formal):
    match = re.search(rf"proc {proc}\(([^)]*)\)", text)
    formals = match.group(1)
    joined = f"{formals}, {formal}" if formals else formal
    return text[: match.start()] + f"proc {proc}({joined})" + text[match.end():]


def _fault(kind, text, program, rng):
    procs = program.procedures
    proc = rng.choice(procs).name
    callee = rng.choice(procs)
    globals_ = list(program.global_names)
    if kind == "unknown callee":
        sites = list(re.finditer(r"(call |= )(\w+)\(", text))
        if sites:
            site = rng.choice(sites)
            return text[: site.start(2)] + "ghost" + text[site.end(2):]
        return _insert_statement(text, proc, "call ghost();")
    if kind == "arity":
        fewer = callee.formals and rng.random() < 0.5
        args = ", ".join(["1"] * (len(callee.formals) + (-1 if fewer else 1)))
        return _insert_statement(text, proc, f"call {callee.name}({args});")
    if kind == "value position":
        args = ", ".join(["2"] * len(callee.formals))
        return _insert_statement(text, proc, f"vq = {callee.name}({args});")
    if kind == "drop return":
        returns = list(re.finditer(r"return [^;]+;", text))
        if returns:
            site = rng.choice(returns)
            return text[: site.start()] + "return;" + text[site.end():]
        return text
    if kind == "mix":
        formals = program.procedure(proc).formals
        name = rng.choice(formals) if formals and rng.random() < 0.5 else "mq"
        return _insert_statement(text, proc, f"{name}[1] = 2; print({name});")
    if kind == "duplicate formal":
        formals = program.procedure(proc).formals
        return _add_formal(text, proc, formals[0] if formals else "fa, fa")
    if kind == "formal shadows global":
        return _add_formal(text, proc, rng.choice(globals_ or ["fg, fg"]))
    if kind == "duplicate procedure":
        return text + f"\nproc {proc}() {{ }}\n"
    if kind == "procedure shadows global":
        return f"global {proc};\n" + text
    if kind == "duplicate global":
        return f"global {rng.choice(globals_ or ['gz, gz'])};\n" + text
    if kind == "undeclared init":
        return text + "\ninit { gundeclared = 1; }\n"
    if kind == "no main":
        return text.replace("proc main(", "proc start(", 1)
    assert kind == "main parameters"
    return text.replace("proc main()", "proc main(mp)", 1)


KINDS = [
    "unknown callee", "arity", "value position", "drop return", "mix",
    "duplicate formal", "formal shadows global", "duplicate procedure",
    "procedure shadows global", "duplicate global", "undeclared init",
    "no main", "main parameters",
]


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=3),
    choices=st.integers(min_value=0, max_value=2**32),
    flags=st.sampled_from(FLAGS),
)
def test_random_faults_in_generated_programs(seed, kinds, choices, flags):
    rng = random.Random(choices)
    config = GeneratorConfig(allow_recursion=seed % 3 == 0)
    text = pretty_program(generate_program(seed, config))
    for kind in kinds:
        text = _fault(kind, text, parse_program(text), rng)
    _assert_same(parse_program(text), **flags)
