"""The nesting limit: every phase runs a program nested up to it, even
from deep in a caller's stack, and one level more is a one-line
``ParseError`` at the token that crossed it, never a ``RecursionError``.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.core.config import ICPConfig
from repro.core.driver import analyze
from repro.diag.engine import check_source
from repro.errors import ParseError
from repro.interp.interpreter import run_program
from repro.lang.parser import MAX_NESTING, parse_expression, parse_program
from repro.lang.pretty import pretty_program
from repro.serve import AnalysisServer

#: Each kind of nesting: the line of ``main`` that nests it ``n`` levels
#: deep, the text whose last occurrence in that line is the token one
#: level past the limit, and what ``main`` prints at the limit.
KINDS = {
    "parentheses": (lambda n: "x = " + "(" * n + "1" + ")" * n + ";", "(", 1),
    "minus": (lambda n: "x = " + "-" * n + "1;", "-", 1),
    "not": (lambda n: "x = " + "not " * n + "1;", "not", 1),
    "binary chain": (lambda n: "x = 1" + " + 1" * n + ";", "+", 257),
    "subscripts": (lambda n: "x = " + "a[" * n + "0" + "]" * n + ";", "[", 0),
    "blocks": (lambda n: "{ " * n + "x = 2;" + " }" * n, "{", 2),
    "ifs": (lambda n: "if (1) { " * n + "x = 2;" + " }" * n, "{", 2),
    "bare ifs": (lambda n: "if (1) " * n + "x = 2;", "x", 2),
    "else ladder": (lambda n: "if (0) { x = 1; } else " * n + "x = 2;", "{", 2),
    "whiles": (lambda n: "while (y) { " * n + "y = 0;" + " }" * n, "{", 1),
    "blocks and parentheses": (
        lambda n: "if (1) { " * (n // 2) + "x = " + "(" * (n - n // 2) + "1"
        + ")" * (n - n // 2) + ";" + " }" * (n // 2),
        "(",
        1,
    ),
}
EXPRESSIONS = ["parentheses", "minus", "not", "binary chain", "subscripts"]

#: Frames the calls run below the test, as a serve handler thread or a
#: deeper test harness would add.
CALLER_FRAMES = 100


def _program(kind, levels):
    line = KINDS[kind][0](levels)
    return "proc main() {\n    a[0] = 0; x = 1; y = 1;\n    " + line + "\n    print(x);\n}\n"


def _crossing(kind):
    """(line, column) of the token one level past the limit."""
    line = KINDS[kind][0](MAX_NESTING + 1)
    return 3, 5 + line.rindex(KINDS[kind][1])


def _from_depth(frames, call):
    """Run ``call`` about ``frames`` Python frames below the caller."""
    if frames == 0:
        return call()
    return _from_depth(frames - 1, call)


@pytest.mark.parametrize("kind", list(KINDS))
def test_every_phase_runs_at_the_limit(kind):
    source = _program(kind, MAX_NESTING)

    def every_phase():
        program = parse_program(source)
        analyze(source, run_transform=True)
        check_source(source)
        assert run_program(program).outputs == [KINDS[kind][2]]
        printed = pretty_program(program)
        assert pretty_program(parse_program(printed)) == printed

    _from_depth(CALLER_FRAMES, every_phase)


@pytest.mark.parametrize("kind", list(KINDS))
def test_one_level_past_the_limit_is_a_parse_error(kind):
    source = _program(kind, MAX_NESTING + 1)
    with pytest.raises(ParseError, match="nested more than 256 levels deep") as info:
        _from_depth(CALLER_FRAMES, lambda: parse_program(source))
    assert (info.value.pos.line, info.value.pos.column) == _crossing(kind)


@pytest.mark.parametrize("kind", EXPRESSIONS)
def test_parse_expression_nests_to_the_limit(kind):
    text = KINDS[kind][0](MAX_NESTING)[len("x = "):-1]
    _from_depth(CALLER_FRAMES, lambda: parse_expression(text))
    past = KINDS[kind][0](MAX_NESTING + 1)[len("x = "):-1]
    with pytest.raises(ParseError) as info:
        _from_depth(CALLER_FRAMES, lambda: parse_expression(past))
    assert info.value.pos.column == 1 + past.rindex(KINDS[kind][1])


@pytest.mark.parametrize("command", ["analyze", "check"])
def test_cli_prints_one_line_and_exits_1(command, tmp_path, capsys):
    path = tmp_path / "deep.mf"
    path.write_text(_program("parentheses", MAX_NESTING + 1))
    assert main([command, str(path)]) == 1
    line, column = _crossing("parentheses")
    assert capsys.readouterr().err == (
        f"error: expression nested more than 256 levels deep at {line}:{column}\n"
    )


def test_daemon_answers_400_past_the_limit():
    server = AnalysisServer(ICPConfig.from_dict({"serve_port": 0, "serve_workers": 1}))
    host, port = server.start()

    def post(source):
        request = urllib.request.Request(
            f"http://{host}:{port}/v1/programs/p1",
            data=json.dumps({"source": source}).encode("utf-8"),
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=60) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    try:
        assert post(_program("ifs", MAX_NESTING))[0] == 200
        status, payload = post(_program("parentheses", MAX_NESTING + 1))
        assert status == 400
        assert "expression nested more than 256 levels deep" in payload["error"]
    finally:
        server.close()
