"""No analysis path leaves cyclic garbage.

Each analysis phase runs with the cyclic garbage collector paused
(:mod:`repro.core.collector`), and under serve overlapping jobs keep it
paused across each other.  That is safe only while everything those paths
drop is freed by reference counting alone.  Each test runs one path with
the collector off and then asks a full collection how many unreachable
objects it found.
"""

import gc
import hashlib
from contextlib import contextmanager

import pytest

from repro.bench.suite import (
    RECURSION_SUITE,
    SUITE,
    build_benchmark,
    build_benchmark_source,
)
from repro.core.config import ICPConfig
from repro.core.driver import CompilationPipeline, whole_program_phases
from repro.diag.engine import DiagOptions, check_source
from repro.errors import ParseError, ValidationError
from repro.serve import AnalysisServer
from repro.session import AnalysisSession
from repro.session.mutate import mutated_source, render_procedure

CONFIGS = {
    "default": {},
    "returns-and-exit-values": {
        "propagate_returns": True,
        "propagate_exit_values": True,
    },
    "value-contexts": {"context_mode": "value-contexts"},
    "cache": {"cache": True},
}

PROFILES = {**SUITE, **RECURSION_SUITE}


@contextmanager
def no_cyclic_garbage():
    gc.collect()
    gc.disable()
    try:
        yield
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0, f"{found} unreachable objects in reference cycles"


def raised(error, call, *args) -> bool:
    """Whether ``call(*args)`` raises ``error``.

    Caught here rather than in a context manager: a generator-based one
    keeps the caught exception in a reference cycle on Python 3.12.
    """
    try:
        call(*args)
    except error:
        return True
    return False


@pytest.fixture(scope="module")
def sources():
    return {
        name: build_benchmark_source(profile)
        for name, profile in PROFILES.items()
    }


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_every_profile_with_the_transformation(config, sources):
    with no_cyclic_garbage():
        pipeline = CompilationPipeline(ICPConfig.from_dict(CONFIGS[config]))
        for source in sources.values():
            pipeline.run(source, run_transform=True)
        del pipeline


def test_check_source_with_and_without_the_sanitizer(sources):
    with no_cyclic_garbage():
        for name in ("015.doduc", "030.matrix300", "093.nasa7", "rec.mixed"):
            check_source(sources[name], path=f"{name}.mf")
            check_source(sources[name], options=DiagOptions(sanitize=True))


SESSION_SOURCE = """\
global g;
init { g = 4; }
proc main() { call a(1); call b(2, 5); x = d(3); print(x); }
proc a(x) { w = 3; call c(w); print(x); }
proc b(y, q) { print(y + q + g); }
proc c(z) { print(z * 2); }
proc d(v) { return v + 1; }
"""


def test_a_session_edit_stream(sources):
    program = build_benchmark(SUITE["089.su2cor"])
    with no_cyclic_garbage():
        session = AnalysisSession(sources["089.su2cor"])
        session.analyze()
        session.diagnostics()
        for seed, proc in enumerate(program.procedures[:20]):
            session.update(proc.name, mutated_source(proc, seed))
            session.analyze()
            session.diagnostics()
        session.report()

        session = AnalysisSession(SESSION_SOURCE)
        session.diagnostics()
        session.add("proc e(k) { print(k + g); }")
        session.analyze()
        session.remove("e")
        session.analyze()
        assert raised(
            ParseError, session.update, "b", "proc b(y, q) { print(y + ; }"
        )
        session.update("b", "proc b(y, y) { print(y + g); }")
        assert raised(ValidationError, session.analyze)
        session.update("b", "proc b(y, q) { print(y + q + g); }")
        session.diagnostics()
        session.sync(SESSION_SOURCE.replace("global g;", "global g, h;"))
        session.analyze()
        session.sync(SESSION_SOURCE.replace("print(z * 2)", "print(z * 3)"))
        session.diagnostics()
        del session


def test_daemon_requests_and_the_flow_insensitive_fallback(tmp_path, sources):
    server = AnalysisServer(
        ICPConfig.from_dict({"store_dir": str(tmp_path / "store")})
    )
    config = ICPConfig()
    try:
        with no_cyclic_garbage():
            for name in ("015.doduc", "093.nasa7", "rec.mutual"):
                path = f"/programs/{name}"
                source = sources[name]
                edit = {
                    "procedure": "main",
                    "source": mutated_source(
                        build_benchmark(PROFILES[name]).procedures[0], 3
                    ),
                }
                requests = [
                    ("POST", path, {"source": source}),
                    ("GET", f"{path}/report", None),
                    ("GET", f"{path}/diagnostics", None),
                    ("POST", f"{path}/edits", edit),
                    ("GET", f"{path}/report", None),
                    ("DELETE", path, None),
                    ("POST", path, {"source": source}),
                ]
                for method, target, body in requests:
                    assert server.dispatch(method, target, body)[0] == 200
            assert server.dispatch("GET", "/programs/ghost/report")[0] == 404
            assert server.dispatch("POST", "/programs/p", {})[0] == 400
            for source in sources.values():
                whole_program_phases(source, config)
    finally:
        server.close()


def test_mutating_every_procedure():
    program = build_benchmark(SUITE["015.doduc"])
    with no_cyclic_garbage():
        for seed, proc in enumerate(program.procedures):
            mutated_source(proc, seed)


def test_mutations_keep_their_literal_order():
    # perfbench's edit stream, and so its report digest, follows the order
    # in which a mutation visits literals.
    program = build_benchmark(SUITE["015.doduc"])
    text = "\n".join(
        mutated_source(proc, seed)
        for seed, proc in enumerate(program.procedures)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "f0ca13fc6c254efa7527f1b923a45cde031edff8ebea57b5f57aa7497549a2b0"
    )
    assert any(
        mutated_source(proc, 1) != render_procedure(proc)
        for proc in program.procedures
    )
