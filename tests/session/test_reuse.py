"""What a session carries from one analysis to the next.

- Symbols: an edit re-collects only the edited procedure; every other
  procedure keeps its previous :class:`ProcedureSymbols` object.
- Errors: validation reads those reused symbols, so an edit that breaks a
  rule must raise exactly the error a cold analysis of the same program
  raises, and reverting the edit must give the cold report again.
- Memory: the summary cache keeps at most each slot's last two keys.
"""

import random

import pytest

from repro.bench.suite import SUITE, build_benchmark_source
from repro.core.driver import analyze
from repro.core.report import analysis_report
from repro.errors import ValidationError
from repro.lang import symbols as symbols_module
from repro.lang.pretty import pretty_program
from repro.session import AnalysisSession
from repro.session.mutate import mutated_source, render_procedure

SOURCE = """
global g;
init { g = 4; }
proc main() { call a(1); call b(2, 5); x = d(3); print(x); }
proc a(x) { w = 3; call c(w); print(x); }
proc b(y, q) { print(y + q + g); }
proc c(z) { print(z * 2); }
proc d(v) { return v + 1; }
"""

MAIN = "proc main() { call a(1); call b(2, 5); x = d(3); print(x); }"


def warm_session(source=SOURCE):
    session = AnalysisSession(source)
    session.analyze()
    return session


class TestSymbolReuse:
    def test_update_recollects_only_the_edited_procedure(self):
        session = warm_session()
        before = session.result.symbols
        assert session.update("b", "proc b(y, q) { print(y + q + g + 7); }")
        after = session.analyze().symbols
        assert after["b"] is not before["b"]
        assert all(after[name] is before[name] for name in before if name != "b")

    def test_global_change_recollects_every_procedure(self):
        session = warm_session()
        before = session.result.symbols
        session.sync(SOURCE.replace("global g;", "global g, h;"))
        after = session.analyze().symbols
        assert all(after[name] is not before[name] for name in before)
        assert after["b"].globals_in_scope == {"g", "h"}

    def test_one_edit_collects_one_procedure(self, monkeypatch):
        session = AnalysisSession(build_benchmark_source(SUITE["015.doduc"]))
        session.analyze()
        collected = []
        collect_one = symbols_module._collect_one

        def counting(proc, globals_in_scope):
            collected.append(proc.name)
            return collect_one(proc, globals_in_scope)

        monkeypatch.setattr(symbols_module, "_collect_one", counting)
        target = next(
            proc for proc in session.program.procedures
            if mutated_source(proc, 7) != render_procedure(proc)
        )
        assert session.update(target.name, mutated_source(target, 7))
        session.analyze()
        assert collected == [target.name]


def _update(name, source):
    return lambda session: session.update(name, source)


def _sync(old, new):
    return lambda session: session.sync(SOURCE.replace(old, new))


#: An edit per kind of validation error, with the edit that reverts it.
BREAKING_EDITS = {
    "duplicate formal": _update("b", "proc b(y, y) { print(y + g); }"),
    "formal shadows global": _update("b", "proc b(y, g) { print(y); }"),
    "unknown callee": _update("b", "proc b(y, q) { call ghost(y); }"),
    "arity at the edited call": _update("b", "proc b(y, q) { call c(y, q); }"),
    # The failing call is in ``a``, whose symbols the session reuses.
    "arity at a reused call": _update("c", "proc c(z, t) { print(z + t); }"),
    "value position at the edited call": _update(
        "b", "proc b(y, q) { t = c(y); print(t + q); }"
    ),
    "value position at a reused call": _update("d", "proc d(v) { print(v); }"),
    "array and scalar": _update("b", "proc b(y, q) { q[1] = y; print(q); }"),
    "main parameters": _update("main", MAIN.replace("main()", "main(k)")),
    "no main": lambda session: session.remove("main"),
    "duplicate global": _sync("global g;", "global g, g;"),
    "undeclared init": _sync("init { g = 4; }", "init { g = 4; u = 1; }"),
    "procedure shadows global": _sync("global g;", "global g, c;"),
    "duplicate procedure": _sync("proc d(v)", "proc c(z) { }\nproc d(v)"),
}


def _error(run):
    with pytest.raises(ValidationError) as caught:
        run()
    return caught.value


@pytest.mark.parametrize("kind", sorted(BREAKING_EDITS))
def test_breaking_edit_raises_the_cold_error_and_reverts(kind):
    session = warm_session()
    original = {proc.name: render_procedure(proc) for proc in session.program.procedures}
    BREAKING_EDITS[kind](session)

    error = _error(session.analyze)
    cold = _error(lambda: analyze(session.program))
    assert (error.message, error.pos) == (cold.message, cold.pos)
    cold_text = _error(lambda: analyze(pretty_program(session.program)))
    assert error.message == cold_text.message

    if kind == "no main":
        session.add(MAIN)
    elif kind in ("duplicate global", "undeclared init",
                  "procedure shadows global", "duplicate procedure"):
        session.sync(SOURCE)
    else:
        for name, source in original.items():
            session.update(name, source)
    result = session.analyze()
    assert analysis_report(result) == analysis_report(analyze(session.program))


def test_summary_cache_stays_bounded_over_300_edits():
    session = AnalysisSession(build_benchmark_source(SUITE["089.su2cor"]))
    cache = session.cache
    slots = set()
    added = 0
    lookup, store = cache.lookup, cache.store

    def recording_lookup(slot, key, task=None):
        slots.add(slot)
        return lookup(slot, key, task)

    def counting_store(slot, key, value):
        nonlocal added
        before = len(cache)
        store(slot, key, value)
        added += len(cache) - before

    cache.lookup, cache.store = recording_lookup, counting_store
    rng = random.Random(3)
    edits = 0
    while edits < 300:
        procs = session.program.procedures
        target = procs[rng.randrange(len(procs))]
        if not session.update(target.name, mutated_source(target, rng.randrange(1 << 30))):
            continue
        edits += 1
        result = session.analyze()
        live = {slot for slot in slots if slot[1] in result.pcg.nodes}
        assert len(cache) <= 2 * len(live), f"after {edits} edits"
    assert cache.stats.evictions > 0
    assert len(cache) == added - cache.stats.evictions
