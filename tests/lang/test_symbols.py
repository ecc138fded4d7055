"""Symbol classification tests (formals/globals/locals, IMOD/IREF, call sites)."""

from repro.lang.parser import parse_program
from repro.lang.symbols import collect_symbols

SOURCE = """
global g1, g2;

proc main() {
    x = 1;
    call work(x, 5);
    g1 = 2;
}

proc work(a, b) {
    t = a + g2;
    a = t;
    call work(t, b);
    print(b);
}
"""


def symbols_for(source=SOURCE):
    return collect_symbols(parse_program(source))


class TestClassification:
    def test_kinds(self):
        work = symbols_for()["work"]
        assert work.kind_of("a") == "formal"
        assert work.kind_of("g2") == "global"
        assert work.kind_of("t") == "local"

    def test_locals(self):
        table = symbols_for()
        assert table["main"].locals == {"x"}
        assert table["work"].locals == {"t"}

    def test_assigned_and_referenced(self):
        work = symbols_for()["work"]
        assert work.assigned == {"t", "a"}
        assert {"a", "g2", "t", "b"} <= work.referenced

    def test_imod_visible_excludes_locals(self):
        table = symbols_for()
        assert table["main"].imod_visible == {"g1"}
        assert table["work"].imod_visible == {"a"}

    def test_iref_visible(self):
        work = symbols_for()["work"]
        assert work.iref_visible == {"a", "b", "g2"}

    def test_call_assign_target_is_assigned(self):
        table = symbols_for(
            "proc main() { y = f(1); print(y); } proc f(a) { return a; }"
        )
        assert "y" in table["main"].assigned

    def test_has_value_return(self):
        table = symbols_for(
            "proc main() { } proc f() { return 3; } proc g() { return; }"
        )
        assert table["f"].has_value_return
        assert not table["g"].has_value_return


class TestCallSites:
    def test_sites_numbered_in_preorder(self):
        source = """
        proc main() {
            call a();
            if (1) { call b(); } else { call a(); }
            call b();
        }
        proc a() { }
        proc b() { }
        """
        sites = symbols_for(source)["main"].call_sites
        assert [(s.index, s.callee) for s in sites] == [
            (0, "a"), (1, "b"), (2, "a"), (3, "b"),
        ]

    def test_site_identity(self):
        sites = symbols_for()["work"].call_sites
        assert len(sites) == 1
        site = sites[0]
        assert site.caller == "work"
        assert site.callee == "work"
        assert not site.is_value_call

    def test_value_call_site(self):
        table = symbols_for(
            "proc main() { y = f(1); print(y); } proc f(a) { return a; }"
        )
        (site,) = table["main"].call_sites
        assert site.is_value_call
        assert len(site.args) == 1


class TestReuse:
    def test_identical_procedures_keep_their_entries(self):
        program = parse_program(SOURCE)
        first = collect_symbols(program)
        again = collect_symbols(program, previous=first)
        assert all(again[name] is first[name] for name in first)

    def test_replaced_procedure_is_collected_again(self):
        program = parse_program(SOURCE)
        first = collect_symbols(program)
        program.procedures[1] = parse_program(
            "proc work(a, b) { print(a + b); }"
        ).procedures[0]
        again = collect_symbols(program, previous=first)
        assert again["main"] is first["main"]
        assert again["work"] is not first["work"]
        assert again["work"].call_sites == []

    def test_changed_globals_collect_everything_again(self):
        program = parse_program(SOURCE)
        first = collect_symbols(program)
        program.global_names.append("t")
        again = collect_symbols(program, previous=first)
        assert all(again[name] is not first[name] for name in first)
        assert again["work"].kind_of("t") == "global"

    def test_derived_sets_are_computed_once(self):
        work = symbols_for()["work"]
        assert work.formal_set is work.formal_set
        assert work.imod_visible is work.imod_visible
        assert work.iref_visible is work.iref_visible
