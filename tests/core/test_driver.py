"""Pipeline (Figure 2) driver tests: phases, timings, config, errors."""

import pytest

from repro.core.config import ICPConfig
from repro.api import AnalysisSession, CompilationPipeline, analyze_program
from repro.errors import ValidationError
from repro.ir.lattice import BOTTOM, Const


SOURCE = """
global g;
init { g = 2; }
proc main() { call f(1); }
proc f(a) { print(a + g); }
"""


class TestPipeline:
    def test_all_phases_timed(self):
        phases = {"validate", "collect", "pcg", "alias", "modref", "icp_fi",
                  "icp_fs", "use"}
        assert phases | {"parse"} <= set(analyze_program(SOURCE).timings)
        # A session shares the pipeline's phases; it parses once, up front,
        # and times its dirty-region step on re-analysis.
        session = AnalysisSession(SOURCE)
        first = session.analyze().timings
        assert phases <= set(first) and not {"parse", "dirty"} & set(first)
        session.update("f", "proc f(a) { print(a + g + 1); }")
        assert phases | {"dirty"} <= set(session.analyze().timings)

    def test_accepts_parsed_program(self):
        from repro.lang.parser import parse_program

        program = parse_program(SOURCE)
        result = analyze_program(program)
        assert "parse" not in result.timings
        assert result.fs.entry_formal("f", "a") == Const(1)

    def test_transform_optional(self):
        assert analyze_program(SOURCE).transform is None
        assert analyze_program(SOURCE, run_transform=True).transform is not None

    def test_returns_phase_gated_by_config(self):
        assert analyze_program(SOURCE).returns is None
        result = analyze_program(SOURCE, ICPConfig(propagate_returns=True))
        assert result.returns is not None

    def test_missing_procedure_rejected_by_default(self):
        with pytest.raises(ValidationError, match="unknown procedure"):
            analyze_program("proc main() { call ghost(); }")

    def test_missing_procedure_allowed_with_config(self):
        result = analyze_program(
            "global g; init { g = 1; } proc main() { call ghost(); print(g); }",
            ICPConfig(allow_missing=True),
        )
        # The unknown callee may modify anything: no program constants.
        assert result.fi.global_constants == {}

    def test_validation_error_propagates(self):
        with pytest.raises(ValidationError):
            analyze_program("proc main() { call f(1, 2); } proc f(a) { }")

    def test_alternate_entry(self):
        result = analyze_program(
            "proc start() { call f(3); } proc f(a) { print(a); }",
            ICPConfig(entry="start"),
        )
        assert result.fs.entry_formal("f", "a") == Const(3)

    def test_summary_renders(self):
        text = analyze_program(SOURCE, run_transform=True).summary()
        assert "FS constant formals" in text
        assert "substitutions" in text

    def test_entry_env_accessor(self):
        result = analyze_program(SOURCE)
        env_fs = result.entry_env("f", "fs")
        env_fi = result.entry_env("f", "fi")
        assert env_fs["a"] == Const(1)
        assert env_fi["a"] == Const(1)
        with pytest.raises(ValueError):
            result.entry_env("f", "nope")

    def test_entry_env_unknown_procedure(self):
        result = analyze_program(SOURCE)
        with pytest.raises(ValueError) as excinfo:
            result.entry_env("missing")
        message = str(excinfo.value)
        # The error names the offender and lists what would have worked.
        assert "missing" in message
        assert "known procedures" in message
        assert "main" in message and "f" in message


class TestConfig:
    def test_admit_value(self):
        on = ICPConfig(propagate_floats=True)
        off = ICPConfig(propagate_floats=False)
        assert on.admit_value(2.5) and on.admit_value(2)
        assert not off.admit_value(2.5)
        assert off.admit_value(2)

    def test_admit_lattice(self):
        off = ICPConfig(propagate_floats=False)
        assert off.admit(Const(2.5)) == BOTTOM
        assert off.admit(Const(2)) == Const(2)
        assert off.admit(BOTTOM) == BOTTOM

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            analyze_program(SOURCE, ICPConfig(engine="quantum"))

    def test_frozen(self):
        import dataclasses

        with pytest.raises(dataclasses.FrozenInstanceError):
            ICPConfig().engine = "other"


class TestPipelineReuse:
    def test_pipeline_object_reusable(self):
        pipeline = CompilationPipeline()
        first = pipeline.run(SOURCE)
        second = pipeline.run(SOURCE)
        assert first.fs.entry_formals == second.fs.entry_formals

    def test_deterministic_results(self):
        a = analyze_program(SOURCE)
        b = analyze_program(SOURCE)
        assert a.fs.entry_formals == b.fs.entry_formals
        assert a.fi.formal_values == b.fi.formal_values
