"""Differential soundness fuzzing of the cached pipeline.

Two oracles over ~200 seeded generator programs, all analyzed through one
shared caching pipeline:

- **Runtime oracle**: the reference interpreter records every value observed
  at procedure entries and call sites; every constant the analysis claims
  (FS/FI formals, globals, arguments) must match every observation.
- **Transformation oracle**: the constant-substituted program must produce
  byte-identical output to the original under the interpreter.

Because the pipeline is shared, later seeds run against a cache warmed by
earlier ones — a hit that returned a stale or mismatched summary would
surface as a soundness violation here.
"""

from repro.bench.generator import GeneratorConfig, generate_program
from repro.core.config import ICPConfig
from repro.api import CompilationPipeline
from repro.errors import InterpreterError, StepLimitExceeded
from repro.interp import run_program
from tests.helpers import run_recorded, soundness_violations

#: Shared pipeline with a summary cache that persists across seeds.
SCHED_CONFIG = dict(cache=True)

ACYCLIC_SEEDS = range(140)
RECURSIVE_SEEDS = range(60)
TRANSFORM_SEEDS = range(80)


def check_seed(pipeline, program):
    result = pipeline.run(program)
    recorder = run_recorded(program)
    if recorder is None:
        return  # runtime error/step limit: constant claims are vacuous
    violations = soundness_violations(program, result, recorder)
    assert not violations, "\n".join(violations)


class TestEntryConstantsMatchRuntime:
    def test_acyclic_seeds(self):
        pipeline = CompilationPipeline(ICPConfig(**SCHED_CONFIG))
        for seed in ACYCLIC_SEEDS:
            check_seed(pipeline, generate_program(seed))

    def test_recursive_seeds(self):
        pipeline = CompilationPipeline(ICPConfig(**SCHED_CONFIG))
        config = GeneratorConfig(allow_recursion=True)
        for seed in RECURSIVE_SEEDS:
            check_seed(pipeline, generate_program(seed, config))

    def test_returns_extension_seeds(self):
        pipeline = CompilationPipeline(
            ICPConfig(
                propagate_returns=True, propagate_exit_values=True,
                **SCHED_CONFIG,
            )
        )
        for seed in range(40):
            check_seed(pipeline, generate_program(seed))


#: Recursion-heavy generator shape for the context-mode corpus: more
#: procedures and a higher call density make cycles (including mutual
#: recursion) common rather than occasional.
RECURSION_HEAVY = GeneratorConfig(
    allow_recursion=True, n_procs=6, p_call=0.40
)
CONTEXT_SEEDS = range(50)


class TestContextModesStaySound:
    """The recursion corpus under both ``context_mode`` settings.

    Value-context tabulation replaces the FI fallback on recursion cycles
    with per-context answers; the runtime oracle must accept every claim
    in both modes, and tabulation must never be less precise than the
    one-pass traversal at any procedure entry.
    """

    def test_value_contexts_recursive_corpus(self):
        pipeline = CompilationPipeline(
            ICPConfig(context_mode="value-contexts", **SCHED_CONFIG)
        )
        for seed in CONTEXT_SEEDS:
            check_seed(pipeline, generate_program(seed, RECURSION_HEAVY))

    def test_carini_hind_recursive_corpus(self):
        pipeline = CompilationPipeline(ICPConfig(**SCHED_CONFIG))
        for seed in CONTEXT_SEEDS:
            check_seed(pipeline, generate_program(seed, RECURSION_HEAVY))

    def test_tabulation_never_less_precise(self):
        from repro.ir.lattice import lattice_le

        base_pipe = CompilationPipeline(ICPConfig(**SCHED_CONFIG))
        ctx_pipe = CompilationPipeline(
            ICPConfig(context_mode="value-contexts", **SCHED_CONFIG)
        )
        for seed in range(25):
            program = generate_program(seed, RECURSION_HEAVY)
            base = base_pipe.run(program)
            ctx = ctx_pipe.run(program)
            for key, value in base.fs.entry_formals.items():
                assert lattice_le(value, ctx.fs.entry_formals[key]), (
                    seed,
                    key,
                )
            for key, value in base.fs.entry_globals.items():
                assert lattice_le(value, ctx.fs.entry_globals[key]), (
                    seed,
                    key,
                )


class TestTransformedProgramsRunIdentically:
    def test_transform_preserves_output(self):
        pipeline = CompilationPipeline(ICPConfig(**SCHED_CONFIG))
        checked = 0
        for seed in TRANSFORM_SEEDS:
            program = generate_program(seed)
            try:
                expected = run_program(program, max_steps=200_000).outputs
            except (InterpreterError, StepLimitExceeded):
                continue  # original errors: nothing to compare
            result = pipeline.run(program, run_transform=True)
            transformed = result.transform.program
            actual = run_program(transformed, max_steps=400_000).outputs
            assert actual == expected, f"seed {seed}: output diverged"
            checked += 1
        # The generator guarantees clean runs; a mass skip means the oracle
        # silently stopped testing anything.
        assert checked > len(TRANSFORM_SEEDS) * 3 // 4
