"""``batch-cold``: one fresh pipeline per program, serially, no cache.

The paper's compile-time path (Figure 2 once per program).  The corpus is
the twelve ``SUITE`` profiles (many tiny procedures: call-graph breadth)
plus seeded ``generate_program`` draws (deeper bodies: engine and
transform).  One operation is
``CompilationPipeline(ICPConfig()).run(source, run_transform=True)``.

The run makes whole passes over the corpus; a program's latency is the
median over passes of its speed-corrected time (see
``common.speed_corrected``).

Correctness, checked outside the timed region:

- set-up: Figure 1's FS and FI constant formals match the paper exactly;
- the first time each program runs: the ICP900 sanitizer finds no unsound
  claim, and the transformed program prints the same outputs as the
  original under the reference interpreter;
- every later run of a program: its report and transformed program are
  byte-identical to the checked first run.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from common import (
    WorkloadResult,
    alternate,
    overhead_ratio,
    peak_rss_mb,
    sha256_text,
    speed_corrected,
    timed_setup,
)
from spans import SpanRecorder, record_sched

from repro.bench.generator import GeneratorConfig, generate_program
from repro.bench.programs import FIGURE1_SOURCE
from repro.bench.suite import SUITE, build_benchmark_source
from repro.core.config import ICPConfig
from repro.core.driver import CompilationPipeline, analyze
from repro.core.report import analysis_report
from repro.diag.sanitize import sanitize_result
from repro.errors import InterpreterError
from repro.interp.interpreter import run_program
from repro.lang.parser import parse_program
from repro.lang.pretty import pretty_program

#: Scale of the twelve suite profiles.
SUITE_SCALE = 2
#: Generated programs in the corpus, and their shape.
GENERATED = 36
GENERATOR = GeneratorConfig(n_procs=10)
#: A draw is kept only if its reference execution ends within this many
#: interpreter steps (the generator can still emit programs that run long
#: or overflow) ...
STEP_BUDGET = 5_000
#: ... and its source size falls in this band, which fixes the corpus's
#: size mix across seeds while its content varies.
SIZE_BAND = (6_500, 8_500)
#: Draws tried before set-up gives up.
MAX_DRAWS = 1_000
#: Passes over the corpus, at least, in an end-to-end run.
MIN_PASSES = 4

#: The paper's Figure 1 table: constant formals per method.
FIGURE1_FS = {"f1", "f2", "f3", "f4", "f5"}
FIGURE1_FI = {"f1", "f3", "f4"}


@dataclass
class Program:
    name: str
    source: str
    outputs: list
    steps: int


@dataclass
class Corpus:
    programs: List[Program]
    skipped_runtime: int
    skipped_size: int


def check_figure1() -> Optional[str]:
    result = analyze(FIGURE1_SOURCE, ICPConfig())
    fs = {formal for _, formal in result.fs.constant_formals()}
    fi = {formal for _, formal in result.fi.constant_formals()}
    if fs != FIGURE1_FS or fi != FIGURE1_FI:
        return f"Figure 1 mismatch: FS {sorted(fs)}, FI {sorted(fi)}"
    return None


def _reference(source: str) -> Tuple[list, int]:
    run = run_program(parse_program(source), max_steps=STEP_BUDGET)
    return run.outputs, run.steps


def build_corpus(seed: int) -> Corpus:
    programs = []
    for name, profile in SUITE.items():
        source = build_benchmark_source(profile, SUITE_SCALE)
        outputs, steps = _reference(source)
        programs.append(Program(name, source, outputs, steps))
    rng = random.Random(seed)
    skipped_runtime = skipped_size = 0
    for _ in range(MAX_DRAWS):
        if len(programs) == len(SUITE) + GENERATED:
            break
        draw = rng.randrange(1 << 30)
        source = pretty_program(generate_program(draw, GENERATOR))
        if not SIZE_BAND[0] <= len(source) <= SIZE_BAND[1]:
            skipped_size += 1
            continue
        try:
            outputs, steps = _reference(source)
        except InterpreterError:
            skipped_runtime += 1
            continue
        programs.append(Program(f"gen.{draw}", source, outputs, steps))
    else:
        raise RuntimeError(f"only {len(programs)} programs after {MAX_DRAWS} draws")
    return Corpus(programs, skipped_runtime, skipped_size)


def _same_outputs(left: list, right: list) -> bool:
    return len(left) == len(right) and all(
        type(a) is type(b) and a == b for a, b in zip(left, right)
    )


class _Checker:
    """Full oracles on a program's first run, byte identity afterwards."""

    def __init__(self, corpus: Corpus, result: WorkloadResult):
        self.corpus = corpus
        self.result = result
        self.first: dict = {}  # index -> (pipeline result, digest)
        self.digests: dict = {}

    def record(self, index: int, pipeline_result) -> None:
        report = analysis_report(pipeline_result)
        digest = sha256_text([report, pretty_program(pipeline_result.transform.program)])
        if index not in self.digests:
            self.digests[index] = digest
            self.first[index] = (pipeline_result, report)
        elif digest != self.digests[index]:
            self.result.fail(f"{self.corpus.programs[index].name}: output changed between runs")

    def finish(self) -> Tuple[str, float]:
        """Run the deferred oracles; (report sha256, code steps ratio)."""
        original_steps = transformed_steps = 0
        reports = []
        for index, program in enumerate(self.corpus.programs):
            pipeline_result, report = self.first[index]
            reports.append(report)
            unsound = [
                f for f in sanitize_result(pipeline_result, max_steps=STEP_BUDGET)
                if f.rule_id in ("ICP900", "ICP901")
            ]
            if unsound:
                self.result.fail(f"{program.name}: {unsound[0].message}")
                continue
            try:
                run = run_program(pipeline_result.transform.program, max_steps=STEP_BUDGET)
            except InterpreterError as error:
                self.result.fail(f"{program.name}: transformed program failed: {error}")
                continue
            if not _same_outputs(run.outputs, program.outputs):
                self.result.fail(f"{program.name}: transformed outputs differ")
                continue
            original_steps += program.steps
            transformed_steps += run.steps
        ratio = transformed_steps / original_steps if original_steps else 0.0
        return sha256_text(reports), ratio


class _Passes:
    """Whole passes over the corpus, one operation per program."""

    def __init__(self, corpus: Corpus, checker: _Checker, result: WorkloadResult):
        self.corpus = corpus
        self.checker = checker
        self.result = result
        self.op = 0
        #: Program index -> (clock, speed-corrected) seconds of its runs.
        self.times: Dict[int, List[Tuple[float, float]]] = {}

    def one_pass(self, recorder=None) -> List[float]:
        """Compile every program once; their clock seconds."""
        latencies: List[float] = []
        config = ICPConfig()
        for index, program in enumerate(self.corpus.programs):
            self.op += 1
            self.result.attempted += 1

            def compile_one():
                return CompilationPipeline(config).run(program.source, run_transform=True)

            try:
                if recorder is not None:
                    with recorder.op(f"op{self.op}"):
                        started = time.perf_counter()
                        outcome = compile_one()
                        elapsed = time.perf_counter() - started
                    record_sched(recorder, outcome.sched)
                else:
                    outcome, elapsed, corrected = speed_corrected(compile_one)
                    self.times.setdefault(index, []).append((elapsed, corrected))
            except Exception as error:  # noqa: BLE001 - counted as a failed op
                self.result.fail(f"{program.name}: {type(error).__name__}: {error}")
                continue
            latencies.append(elapsed)
            self.checker.record(index, outcome)
        return latencies

    def run(self, seconds: float) -> Tuple[List[float], List[float]]:
        """At least ``MIN_PASSES`` passes and ``seconds`` of speed-corrected
        op time; each program's median clock and corrected seconds."""
        passes = 0
        while passes < MIN_PASSES or sum(
            corrected for times in self.times.values() for _, corrected in times
        ) < seconds:
            self.one_pass()
            passes += 1
        self.result.info["passes"] = passes
        runs = list(self.times.values())
        return (
            [statistics.median(clock for clock, _ in times) for times in runs],
            [statistics.median(corrected for _, corrected in times) for times in runs],
        )


def run(seed: int, seconds: float, trace: bool) -> WorkloadResult:
    result = WorkloadResult()

    def setup():
        problem = check_figure1()
        if problem is not None:
            raise RuntimeError(problem)
        return build_corpus(seed)

    if trace:
        corpus = setup()
    else:
        result.setup_s, corpus = timed_setup(setup)
    checker = _Checker(corpus, result)
    passes = _Passes(corpus, checker, result)

    if trace:
        recorder = SpanRecorder()
        untraced, traced = alternate(passes.one_pass, seconds, recorder)
        result.info["recorder"] = recorder
        result.info["traced_ops"] = len(traced)
        result.info["overhead_ratio"] = overhead_ratio(untraced, traced)
    else:
        clock, corrected = passes.run(seconds)
        result.samples = [(corrected, sum(corrected))]
        result.clock_samples = [(clock, sum(clock))]
    result.peak_rss_mb = peak_rss_mb()

    result.report_sha256, steps_ratio = checker.finish()
    result.info.update(
        config=ICPConfig().to_dict(),
        programs=len(corpus.programs),
        suite_programs=len(SUITE),
        generated_programs=len(corpus.programs) - len(SUITE),
        skipped_seeds_runtime=corpus.skipped_runtime,
        skipped_seeds_size=corpus.skipped_size,
        step_budget=STEP_BUDGET,
        code_steps_ratio=steps_ratio,
    )
    return result
