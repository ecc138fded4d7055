"""``edit-session``: long-lived sessions replaying single-procedure edits.

The ``watch``/IDE path.  One :class:`AnalysisSession` per suite program
stays alive; a seeded stream picks a program and one of its procedures and
applies a literal edit from :mod:`repro.session.mutate`.  One operation is
``update`` + ``analyze()`` + ``diagnostics()``, run serially.  Dirty-region
reuse, the summary cache and the diagnostics cache do the work; parsing
barely runs.

The run replays the same op stream on freshly built sessions a few times;
an op's latency is the median over replays of its speed-corrected time
(see ``common.speed_corrected``).

Correctness, checked outside the timed region: after every operation of
the first replay, the session's report and findings must equal those of a
cold ``analyze`` + ``run_diagnostics`` of the same program text; every
later replay must reproduce the first one's reports and findings.
"""

from __future__ import annotations

import random
import statistics
import time
import zlib
from typing import List

from common import (
    WorkloadResult,
    alternate,
    overhead_ratio,
    peak_rss_mb,
    sha256_text,
    speed_corrected,
)
from spans import SpanRecorder

from repro.bench.suite import SUITE, build_benchmark_source
from repro.core.config import ICPConfig
from repro.core.driver import analyze
from repro.core.report import analysis_report
from repro.diag.engine import DiagOptions, run_diagnostics
from repro.lang.pretty import pretty_program
from repro.session.mutate import mutated_source, render_procedure
from repro.session.session import AnalysisSession

SUITE_SCALE = 1
#: Operations whose reports make up the run's report sha256.
DIGEST_OPS = 64
#: Operations per chunk; the traced run alternates untraced and traced chunks.
CHUNK_OPS = 25
#: Replays of the op stream in an end-to-end run.
REPLAYS = 5


def build_sessions():
    sessions = {}
    for name, profile in SUITE.items():
        session = AnalysisSession(build_benchmark_source(profile, SUITE_SCALE), ICPConfig())
        session.analyze()
        session.diagnostics()
        sessions[name] = session
    return sessions


def _next_edit(rng: random.Random, sessions):
    """(program, procedure, new source) of the next literal edit."""
    name = rng.choice(list(sessions))
    procs = sessions[name].program.procedures
    # Literal-free procedures mutate to no-ops; try the others in turn.
    for index in rng.sample(range(len(procs)), len(procs)):
        proc = procs[index]
        source = mutated_source(proc, rng.randrange(1 << 30))
        if source != render_procedure(proc):
            return name, proc.name, source
    raise RuntimeError(f"no editable procedure found in {name}")


class _Stream:
    """The seeded edit stream plus the per-op evidence for the oracle."""

    def __init__(self, seed: int, sessions, result: WorkloadResult, keep_text=True):
        self.rng = random.Random(seed)
        self.sessions = sessions
        self.result = result
        self.keep_text = keep_text
        self.op = 0
        #: Speed-corrected seconds of each untraced op.
        self.corrected: List[float] = []
        #: sha256 of each op's session report and findings.
        self.digests: List[str] = []
        #: (program, compressed program text) of each op, kept by the
        #: stream whose ops the cold oracle checks.
        self.texts: List[tuple] = []

    def run(self, seconds: float) -> List[float]:
        """Chunks until ``seconds`` of speed-corrected op time; clock seconds."""
        latencies: List[float] = []
        while sum(self.corrected) < seconds:
            latencies += self.chunk()
        return latencies

    def chunk(self, recorder=None, ops: int = CHUNK_OPS) -> List[float]:
        latencies: List[float] = []
        for _ in range(ops):
            name, proc, source = _next_edit(self.rng, self.sessions)
            session = self.sessions[name]
            self.op += 1
            self.result.attempted += 1

            def edit():
                session.update(proc, source)
                session.analyze()
                return session.diagnostics()

            try:
                if recorder is not None:
                    with recorder.op(f"op{self.op}"):
                        started = time.perf_counter()
                        diag = edit()
                        elapsed = time.perf_counter() - started
                else:
                    diag, elapsed, corrected = speed_corrected(edit)
                    self.corrected.append(corrected)
            except Exception as error:  # noqa: BLE001 - counted as a failed op
                self.result.fail(f"{name}/{proc}: {type(error).__name__}: {error}")
                continue
            latencies.append(elapsed)
            self.digests.append(sha256_text([session.report(), _finding_set(diag)]))
            if self.keep_text:
                # Compressed, so the texts add little to peak memory.
                text = pretty_program(session.program).encode("utf-8")
                self.texts.append((name, zlib.compress(text)))
        return latencies

    def check(self) -> str:
        """Compare every op against a cold run; returns the report sha256."""
        config = ICPConfig()
        options = DiagOptions.from_config(config)
        for (name, text), digest in zip(self.texts, self.digests):
            cold = analyze(zlib.decompress(text).decode("utf-8"), config)
            findings = _finding_set(run_diagnostics(cold, options))
            if sha256_text([analysis_report(cold), findings]) != digest:
                self.result.fail(f"{name}: session report or findings differ from a cold run")
        return sha256_text(self.digests[:DIGEST_OPS])


def _finding_set(diag) -> str:
    """The findings modulo source position.

    An edited procedure's positions are relative to its fragment, so the
    session and a cold parse of the whole text agree on everything but
    line and column.
    """
    return "\n".join(
        sorted(f"{f.rule_id} {f.severity} {f.proc} {f.message}" for f in diag.findings)
    )


def run(seed: int, seconds: float, trace: bool) -> WorkloadResult:
    result = WorkloadResult()
    if trace:
        # Two copies of the sessions replay the same op stream, one
        # untraced and one traced, chunk by chunk.
        stream = _Stream(seed, build_sessions(), result)
        twin = _Stream(seed, build_sessions(), result, keep_text=False)
        recorder = SpanRecorder()
        untraced, traced = alternate(
            lambda rec: stream.chunk() if rec is None else twin.chunk(rec),
            seconds, recorder, warmup=False,
        )
        if twin.digests != stream.digests[: len(twin.digests)]:
            result.fail("the traced replay produced different reports")
        result.info["recorder"] = recorder
        result.info["traced_ops"] = len(traced)
        result.info["overhead_ratio"] = overhead_ratio(untraced, traced)
    else:
        # Each replay builds fresh sessions (the set-up) and runs the same
        # op stream; an op's latency is its median replay.
        setup_times = []
        clock: List[List[float]] = []
        corrected: List[List[float]] = []
        for replay in range(REPLAYS):
            sessions, _, setup_time = speed_corrected(build_sessions)
            setup_times.append(setup_time)
            replayed = _Stream(seed, sessions, result, keep_text=replay == 0)
            if replay == 0:
                stream = replayed
                clock.append(stream.run(seconds / REPLAYS))
            else:
                clock.append(replayed.chunk(ops=stream.op))
                if replayed.digests != stream.digests:
                    result.fail(f"replay {replay} produced different reports")
            corrected.append(replayed.corrected)
        result.setup_s = statistics.median(setup_times)
        for runs, samples in ((corrected, result.samples), (clock, result.clock_samples)):
            per_op = [statistics.median(times) for times in zip(*runs)]
            samples.append((per_op, sum(per_op)))
    result.peak_rss_mb = peak_rss_mb()
    result.report_sha256 = stream.check()
    result.info.update(
        config=next(iter(stream.sessions.values())).config.to_dict(),
        programs=len(stream.sessions),
        checked_ops=len(stream.texts),
    )
    return result
