"""Edit-workload harness for incremental analysis sessions.

Run as a module::

    PYTHONPATH=src python -m repro.session.workload --edits 50 \
        --metrics-json session_metrics.json

Drives a deterministic stream of single-procedure mutations (from
:mod:`repro.session.mutate`) over long-lived sessions on the synthetic
benchmark suite, and checks the PR's acceptance criteria on every edit:

1. **Byte identity** — the session's deterministic analysis report equals a
   cold :func:`repro.api.analyze` run over the same mutated program.
2. **Strict reuse** — the session ran the intraprocedural engine on fewer
   procedures than a cold run would (``engine runs < |PCG|``) for every
   single-procedure edit, and the aggregate session reuse rate is nonzero.

Exits nonzero on any violation; ``--metrics-json`` exports the session
counters for the CI artifact.
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import List, Optional

from repro.bench.suite import SUITE, build_benchmark_source
from repro.core.config import ICPConfig
from repro.core.metrics import absorb_session_metrics
from repro.core.report import analysis_report
from repro.obs import Observability
from repro.session.mutate import mutated_source, render_procedure
from repro.session.session import AnalysisSession

from repro.core.driver import analyze


def run_workload(
    edits: int,
    seed: int = 0,
    names: Optional[List[str]] = None,
    scale: int = 1,
    out=None,
) -> dict:
    """Run the edit workload; returns a summary dict (see keys below).

    ``failures`` counts report mismatches; ``full_reruns`` counts edits where
    the session re-ran the engine on every procedure (allowed only for edits
    the dirty-region analysis cannot contain, never for the literal-only
    mutations generated here).
    """
    out = out if out is not None else sys.stdout
    rng = random.Random(seed)
    requested = list(names) if names else list(SUITE)
    unknown = sorted(set(requested) - set(SUITE))
    if unknown:
        raise SystemExit(f"unknown benchmarks: {unknown}; known: {sorted(SUITE)}")

    config = ICPConfig(cache=True)
    cold_config = ICPConfig()
    sessions = {
        name: AnalysisSession(build_benchmark_source(SUITE[name], scale), config)
        for name in requested
    }
    for session in sessions.values():
        session.analyze()  # cold baseline: everything dirty once

    failures = 0
    full_reruns = 0
    skipped = 0
    total_engine_runs = 0
    total_procs = 0
    for edit in range(edits):
        name = requested[edit % len(requested)]
        session = sessions[name]
        procs = session.program.procedures
        changed = False
        target = procs[0]
        for _ in range(8):  # literal-free procedures mutate to no-ops; retry
            target = procs[rng.randrange(len(procs))]
            changed = session.update(
                target.name, mutated_source(target, rng.randrange(1 << 30))
            )
            if changed:
                break
        if not changed:
            skipped += 1
            continue
        result = session.analyze()
        cold = analyze(session.program, cold_config)

        procs_total = len(result.pcg.nodes)
        engine_runs = result.sched.tasks_run if result.sched else procs_total
        total_engine_runs += engine_runs
        total_procs += procs_total
        line = (
            f"[{edit + 1}/{edits}] {name}: edited {target.name!r}, "
            f"engine {engine_runs}/{procs_total}, "
            f"reused {result.sched.tasks_reused}, "
            f"cached {result.sched.tasks_cached}"
        )
        if analysis_report(result) != analysis_report(cold):
            failures += 1
            line += "  REPORT MISMATCH"
        if engine_runs >= procs_total:
            full_reruns += 1
            line += "  NO REUSE"
        print(line, file=out)

    reuse_rate = (
        1.0 - total_engine_runs / total_procs if total_procs else 0.0
    )
    summary = {
        "edits": edits,
        "applied": edits - skipped,
        "skipped": skipped,
        "failures": failures,
        "full_reruns": full_reruns,
        "total_engine_runs": total_engine_runs,
        "total_procs": total_procs,
        "aggregate_reuse_rate": reuse_rate,
        "sessions": sessions,
    }
    print(
        f"workload: {edits - skipped} edits applied over {len(requested)} "
        f"sessions, engine ran {total_engine_runs}/{total_procs} "
        f"procedure-analyses (aggregate reuse rate {reuse_rate:.2%}), "
        f"{failures} report mismatches, {full_reruns} full re-runs",
        file=out,
    )
    return summary


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.session.workload",
        description="differential edit workload for AnalysisSession",
    )
    parser.add_argument("--edits", type=int, default=50,
                        help="number of single-procedure edits (default 50)")
    parser.add_argument("--seed", type=int, default=0,
                        help="mutation RNG seed (default 0)")
    parser.add_argument("--names", nargs="*", metavar="BENCH",
                        help="suite benchmarks to drive (default: all)")
    parser.add_argument("--scale", type=int, default=1,
                        help="suite scale factor (default 1)")
    parser.add_argument("--metrics-json", metavar="OUT.json", dest="metrics_json",
                        help="write aggregate session metrics as JSON")
    args = parser.parse_args(argv)

    summary = run_workload(
        edits=args.edits,
        seed=args.seed,
        names=args.names,
        scale=args.scale,
    )

    if args.metrics_json:
        obs = Observability.create(metrics=True)
        registry = obs.metrics
        registry.gauge("workload.edits").set(summary["edits"])
        registry.gauge("workload.applied").set(summary["applied"])
        registry.gauge("workload.failures").set(summary["failures"])
        registry.gauge("workload.full_reruns").set(summary["full_reruns"])
        registry.gauge("workload.total_engine_runs").set(
            summary["total_engine_runs"]
        )
        registry.gauge("workload.total_procs").set(summary["total_procs"])
        registry.gauge("workload.aggregate_reuse_rate").set(
            summary["aggregate_reuse_rate"]
        )
        for name, session in summary["sessions"].items():
            absorb_session_metrics(registry, session, prefix=f"session.{name}")
        registry.write(args.metrics_json)
        print(f"metrics snapshot written to {args.metrics_json}", file=sys.stderr)

    if summary["failures"]:
        print("FAIL: session reports diverged from cold analysis", file=sys.stderr)
        return 1
    if summary["full_reruns"]:
        print("FAIL: some edits re-ran the engine on every procedure",
              file=sys.stderr)
        return 1
    if summary["applied"] and summary["aggregate_reuse_rate"] <= 0.0:
        print("FAIL: aggregate session reuse rate is zero", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
