"""Run one workload of the repository benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload batch-cold --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` takes turns
between untraced and traced chunks of work and prints the per-layer
metrics, writing the spans to ``perfbench/out/``.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it is the run record (seed, machine, config, report
sha256).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

from common import latency_metrics, percentile

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

WORKLOADS = ("batch-cold", "edit-session", "serve-mixed")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MiB",
}

#: Per-layer metric -> unit.  Seconds are summed self time over the traced
#: chunks; counts are per operation unless the README says otherwise.
PER_LAYER_UNITS = {
    "lang.parse.s": "s",
    "lang.parse.kb_per_s": "KiB/s",
    "lang.validate.s": "s",
    "lang.symbols.s": "s",
    "callgraph.pcg.s": "s",
    "callgraph.pcg.nodes": "count",
    "callgraph.pcg.edges": "count",
    "summary.alias.s": "s",
    "summary.modref.s": "s",
    "summary.use.s": "s",
    "core.icp_fi.s": "s",
    "core.icp_fs.self_s": "s",
    "core.fs.constant_formals": "count",
    "analysis.engine.s": "s",
    "analysis.engine.calls": "count",
    "analysis.engine.us_per_call": "us",
    "analysis.transform.s": "s",
    "analysis.transform.code_steps_ratio": "ratio",
    "sched.tasks_run": "count",
    "sched.tasks_cached": "count",
    "sched.tasks_reused": "count",
    "sched.cache_hit_ratio": "ratio",
    "session.update.s": "s",
    "session.analyze.s": "s",
    "session.diagnostics.s": "s",
    "session.dirty_ratio": "ratio",
    "session.engine_runs_per_op": "count",
    "diag.run.s": "s",
    "diag.findings": "count",
    "store.get.s": "s",
    "store.put.s": "s",
    "store.hits": "count",
    "store.misses": "count",
    "store.hit_ratio": "ratio",
    "serve.request.s": "s",
    "serve.report.ms_p50": "ms",
    "serve.diagnostics.ms_p50": "ms",
    "serve.edit.ms_p50": "ms",
    "serve.analyze.ms_p50": "ms",
    "serve.reloads": "count",
    "serve.reload_ratio": "ratio",
    "serve.rejected": "count",
    "serve.degraded": "count",
    "unattributed.s": "s",
    "trace.wall_s": "s",
    "trace.ops": "count",
    "trace.overhead_ratio": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(result) -> dict:
    """Every per-layer metric, derived from the traced chunks' spans."""
    recorder = result.info["recorder"]
    counters = recorder.counters
    ops = result.info["traced_ops"]
    metrics = recorder.layer_table()
    engine = recorder.durations("analysis.engine")
    tasks_run = counters["sched.tasks_run"]
    tasks_cached = counters["sched.tasks_cached"]
    hits, misses = counters["store.hits"], counters["store.misses"]
    reloads = result.info.get("serve_reloads", 0)

    def server_p50(endpoint: str) -> float:
        return percentile(recorder.durations("serve.request", endpoint), 50) * 1000.0

    metrics.update(
        {
            "lang.parse.kb_per_s": _ratio(
                counters["lang.parse.bytes"] / 1024.0,
                sum(recorder.durations("lang.parse")),
            ),
            "callgraph.pcg.nodes": _ratio(
                counters["callgraph.pcg.nodes"], counters["callgraph.pcg.builds"]
            ),
            "callgraph.pcg.edges": _ratio(
                counters["callgraph.pcg.edges"], counters["callgraph.pcg.builds"]
            ),
            "core.fs.constant_formals": _ratio(
                counters["core.fs.constant_formals"], counters["core.fs.calls"]
            ),
            "analysis.engine.calls": _ratio(len(engine), ops),
            "analysis.engine.us_per_call": _ratio(sum(engine) * 1e6, len(engine)),
            "analysis.transform.code_steps_ratio": result.info.get("code_steps_ratio", 0.0),
            "sched.tasks_run": _ratio(tasks_run, ops),
            "sched.tasks_cached": _ratio(tasks_cached, ops),
            "sched.tasks_reused": _ratio(counters["sched.tasks_reused"], ops),
            "sched.cache_hit_ratio": _ratio(tasks_cached, tasks_run + tasks_cached),
            "session.dirty_ratio": _ratio(counters["session.dirty"], counters["session.procs"]),
            "session.engine_runs_per_op": _ratio(
                counters["session.engine_runs"], counters["session.analyses"]
            ),
            "diag.findings": _ratio(counters["diag.findings"], counters["diag.runs"]),
            "store.hits": _ratio(hits, ops),
            "store.misses": _ratio(misses, ops),
            "store.hit_ratio": _ratio(hits, hits + misses),
            "serve.report.ms_p50": server_p50("report"),
            "serve.diagnostics.ms_p50": server_p50("diagnostics"),
            "serve.edit.ms_p50": server_p50("edits"),
            "serve.analyze.ms_p50": server_p50("analyze"),
            "serve.reloads": reloads,
            "serve.reload_ratio": _ratio(reloads, ops),
            "serve.rejected": result.info.get("serve_rejected", 0),
            "serve.degraded": result.info.get("serve_degraded", 0),
            "trace.ops": ops,
            "trace.overhead_ratio": result.info["overhead_ratio"],
        }
    )
    return metrics


def _run(workload: str, seed: int, seconds: float, trace: bool):
    if workload == "batch-cold":
        import batch_cold

        return batch_cold.run(seed, seconds, trace)
    if workload == "edit-session":
        import edit_session

        return edit_session.run(seed, seconds, trace)
    import serve_mixed

    return serve_mixed.run(seed, seconds, trace, SRC, OUT)


def main() -> int:
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if os.environ.get("PYTHONHASHSEED") != "0":
        # The program generator iterates sets of names, so its output, and
        # hence the inputs made from --seed, depend on string hashing.
        # Pin it, for this process and the daemon it starts.
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            "perfbench: no repro package under ./src; run from the repository root",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    result = _run(args.workload, args.seed, args.seconds, bool(args.trace))

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "report_sha256": result.report_sha256,
        "samples": [len(latencies) for latencies, _ in result.samples],
        # Latency metrics as the clock read them, before speed correction,
        # and the mean slowdown the probes saw (1.0 at reference speed).
        "clock_metrics": (
            latency_metrics(result.clock_samples) if result.clock_samples else None
        ),
        "cpu_slowdown": (
            _ratio(result.clock_samples[0][1], result.samples[0][1])
            if result.clock_samples
            else None
        ),
        "failed_ops_ratio": _ratio(result.failed, result.attempted),
        "failures": result.failures,
        **{key: value for key, value in result.info.items() if key != "recorder"},
    }
    if args.trace:
        metrics = per_layer_metrics(result)
        recorder = result.info["recorder"]
        attributed = sum(
            value for name, value in metrics.items()
            if name.endswith(".s") or name.endswith(".self_s")
        )
        record["trace_sum_error_s"] = attributed - metrics["trace.wall_s"]
        record["trace_file"] = os.path.join(
            "perfbench", "out", f"trace-{args.workload}-seed{args.seed}.json"
        )
        recorder.write(os.path.join(ROOT, record["trace_file"]), {"record": record})
        units = PER_LAYER_UNITS
    else:
        metrics = result.end_to_end()
        units = END_TO_END_UNITS
    print(json.dumps({"record": record}, sort_keys=True, default=str))
    print(
        json.dumps(
            {
                "correct": result.failed == 0,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
