"""Command-line interface: ``repro-icp`` (or ``python -m repro.cli``).

Subcommands::

    analyze FILE   run the Figure 2 pipeline and report discovered constants
    check FILE..   run the interprocedural lint checks (text/JSON/SARIF)
    optimize FILE  print the transformed (constant-substituted) program
    run FILE       execute the program with the reference interpreter
    tables [N..]   regenerate the paper's tables (N: 1-5, or contexts)
    serve          run the analysis daemon (single-process or sharded)
    top            live dashboard over a fleet's /healthz + /metrics
    watch FILE     keep an analysis session alive, re-analyzing on change

A bare ``repro-icp FILE`` (no subcommand) is shorthand for
``repro-icp analyze FILE``.

Every flag that sets an :class:`ICPConfig` key (``--cache-stats``,
``--no-floats``, ``--store-dir``, ``--port``, ...) is generated from that
key's field: its type, choices, help and default.  The analysis flags are
shared by analyze/check/graph/optimize/serve/watch through
one argparse parent; ``--cache-stats`` also prints the summary cache's
hit/miss/invalidation counters.  Observability flags: ``--trace
OUT.json`` exports a Chrome ``trace_event`` file (open in
``chrome://tracing`` or Perfetto), ``--metrics-json OUT.json`` snapshots
the unified metrics registry, and ``--profile`` prints per-phase wall
timings plus the hot-procedure table.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
import time
from typing import List, Optional, Union, get_args, get_origin

from repro.api import ICPConfig, analyze
from repro.core.config import FIELDS, HINTS
from repro.errors import ReproError
from repro.interp import run_program
from repro.lang.parser import parse_program
from repro.lang.pretty import pretty_program
from repro.obs import Observability


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load(path: str):
    """Parse a source file; .f/.for/.f77 go through the FORTRAN front end."""
    text = _read(path)
    if path.lower().endswith((".f", ".for", ".f77")):
        from repro.lang.fortran import parse_fortran

        return parse_fortran(text)
    return parse_program(text)


def _config_from(args: argparse.Namespace, **extra) -> ICPConfig:
    """The config the parsed flags ask for, plus ``extra`` keys.

    Config-backed flags store under their key and are absent unless given,
    so every other key keeps its :class:`ICPConfig` default.  A bad value
    raises :class:`~repro.errors.ConfigError`, which :func:`main` reports.
    """
    flags = {key: value for key, value in vars(args).items() if key in FIELDS}
    return ICPConfig.from_dict({**flags, **extra})


def _obs_from(args: argparse.Namespace) -> Optional[Observability]:
    """Build the observability context the flags request (None when off)."""
    if not (args.trace or args.metrics_json or args.profile):
        return None
    return Observability.create(
        trace=bool(args.trace),
        metrics=bool(args.metrics_json),
        profile=args.profile,
    )


def _emit_observability(
    args: argparse.Namespace,
    obs: Observability,
    results,
    print_profile: bool = True,
) -> None:
    """Write --trace/--metrics-json artifacts; print the --profile report."""
    if args.profile and print_profile:
        print()
        print(obs.profiler.phase_report())
        print()
        print(obs.profiler.hot_report())
    if args.metrics_json:
        from repro.core.metrics import absorb_pipeline_metrics

        for result in results:
            absorb_pipeline_metrics(obs.metrics, result)
        obs.metrics.write(args.metrics_json)
        print(f"metrics snapshot written to {args.metrics_json}", file=sys.stderr)
    if args.trace:
        obs.tracer.write(args.trace)
        print(
            f"chrome trace written to {args.trace} "
            f"({len(obs.tracer.events())} events)",
            file=sys.stderr,
        )


def _cmd_analyze(args: argparse.Namespace) -> int:
    obs = _obs_from(args)
    config = _config_from(args)
    result = analyze(_load(args.file), config, obs=obs)
    if args.report:
        from repro.core.report import full_report

        print(full_report(result))
    else:
        print(result.summary())
    if config.cache and not args.report:
        from repro.core.report import scheduling_report

        print()
        print(scheduling_report(result))
    if args.timings:
        print("\nphase timings (seconds):")
        for phase, seconds in result.timings.items():
            print(f"  {phase:<10} {seconds:.6f}")
    if obs is not None:
        # --report already embeds the observability section.
        _emit_observability(args, obs, [result], print_profile=not args.report)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.diag import DiagOptions, check_source, load_baseline
    from repro.diag.output import render_json, render_sarif, render_text
    from repro.diag.suppress import write_baseline

    config = _config_from(args)
    rules = None
    if args.rules:
        rules = frozenset(
            rule.strip().upper() for rule in args.rules.split(",") if rule.strip()
        )
    elif config.diag_rules is not None:
        rules = frozenset(config.diag_rules)
    options = DiagOptions(
        rules=rules,
        severity_floor=args.severity_floor or config.diag_severity_floor,
        sanitize=args.sanitize,
        max_steps=args.max_steps,
    )
    baseline = frozenset()
    if args.baseline and not args.write_baseline:
        baseline = load_baseline(args.baseline)

    obs = _obs_from(args)
    entries = []
    for path in args.files:
        diag = check_source(
            _read(path),
            path=path,
            config=config,
            options=options,
            obs=obs,
            baseline=baseline,
        )
        entries.append((path, diag))

    if args.write_baseline:
        if not args.baseline:
            print("error: --write-baseline requires --baseline PATH", file=sys.stderr)
            return 2
        count = write_baseline(
            args.baseline, (f for _, diag in entries for f in diag.findings)
        )
        print(
            f"baseline written to {args.baseline} ({count} finding(s))",
            file=sys.stderr,
        )
        return 0

    renderers = {"text": render_text, "json": render_json, "sarif": render_sarif}
    rendered = renderers[args.format](entries)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(f"{args.format} report written to {args.output}", file=sys.stderr)
    else:
        print(rendered, end="")
    if obs is not None:
        _emit_observability(args, obs, [])
    has_errors = any(diag.errors for _, diag in entries)
    return 1 if has_errors else 0


def _cmd_graph(args: argparse.Namespace) -> int:
    from repro.core.report import pcg_to_dot

    result = analyze(_load(args.file), _config_from(args))
    print(pcg_to_dot(result))
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    from repro.core.optimize import optimize_program

    result = optimize_program(
        _load(args.file),
        _config_from(args),
        clone=args.clone,
        inline=args.inline,
        sweep=not args.no_sweep,
    )
    print(pretty_program(result.program), end="")
    print(f"# {result.summary()}", file=sys.stderr)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    program = _load(args.file)
    outcome = run_program(program, max_steps=args.max_steps)
    for value in outcome.outputs:
        print(value)
    return 0


def _table_number(text: str) -> Union[int, str]:
    """One ``tables`` argument: a number from 1 to 5, or ``contexts``.

    Checked here rather than with ``choices``: argparse tests an empty
    ``nargs="*"`` positional's ``[]`` against its choices, which rejects
    a bare ``tables``.
    """
    if text == "contexts":
        return text
    if text not in ("1", "2", "3", "4", "5"):
        raise argparse.ArgumentTypeError(
            f"invalid choice: {text} (choose from 1, 2, 3, 4, 5, contexts)"
        )
    return int(text)


def _cmd_tables(args: argparse.Namespace) -> int:
    from repro.bench import tables

    wanted = set(args.numbers or [1, 2, 3, 4, 5])
    if 1 in wanted:
        print(tables.format_table1(tables.table1_rows(), "Table 1: call-site candidates"))
        print()
    if 2 in wanted:
        print(tables.format_table2(tables.table2_rows(), "Table 2: propagated constants"))
        print()
    if 3 in wanted:
        print(
            tables.format_table1(
                tables.table3_rows(), "Table 3: candidates (GT subset, no floats)"
            )
        )
        print()
    if 4 in wanted:
        print(
            tables.format_table2(
                tables.table4_rows(), "Table 4: propagated (GT subset, no floats)"
            )
        )
        print()
    if 5 in wanted:
        print(tables.format_table5(tables.table5_rows()))
    if "contexts" in wanted:
        from repro.bench.suite import compare_context_modes

        if 5 in wanted:
            print()
        print(tables.format_contexts(compare_context_modes()))
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    """Keep a session alive, re-analyzing the file whenever it changes."""
    from repro.api import AnalysisSession
    from repro.core.report import session_report

    obs = _obs_from(args)
    session = AnalysisSession(_load(args.file), _config_from(args), obs=obs)

    def analyze_once() -> None:
        result = session.analyze()
        print(result.summary())
        print(session_report(session))
        sys.stdout.flush()

    def file_stamp():
        # Float st_mtime loses sub-second precision, so an edit landing in
        # the same second as the last one compares equal and is missed;
        # stamp with (st_mtime_ns, st_size) instead, and let an unchanged
        # stamp fall back to a content hash below before declaring quiet.
        status = os.stat(args.file)
        return (status.st_mtime_ns, status.st_size)

    def content_hash():
        import hashlib

        with open(args.file, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()

    iterations = 0
    last_stamp = None
    last_hash = None
    try:
        analyze_once()
        last_stamp = file_stamp()
        last_hash = content_hash()
        while not args.max_iterations or iterations < args.max_iterations:
            time.sleep(args.interval)
            iterations += 1
            try:
                stamp = file_stamp()
                if stamp == last_stamp and content_hash() == last_hash:
                    continue
            except OSError as error:
                # Editors replace files non-atomically; retry next tick.
                print(f"watch: {error}", file=sys.stderr)
                continue
            last_stamp = stamp
            try:
                source = _load(args.file)
                last_hash = content_hash()
                changed = session.sync(source)
            except (ReproError, ValueError, OSError) as error:
                print(f"watch: {error}", file=sys.stderr)
                continue
            if not changed:
                print("watch: no procedure changed")
                continue
            print(f"watch: {changed} procedure(s) changed, re-analyzing")
            try:
                analyze_once()
            except (ReproError, ValueError) as error:
                print(f"watch: {error}", file=sys.stderr)
    except KeyboardInterrupt:
        pass
    # Only emit from a completed analysis: ^C before the first analyze()
    # finishes leaves session.result unset.
    if obs is not None and session.result is not None:
        _emit_observability(args, obs, [session.result])
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the analysis daemon (single-process or sharded) until interrupted."""
    import json as json_module

    from repro.serve import create_server

    # The server self-constructs its registry, tracer and logger from the
    # serve_* keys (each shard its own); --trace also turns tracing on.
    config = _config_from(args, serve_trace=bool(args.trace))
    server = create_server(config)
    host, port = server.start()
    store_note = f", store {config.store_dir}" if config.store_dir else ""
    shard_note = (
        f", {config.serve_shards} shard process(es)"
        if config.serve_shards
        else ""
    )
    print(
        f"repro-icp serve listening on http://{host}:{port} "
        f"({config.serve_workers} worker(s), queue {config.serve_max_queue}, "
        f"timeout {config.serve_timeout_seconds}s{shard_note}{store_note})",
        file=sys.stderr,
    )
    sys.stderr.flush()
    # A SIGTERM (systemd stop, process supervisor, `kill`) must run the
    # same orderly shutdown as ^C: without it the front dies mid-sleep
    # and leaves spawned shard workers orphaned.
    stop = threading.Event()
    try:
        previous_term = signal.signal(
            signal.SIGTERM, lambda signum, frame: stop.set()
        )
    except ValueError:  # not the main thread (embedded use)
        previous_term = None
    deadline = time.monotonic() + args.max_seconds
    try:
        while not stop.is_set() and (
            args.max_seconds <= 0 or time.monotonic() < deadline
        ):
            stop.wait(0.2)
    except KeyboardInterrupt:
        pass
    finally:
        # Export the fleet artifacts BEFORE closing: the merged trace and
        # the metrics snapshot need the shard processes still answering.
        if args.trace:
            try:
                trace = server.export_trace()
                with open(args.trace, "w", encoding="utf-8") as handle:
                    json_module.dump(trace, handle, indent=1)
                    handle.write("\n")
                print(
                    f"fleet trace written to {args.trace} "
                    f"({len(trace['traceEvents'])} events)",
                    file=sys.stderr,
                )
            except OSError as error:
                print(f"error writing trace: {error}", file=sys.stderr)
        if args.metrics_json and server.obs.metrics.enabled:
            try:
                server.obs.metrics.write(args.metrics_json)
                print(
                    f"metrics snapshot written to {args.metrics_json}",
                    file=sys.stderr,
                )
            except OSError as error:
                print(f"error writing metrics: {error}", file=sys.stderr)
        server.close()
        if previous_term is not None:
            signal.signal(signal.SIGTERM, previous_term)
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    """Live fleet dashboard over /healthz + /metrics."""
    from repro.obs.top import run_top

    if args.interval <= 0:
        print("error: --interval must be positive", file=sys.stderr)
        return 1
    return run_top(
        args.url,
        interval=args.interval,
        frames=args.frames,
        clear=not args.no_clear,
    )


#: Config-backed flags not spelled ``--<key-with-dashes>``.
_FLAG_NAMES = {
    "propagate_floats": "--no-floats",
    "propagate_returns": "--returns",
    "propagate_exit_values": "--exit-values",
    "cache": "--cache-stats",
    "serve_host": "--host",
    "serve_port": "--port",
    "serve_max_queue": "--max-queue",
    "serve_timeout_seconds": "--request-timeout",
    "serve_max_sessions": "--max-sessions",
    "serve_shards": "--shards",
    "serve_rebalance": "--rebalance",
    "serve_metrics": "--no-metrics",
    "serve_log_enabled": "--quiet",
    "serve_log_slow_ms": "--slow-ms",
}


def _config_flag(parser: argparse.ArgumentParser, key: str, default=None,
                 **kwargs) -> None:
    """Add the flag that sets config key ``key``.

    Type, choices, help and the shown default come from the
    :class:`ICPConfig` field.  An absent flag leaves the key out of the
    namespace (so to ``ICPConfig``) unless this subcommand passes its own
    ``default``.  A bool key gets a switch that flips its default.
    """
    spec = FIELDS[key]
    flag = _FLAG_NAMES.get(key, "--" + key.replace("_", "-"))
    help_text = spec.metadata["help"]
    kind = HINTS[key]
    if kind is bool:
        parser.add_argument(
            flag, dest=key, default=argparse.SUPPRESS,
            action="store_false" if spec.default else "store_true",
            help=("turn off: " if spec.default else "turn on: ") + help_text,
        )
        return
    if get_origin(kind) is Union:  # Optional[X]: the flag takes an X
        kind = get_args(kind)[0]
    shown = spec.default if default is None else default
    if shown is not None:
        help_text += f" (default: {shown})"
    parser.add_argument(
        flag, dest=key, type=kind, choices=spec.metadata.get("choices"),
        default=argparse.SUPPRESS if default is None else default,
        help=help_text, **kwargs,
    )


def _analysis_parent() -> argparse.ArgumentParser:
    """The analysis flags every analyzing subcommand shares."""
    parent = argparse.ArgumentParser(add_help=False)
    for key in (
        "propagate_floats", "propagate_returns", "propagate_exit_values",
        "engine", "context_mode", "context_max_per_proc", "cache",
        "store_dir", "store_max_bytes",
    ):
        _config_flag(parent, key)
    return parent


def _obs_parent() -> argparse.ArgumentParser:
    """The observability flags (--trace/--metrics-json/--profile)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--trace", metavar="OUT.json",
                        help="export a Chrome trace_event file of the run "
                             "(open in chrome://tracing or Perfetto)")
    parent.add_argument("--metrics-json", metavar="OUT.json", dest="metrics_json",
                        help="write a JSON snapshot of the unified metrics "
                             "registry (scheduler, cache, SCC counters)")
    parent.add_argument("--profile", action="store_true",
                        help="collect per-phase wall timings and print "
                             "the hot-procedure report")
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-icp",
        description=(
            "Flow-sensitive interprocedural constant propagation "
            "(Carini & Hind, PLDI 1995)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = _analysis_parent()
    obs_flags = _obs_parent()

    analyze_p = sub.add_parser("analyze", parents=[common, obs_flags],
                               help="report interprocedural constants")
    analyze_p.add_argument("file")
    analyze_p.add_argument("--timings", action="store_true")
    analyze_p.add_argument("--report", action="store_true",
                           help="detailed per-procedure report")
    analyze_p.set_defaults(func=_cmd_analyze)

    check = sub.add_parser(
        "check", parents=[common, obs_flags],
        help="run the interprocedural lint checks (diagnostics engine)",
    )
    check.add_argument("files", nargs="+", metavar="FILE")
    check.add_argument("--format", choices=("text", "json", "sarif"),
                       default="text", help="report format (default: text)")
    check.add_argument("--output", metavar="OUT",
                       help="write the report to OUT instead of stdout")
    check.add_argument("--rules", metavar="IDS",
                       help="comma-separated rule IDs to enable "
                            "(default: all rules)")
    check.add_argument("--severity-floor", choices=("note", "warning", "error"),
                       default=None, dest="severity_floor",
                       help="weakest severity to report (default: note)")
    check.add_argument("--sanitize", action="store_true",
                       help="also execute each program and cross-check "
                            "constant claims (ICP900)")
    check.add_argument("--max-steps", type=int, default=1_000_000,
                       help="interpreter step budget for --sanitize")
    check.add_argument("--baseline", metavar="PATH",
                       help="baseline file of accepted findings "
                            "(.icplint-baseline.json)")
    check.add_argument("--write-baseline", action="store_true",
                       help="write the surviving findings to --baseline "
                            "and exit 0")
    check.set_defaults(func=_cmd_check)

    graph = sub.add_parser("graph", parents=[common],
                           help="print the PCG as Graphviz DOT")
    graph.add_argument("file")
    graph.set_defaults(func=_cmd_graph)

    optimize = sub.add_parser("optimize", parents=[common],
                              help="print the transformed program")
    optimize.add_argument("file")
    optimize.add_argument("--clone", action="store_true",
                          help="clone procedures whose sites disagree on constants")
    optimize.add_argument("--inline", action="store_true",
                          help="inline small leaf procedures first")
    optimize.add_argument("--no-sweep", action="store_true",
                          help="keep dead assignments after substitution")
    optimize.set_defaults(func=_cmd_optimize)

    run = sub.add_parser("run", help="execute with the reference interpreter")
    run.add_argument("file")
    run.add_argument("--max-steps", type=int, default=1_000_000)
    run.set_defaults(func=_cmd_run)

    tables = sub.add_parser(
        "tables",
        help="regenerate the paper's tables or the value-context table",
    )
    tables.add_argument("numbers", nargs="*", type=_table_number,
                        metavar="N",
                        help="table numbers 1-5, or 'contexts' for the "
                             "context-mode comparison (default: 1-5)")
    tables.set_defaults(func=_cmd_tables)

    serve = sub.add_parser(
        "serve", parents=[common, obs_flags],
        help="run the analysis daemon (JSON over HTTP)",
    )
    for key in (
        "serve_host", "serve_port", "serve_workers", "serve_max_queue",
        "serve_timeout_seconds", "serve_max_sessions", "serve_shards",
        "serve_rebalance", "serve_log_enabled", "serve_metrics",
        "serve_log_slow_ms",
    ):
        _config_flag(serve, key)
    serve.add_argument("--max-seconds", type=float, default=0, metavar="S",
                       dest="max_seconds",
                       help="exit after S seconds (default: 0 = until ^C); "
                            "for smoke tests and CI")
    serve.set_defaults(func=_cmd_serve)

    top = sub.add_parser(
        "top",
        help="live dashboard over a serve fleet's /healthz + /metrics",
    )
    top.add_argument("--url", default="http://127.0.0.1:8100",
                     help="serve front to poll "
                          "(default: http://127.0.0.1:8100)")
    top.add_argument("--interval", type=float, default=2.0, metavar="SECONDS",
                     help="poll interval (default: 2)")
    top.add_argument("--frames", type=int, default=0, metavar="N",
                     help="render N frames then exit (default: 0 = forever); "
                          "for smoke tests and CI")
    top.add_argument("--no-clear", action="store_true", dest="no_clear",
                     help="append frames instead of clearing the screen "
                          "(useful when piping)")
    top.set_defaults(func=_cmd_top)

    watch = sub.add_parser(
        "watch", parents=[common, obs_flags],
        help="watch a file, re-analyzing incrementally on change",
    )
    watch.add_argument("file")
    watch.add_argument("--interval", type=float, default=0.5, metavar="SECONDS",
                       help="polling interval (default: 0.5)")
    watch.add_argument("--max-iterations", type=int, default=0, metavar="N",
                       help="stop after N polls (default: 0 = run until ^C)")
    watch.set_defaults(func=_cmd_watch)
    return parser


#: Subcommand names; a leading argument that is none of these (and not a
#: flag) must name a file, which is analyzed.
_SUBCOMMANDS = (
    "analyze", "check", "graph", "optimize", "run", "tables", "serve",
    "watch", "top",
)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] not in _SUBCOMMANDS and not argv[0].startswith("-"):
        if not os.path.exists(argv[0]):
            # Not a file to analyze: one line, not an argparse usage dump.
            print(f"error: {argv[0]!r} is neither a subcommand "
                  f"({', '.join(_SUBCOMMANDS)}) nor a file", file=sys.stderr)
            return 2
        argv.insert(0, "analyze")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
