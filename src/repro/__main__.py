"""Command-line entry point: ``python -m repro <command>``.

Small operational surface for exploring the reproduction without
writing code:

* ``quickstart`` — run the monitored-job pilot and print the trace;
* ``fig3`` — print both Figure 3 call sequences from live runs;
* ``consultant`` — run the Performance Consultant on the planted
  bottleneck workload;
* ``info`` — version, registered executables, standard attributes;
* ``lint`` — AST linter for TDP invariants (``lint --list-rules``);
* ``manifests dump|check`` — regenerate / verify the committed lock
  files: the wire schema (``protocol.lock.json``) and the guarded-by
  manifest (``guards.lock.json``);
* ``obs dump`` — print the flight recorder + metrics, export traces
  (``TDP_OBS=1`` enables recording; ``--run-pilot`` generates a run).
"""

from __future__ import annotations

import argparse
import sys


def cmd_quickstart(_args: argparse.Namespace) -> int:
    from repro.parador.run import ParadorScenario
    from repro.util.log import TraceRecorder

    trace = TraceRecorder()
    with ParadorScenario(execute_hosts=["node1"], trace=trace) as scenario:
        run = scenario.submit_monitored("foo", "5 0.1")
        status = run.job.wait_terminal(timeout=60.0)
        run.session.wait_state("exited", timeout=30.0)
        print(f"job {run.job.job_id}: {status.value} (exit {run.job.exit_code})")
        print(f"tool observed {run.session.latest('proc_cpu'):.4f}s of app CPU")
        print()
        for event in trace.events():
            if event.actor in ("starter", "paradynd"):
                print(f"  {event}")
    return 0


def cmd_fig3(_args: argparse.Namespace) -> int:
    from repro.attrspace.server import AttributeSpaceServer, ServerRole
    from repro.sim.cluster import SimCluster
    from repro.util.log import TraceRecorder, record_event

    # Reuse the bench's sequence drivers (they live in benchmarks/, which
    # is not a package; inline minimal versions here instead).
    from repro.tdp.api import (
        tdp_attach, tdp_continue_process, tdp_create_process, tdp_exit,
        tdp_get, tdp_init, tdp_kill, tdp_put, tdp_wait_exit,
    )
    from repro.tdp.handle import Role
    from repro.tdp.process import SimHostBackend
    from repro.tdp.wellknown import Attr, CreateMode

    with SimCluster.flat(["node1"]) as cluster:
        lass = AttributeSpaceServer(cluster.transport, "node1", role=ServerRole.LASS)
        for mode, executable in (("create", "hello"), ("attach", "server_loop")):
            trace = TraceRecorder(clock=cluster.clock)
            context = f"fig3-{mode}"
            rm = tdp_init(cluster.transport, lass.endpoint, member="RM",
                          role=Role.RM, context=context,
                          backend=SimHostBackend(cluster.host("node1")))
            rm.control.serve_tool_requests()
            rm.start_service_loop()
            record_event(trace, "RM", "tdp_init")
            create_mode = CreateMode.PAUSED if mode == "create" else CreateMode.RUN
            info = tdp_create_process(rm, executable, mode=create_mode)
            record_event(trace, "RM", "tdp_create_process",
                         target="AP", mode=create_mode.value)
            tdp_put(rm, Attr.PID, str(info.pid))
            rt = tdp_init(cluster.transport, lass.endpoint, member="RT",
                          role=Role.RT, context=context, src_host="node1")
            record_event(trace, "RT", "tdp_init")
            pid = int(tdp_get(rt, Attr.PID, timeout=10.0))
            tdp_attach(rt, pid)
            record_event(trace, "RT", "tdp_attach", pid=pid)
            tdp_continue_process(rt, pid)
            record_event(trace, "RT", "tdp_continue_process", pid=pid)
            if mode == "create":
                tdp_wait_exit(rt, pid, timeout=10.0)
            else:
                tdp_kill(rt, pid)
            rm.stop_service_loop()
            tdp_exit(rt)
            tdp_exit(rm)
            print(trace.format(f"Figure 3{'A' if mode == 'create' else 'B'} "
                               f"({mode} mode)"))
            print()
        lass.stop()
    return 0


def cmd_consultant(_args: argparse.Namespace) -> int:
    from repro.paradyn.consultant import PerformanceConsultant
    from repro.parador.run import ParadorScenario

    with ParadorScenario(execute_hosts=["node1"], auto_run=False) as scenario:
        run = scenario.submit_monitored("foo", "10 0.1")
        run.session.wait_state("at_main", timeout=30.0)
        result = PerformanceConsultant(run.session).search()
        run.job.wait_terminal(timeout=60.0)
        print(result.format())
    return 0


def _manifests():
    """The committed lock files: (file name, inference, lock payload,
    the payload's table to count in the summary)."""
    from repro.analysis import guards, wireschema

    return (
        (wireschema.LOCK_FILENAME, wireschema.infer_from_tree,
         wireschema.to_lock, "ops"),
        (guards.LOCK_FILENAME, guards.infer_from_tree, guards.to_lock, "fields"),
    )


def cmd_manifests(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis.core import load_lock, lock_drift, render_lock

    root = Path(args.root) if args.root else Path(__file__).resolve().parents[2]
    failed = False
    for filename, infer, to_lock, counted in _manifests():
        path = root / filename
        current = to_lock(infer())
        summary = f"{len(current[counted])} {counted}"
        if args.manifests_command == "dump":
            path.write_text(render_lock(current), encoding="utf-8")
            print(f"wrote {path} ({summary})")
        elif not path.exists():
            print(f"missing lock file: {path}", file=sys.stderr)
            failed = True
        elif drift := lock_drift(load_lock(path), current):
            print(f"drift against {path}:", file=sys.stderr)
            for line in drift:
                print(f"  {line}", file=sys.stderr)
            failed = True
        else:
            print(f"{path} matches the source tree ({summary})")
    if failed:
        print("run `python -m repro manifests dump` and review the diff",
              file=sys.stderr)
    return 1 if failed else 0


def cmd_obs_dump(args: argparse.Namespace) -> int:
    from repro import obs

    if args.run_pilot:
        # Generate something to dump: run the monitored-job pilot with
        # observability forced on in this process.
        obs.set_enabled(True)
        from repro.parador.run import ParadorScenario

        with ParadorScenario(execute_hosts=["node1"]) as scenario:
            run = scenario.submit_monitored("foo", "5 0.1")
            run.job.wait_terminal(timeout=60.0)
            run.session.wait_state("exited", timeout=30.0)
    if not obs.enabled():
        print("observability is off — set TDP_OBS=1 (or pass --run-pilot)")
    for event in obs.recorder().tail(args.limit):
        print(event)
    print(f"\n{len(obs.recorder())} events in the ring, "
          f"{len(obs.store())} spans retained")
    report = obs.export.metrics_report()
    for reg_name in sorted(report):
        print(f"\nmetrics [{reg_name}]")
        for name, value in sorted(report[reg_name].items()):
            print(f"  {name} = {value}")
    if args.chrome:
        n = obs.export.write_chrome_trace(args.chrome)
        print(f"\nwrote {n} span slices to {args.chrome} "
              "(open in about:tracing or Perfetto)")
    if args.jsonl:
        n = obs.export.write_jsonl(args.jsonl)
        print(f"wrote {n} JSON-lines events to {args.jsonl}")
    return 0


def cmd_info(_args: argparse.Namespace) -> int:
    import repro
    from repro.sim.loader import default_registry
    from repro.tdp.wellknown import Attr

    print(f"repro {repro.__version__} — TDP (SC 2003) reproduction")
    print(f"\nregistered executables: {', '.join(default_registry().names())}")
    print("\nstandard attributes:")
    for name in (Attr.PID, Attr.EXECUTABLE_NAME, Attr.APP_HOST, Attr.APP_ARGS,
                 Attr.RT_FRONTEND, Attr.RM_PROXY, Attr.STDIO_ENDPOINT):
        print(f"  {name}")
    print("\nsee README.md for the full tour; DESIGN.md for the paper mapping")
    return 0


def main(argv: list[str] | None = None) -> int:
    # `lint` forwards its whole argv to the linter's own parser; route it
    # before argparse, which would otherwise claim leading options like
    # `lint --list-rules` for the top-level parser.
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        from repro.analysis.cli import main as lint_main

        return lint_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="TDP (SC 2003) reproduction — exploration commands",
        epilog="lint [PATH ...]: the TDP invariant linter (see `lint --help`)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("quickstart", help="run the monitored-job pilot").set_defaults(
        func=cmd_quickstart
    )
    sub.add_parser("fig3", help="print both Figure 3 call sequences").set_defaults(
        func=cmd_fig3
    )
    sub.add_parser("consultant", help="run the bottleneck search").set_defaults(
        func=cmd_consultant
    )
    sub.add_parser("info", help="version and registries").set_defaults(func=cmd_info)
    obs_parser = sub.add_parser(
        "obs", help="observability: flight recorder, metrics, trace export"
    )
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)
    dump = obs_sub.add_parser(
        "dump", help="print the event ring and metrics; optionally export"
    )
    dump.add_argument("--limit", type=int, default=50,
                      help="ring tail length to print (default 50)")
    dump.add_argument("--chrome", metavar="PATH",
                      help="write spans as Chrome trace_event JSON")
    dump.add_argument("--jsonl", metavar="PATH",
                      help="write flight-recorder events as JSON lines")
    dump.add_argument("--run-pilot", action="store_true",
                      help="run the monitored-job pilot first, obs enabled")
    dump.set_defaults(func=cmd_obs_dump)
    manifests = sub.add_parser(
        "manifests",
        help="protocol.lock.json and guards.lock.json: regenerate or verify",
    )
    manifests.add_argument(
        "manifests_command", choices=("dump", "check"),
        help="dump: re-infer both and rewrite them; check: verify both "
        "match the source tree",
    )
    manifests.add_argument("--root", metavar="DIR",
                           help="directory holding both files "
                           "(default: the repo root)")
    manifests.set_defaults(func=cmd_manifests)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
