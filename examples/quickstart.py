#!/usr/bin/env python3
"""Quickstart: run one Condor job monitored by Paradyn through TDP.

This is the paper's pilot in ~20 lines: a submit file with the
``+SuspendJobAtExec`` / ``+ToolDaemon*`` extensions launches the
application paused, the starter publishes its pid in the Local Attribute
Space, paradynd picks it up with a blocking ``tdp_get``, attaches,
instruments, and lets it run — while the job's stdout still flows back
through Condor's shadow.

Run:  python examples/quickstart.py
"""

from repro.paradyn.metrics import Metric
from repro.parador.run import ParadorScenario
from repro.util.log import TraceRecorder


def main() -> None:
    trace = TraceRecorder()
    with ParadorScenario(execute_hosts=["node1"], trace=trace) as scenario:
        # "foo" is the executable name from the paper's Figure 5B — a
        # multi-phase workload with a planted bottleneck in compute_b.
        run = scenario.submit_monitored("foo", "10 0.1")
        status = run.job.wait_terminal(timeout=60.0)
        run.session.wait_state("exited", timeout=30.0)

        print(f"job {run.job.job_id}: {status.value}, exit code {run.job.exit_code}")
        print(f"ran on: {', '.join(run.job.machines)}")
        print(f"paradynd monitored pid {run.session.pid} ({run.session.executable})")
        cpu = run.session.latest(Metric.PROC_CPU.value)
        print(f"application CPU observed by the tool: {cpu:.3f}s (virtual)")
        print()
        print("TDP protocol trace (starter + paradynd):")
        for event in trace.events():
            if event.actor in ("starter", "paradynd"):
                print(f"  {event}")


if __name__ == "__main__":
    main()
