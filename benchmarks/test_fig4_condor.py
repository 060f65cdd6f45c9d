"""FIG4 — Figure 4: the Condor daemon structure and submission flow.

Regenerates the figure's interactions as a wire trace (submit ->
matchmaker -> claim -> starter -> shadow) and sweeps pool size to report
submit-to-running latency — the schedd/matchmaker/startd path the figure
draws.
"""

import pytest
from conftest import print_table

from repro.condor.job import JobStatus
from repro.condor.pool import CondorPool
from repro.condor.submit import SubmitDescription
from repro.sim.cluster import SimCluster
from repro.util.clock import Stopwatch
from repro.util.log import TraceRecorder


def run_one_job(pool):
    with Stopwatch() as sw:
        job = pool.submit_description(SubmitDescription(executable="hello"))
        job.wait_for(JobStatus.RUNNING, JobStatus.COMPLETED, timeout=60.0)
    job.wait_terminal(timeout=60.0)
    return sw.seconds, job


def test_fig4_daemon_interactions(benchmark):
    cluster = SimCluster.flat(["submit", "node1", "node2"]).start()
    pool = CondorPool(cluster, submit_host="submit", execute_hosts=["node1", "node2"],
                      trace=TraceRecorder(clock=cluster.clock))
    try:
        latency, job = run_one_job(pool)
        trace = pool.trace
        # The Figure 4 flow, in order, on the wire.
        trace.assert_order(
            "submit",            # schedd represents the request
            "negotiate",         # schedd -> matchmaker
            "match_found",       # matchmaker pairs job & machine
            "claim_request",     # schedd -> startd (claiming protocol)
            "claim_accepted",
            "spawn_shadow",      # schedd spawns the shadow
            "activate_claim",
            "spawn_starter",     # startd spawns the starter
            "job_started",       # starter -> shadow
            "job_exited",
        )
        print(trace.format("Figure 4: daemon interaction trace"))
        assert job.status is JobStatus.COMPLETED

        benchmark.pedantic(lambda: run_one_job(pool), rounds=10, iterations=1)
        benchmark.extra_info["submit_to_running_s"] = round(latency, 6)
    finally:
        pool.stop()
        cluster.stop()


@pytest.mark.parametrize("machines", [1, 4, 16, 32])
def test_fig4_pool_size_sweep(benchmark, machines):
    hosts = [f"node{i}" for i in range(machines)]
    cluster = SimCluster.flat(["submit", *hosts]).start()
    pool = CondorPool(cluster, submit_host="submit", execute_hosts=hosts)
    try:
        latency, job = run_one_job(pool)
        assert job.status is JobStatus.COMPLETED
        benchmark.pedantic(lambda: run_one_job(pool), rounds=5, iterations=1)
        benchmark.extra_info["pool_size"] = machines
        print_table(
            f"Figure 4 sweep: pool of {machines} machine(s)",
            ["metric", "value"],
            [
                ["machines advertised", len(pool.matchmaker.machine_names())],
                ["submit->running (cold)", f"{latency:.6f}s"],
            ],
        )
    finally:
        pool.stop()
        cluster.stop()


def test_fig4_remote_syscall_path(benchmark):
    """The shadow's remote-I/O role: job output lands on the submit host."""
    cluster = SimCluster.flat(["submit", "node1"]).start()
    pool = CondorPool(cluster, submit_host="submit", execute_hosts=["node1"])
    try:
        job = pool.submit_description(
            SubmitDescription(executable="hello", arguments=["fig4"], output="out.txt")
        )
        assert job.wait_terminal(timeout=60.0) is JobStatus.COMPLETED
        import time

        deadline = time.monotonic() + 10.0
        fs = cluster.host("submit").filesystem
        while "out.txt" not in fs and time.monotonic() < deadline:
            time.sleep(0.01)
        assert fs["out.txt"] == "hello, fig4\n"
        print("\nshadow remote I/O: execution-node stdout written on submit host: OK")
        benchmark(lambda: fs.get("out.txt"))
    finally:
        pool.stop()
        cluster.stop()
