"""End-to-end Condor pool tests: vanilla universe, unmonitored jobs."""

import time

import pytest

from repro.condor.job import JobStatus
from repro.condor.pool import CondorPool
from repro.condor.submit import SubmitDescription
from repro.sim.cluster import SimCluster
from repro.util.clock import VirtualClock
from repro.util.log import TraceRecorder


@pytest.fixture
def world():
    with SimCluster.flat(["submit", "node1", "node2"]) as cluster:
        pool = CondorPool(
            cluster, submit_host="submit", execute_hosts=["node1", "node2"],
            trace=TraceRecorder(clock=cluster.clock),
        )
        yield cluster, pool
        pool.stop()


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)
    return predicate()


class TestVanillaJobs:
    def test_job_runs_to_completion(self, world):
        _cluster, pool = world
        job = pool.submit_description(
            SubmitDescription(executable="hello", arguments=["condor"])
        )
        assert job.wait_terminal(timeout=30.0) is JobStatus.COMPLETED
        assert job.exit_code == 0
        assert job.machines and job.machines[0] in ("node1", "node2")

    def test_job_output_reaches_shadow(self, world):
        cluster, pool = world
        job = pool.submit_description(
            SubmitDescription(
                executable="hello", arguments=["world"], output="outfile"
            )
        )
        job.wait_terminal(timeout=30.0)
        import time

        deadline = time.monotonic() + 5.0
        while not job.stdout_lines and time.monotonic() < deadline:
            time.sleep(0.01)
        assert job.stdout_lines == ["hello, world"]
        # The shadow performed the remote I/O onto the submit host.
        assert cluster.host("submit").filesystem.get("outfile") == "hello, world\n"

    def test_nonzero_exit_code_propagates(self, world):
        _cluster, pool = world
        job = pool.submit_description(
            SubmitDescription(executable="exiter", arguments=["5"])
        )
        assert job.wait_terminal(timeout=30.0) is JobStatus.COMPLETED
        assert job.exit_code == 5

    def test_two_jobs_two_machines(self, world):
        _cluster, pool = world
        jobs = [
            pool.submit_description(SubmitDescription(executable="hello"))
            for _ in range(2)
        ]
        for job in jobs:
            assert job.wait_terminal(timeout=30.0) is JobStatus.COMPLETED
        # Both machines exist; each job landed somewhere.
        assert all(j.machines for j in jobs)

    def test_more_jobs_than_machines_queue(self, world):
        _cluster, pool = world
        jobs = [
            pool.submit_description(
                SubmitDescription(executable="cpu_burn", arguments=["0.2"])
            )
            for _ in range(5)
        ]
        for job in jobs:
            assert job.wait_terminal(timeout=60.0) is JobStatus.COMPLETED

    def test_queued_job_runs_as_soon_as_a_machine_frees(self, world):
        """A job that found every machine busy is retried when this schedd
        releases one, not when its retry timer next fires."""
        _cluster, pool = world
        pool.schedd.RETRY_INTERVAL = 60.0
        busy = [
            pool.submit_description(SubmitDescription(executable="spin"))
            for _ in range(2)
        ]
        for job in busy:
            job.wait_for(JobStatus.RUNNING, timeout=30.0)
            assert wait_until(lambda: job.app_pid is not None)
        waiting = pool.submit_description(SubmitDescription(executable="hello"))
        time.sleep(0.1)  # its first placement finds both machines claimed
        assert waiting.status is JobStatus.IDLE
        pool.schedd.remove(str(busy[0].job_id))
        assert waiting.wait_terminal(timeout=10.0) is JobStatus.COMPLETED
        pool.schedd.remove(str(busy[1].job_id))
        assert busy[1].wait_terminal(timeout=30.0) is JobStatus.REMOVED

    def test_a_long_queue_of_short_jobs_all_run(self, world):
        """Jobs behind many others are retried on every release; those
        retries do not use up the budget that fails an unplaceable job."""
        _cluster, pool = world
        jobs = [
            pool.submit_description(SubmitDescription(executable="hello"))
            for _ in range(30)
        ]
        assert [job.wait_terminal(timeout=60.0) for job in jobs] == (
            [JobStatus.COMPLETED] * 30
        )

    def test_a_machine_advertised_after_the_submit_is_found(self, world):
        """No release will ever wake a job whose machine joins the pool
        after it was submitted: the retry timer is what places it."""
        _cluster, pool = world
        job = pool.submit_description(
            SubmitDescription(executable="hello", requirements="TARGET.Memory >= 4096")
        )
        time.sleep(0.1)  # its first placements find no such machine
        assert job.status is JobStatus.IDLE
        pool.startds["node2"].ad.attrs["Memory"] = 4096
        pool._advertise(pool.startds["node2"])
        assert job.wait_terminal(timeout=30.0) is JobStatus.COMPLETED
        assert job.machines == ["node2"]

    def test_a_parked_job_has_one_live_timer(self, world):
        """A job a release requeued and that parked again is requeued by
        its new timer only, and a release's retries are not counted."""
        _cluster, pool = world
        schedd = pool.schedd
        schedd._clock = clock = VirtualClock()
        schedd.MAX_ATTEMPTS = 2
        placements = []
        rpc = schedd._matchmaker_rpc

        def counted_rpc(message):
            if message["op"] == "negotiate":
                placements.append(message)
            return rpc(message)

        schedd._matchmaker_rpc = counted_rpc
        job = pool.submit_description(
            SubmitDescription(executable="hello", requirements="TARGET.Memory >= 999999")
        )
        job_id = str(job.job_id)

        def parked_after(n):
            with schedd._cond:
                return len(placements) == n and job_id in schedd._parked

        # Each release comes 0.6 retry intervals after the last parking,
        # so from the second on, each step also brings a stale timer due.
        for releases in range(4):
            assert wait_until(lambda n=releases + 1: parked_after(n))
            clock.advance(schedd.RETRY_INTERVAL * 0.6)
            schedd._unpark()  # what the release worker does after freeing a claim
        assert wait_until(lambda: parked_after(5))
        clock.advance(schedd.RETRY_INTERVAL * 0.6)  # the last stale timer
        time.sleep(0.1)
        assert parked_after(5) and job.status is JobStatus.IDLE
        clock.advance(schedd.RETRY_INTERVAL)  # the live one
        assert job.wait_terminal(timeout=10.0) is JobStatus.FAILED
        assert len(placements) == 6

    def test_requirements_select_machine(self, world):
        cluster, pool = world
        # Give node2 more memory, then require it.
        pool.startds["node2"].ad.attrs["Memory"] = 4096
        pool._advertise(pool.startds["node2"])
        job = pool.submit_description(
            SubmitDescription(
                executable="hello", requirements="TARGET.Memory >= 4096"
            )
        )
        assert job.wait_terminal(timeout=30.0) is JobStatus.COMPLETED
        assert job.machines == ["node2"]

    def test_impossible_requirements_fail(self, world):
        _cluster, pool = world
        pool.schedd.RETRY_INTERVAL = 0.01
        job = pool.submit_description(
            SubmitDescription(
                executable="hello", requirements="TARGET.Memory >= 999999"
            )
        )
        assert job.wait_terminal(timeout=30.0) is JobStatus.FAILED
        assert "match" in (job.failure_reason or "")

    def test_unknown_executable_fails_job(self, world):
        _cluster, pool = world
        job = pool.submit_description(SubmitDescription(executable="no_such"))
        assert job.wait_terminal(timeout=30.0) is JobStatus.FAILED

    def test_machines_released_after_completion(self, world):
        _cluster, pool = world
        job = pool.submit_description(SubmitDescription(executable="hello"))
        job.wait_terminal(timeout=30.0)
        import time

        deadline = time.monotonic() + 5.0
        while pool.matchmaker.reserved_count() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert pool.matchmaker.reserved_count() == 0

    def test_stdin_flows_to_job(self, world):
        _cluster, pool = world
        job = pool.submit_description(SubmitDescription(executable="echo_stdin"))
        job.wait_for(JobStatus.RUNNING, timeout=30.0)
        shadow = pool.schedd._shadows[str(job.job_id)]
        shadow.stdio.send_stdin("from-the-user")
        import time

        deadline = time.monotonic() + 10.0
        while not job.stdout_lines and time.monotonic() < deadline:
            time.sleep(0.01)
        assert job.stdout_lines == ["echo: from-the-user"]
        shadow.stdio.send_eof()
        assert job.wait_terminal(timeout=30.0) is JobStatus.COMPLETED


class TestTrace:
    def test_figure4_interaction_sequence(self, world):
        """The Figure 4 daemon interactions, observed on the wire."""
        _cluster, pool = world
        job = pool.submit_description(SubmitDescription(executable="hello"))
        job.wait_terminal(timeout=30.0)
        trace = pool.trace
        trace.assert_order(
            "submit",
            "negotiate",
            "match_found",
            "claim_request",
            "claim_accepted",
            "spawn_shadow",
            "activate_claim",
            "spawn_starter",
            "job_exited",
        )
