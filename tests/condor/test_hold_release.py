"""condor_hold / condor_release: RM-initiated suspension under TDP.

The paper's Section 2.3 concern in the RM->tool direction: when the RM
pauses the application, the state change flows through the attribute
space, so an attached tool sees a legitimate 'stopped' instead of
suspecting a fault.
"""

import time

import pytest

from repro.condor.job import JobId, JobRecord, JobStatus
from repro.condor.pool import CondorPool
from repro.condor.submit import SubmitDescription
from repro.errors import ResourceManagerError
from repro.sim.cluster import SimCluster
from repro.sim.process import ProcessState


@pytest.fixture
def world():
    with SimCluster.flat(["submit", "node1"]) as cluster:
        pool = CondorPool(cluster, submit_host="submit", execute_hosts=["node1"])
        yield cluster, pool
        pool.stop()


def running_spin_job(pool):
    job = pool.submit_description(SubmitDescription(executable="spin"))
    job.wait_for(JobStatus.RUNNING, timeout=30.0)
    # The app pid is reported asynchronously by the shadow.
    deadline = time.monotonic() + 10.0
    while job.app_pid is None and time.monotonic() < deadline:
        time.sleep(0.01)
    assert job.app_pid is not None
    return job


class TestHoldRelease:
    def test_hold_pauses_the_process(self, world):
        cluster, pool = world
        job = running_spin_job(pool)
        pool.schedd.hold(str(job.job_id))
        assert job.status is JobStatus.HELD
        proc = cluster.host("node1").get_process(job.app_pid)
        assert proc.state is ProcessState.STOPPED
        cpu_at_hold = proc.cpu_time
        time.sleep(0.05)
        assert proc.cpu_time == cpu_at_hold  # really held
        pool.schedd.release(str(job.job_id))
        assert job.status is JobStatus.RUNNING
        deadline = time.monotonic() + 5.0
        while proc.cpu_time <= cpu_at_hold and time.monotonic() < deadline:
            time.sleep(0.01)
        assert proc.cpu_time > cpu_at_hold  # running again
        proc.terminate()
        job.wait_terminal(timeout=30.0)

    def test_hold_idle_job_rejected(self, world):
        _cluster, pool = world
        pool.schedd.RETRY_INTERVAL = 0.5
        job = pool.submit_description(
            SubmitDescription(executable="hello",
                              requirements="TARGET.Memory >= 1000000")
        )
        with pytest.raises(ResourceManagerError, match="no active claim"):
            pool.schedd.hold(str(job.job_id))

    def test_hold_completed_job_rejected(self, world):
        _cluster, pool = world
        job = pool.submit_description(SubmitDescription(executable="hello"))
        job.wait_terminal(timeout=30.0)
        deadline = time.monotonic() + 10.0
        while str(job.job_id) in pool.schedd._active_claims and (
            time.monotonic() < deadline
        ):
            time.sleep(0.01)
        with pytest.raises(ResourceManagerError):
            pool.schedd.hold(str(job.job_id))

    def test_a_finished_job_stays_finished(self):
        """A reply that raced the job's end (a release answered as it
        exited) does not revive it: how a job ended is final."""
        record = JobRecord(JobId(1), SubmitDescription(executable="hello"))
        record.set_status(JobStatus.COMPLETED, exit_code=0)
        record.set_status(JobStatus.RUNNING)
        assert record.status is JobStatus.COMPLETED
        assert record.wait_terminal(timeout=1.0) is JobStatus.COMPLETED

    def test_status_stream_reflects_hold(self, world):
        """The tool-visible story: proc.<pid>.status shows stopped/running."""
        cluster, pool = world
        job = running_spin_job(pool)
        lass = pool.startds["node1"].lass
        context = str(job.job_id)
        from repro.tdp.wellknown import Attr, ProcStatus

        pool.schedd.hold(context)
        assert lass.store.try_get(
            Attr.proc_status(job.app_pid), context=context
        ) == ProcStatus.STOPPED
        pool.schedd.release(context)
        assert lass.store.try_get(
            Attr.proc_status(job.app_pid), context=context
        ) == ProcStatus.RUNNING
        cluster.host("node1").get_process(job.app_pid).terminate()
        job.wait_terminal(timeout=30.0)


class TestHoldWithTool:
    def test_tool_sees_legitimate_stop_not_fault(self):
        """A monitored job held by the user: the paradynd keeps running,
        observes the stopped status, and resumes sampling after release —
        no fault, no crash, correct final exit observation."""
        from repro.parador.run import ParadorScenario

        with ParadorScenario(execute_hosts=["node1"]) as scenario:
            run = scenario.submit_monitored("spin", "")
            run.job.wait_for(JobStatus.RUNNING, timeout=30.0)
            # Let paradynd finish its startup (attach/continue dance)
            # before the user's hold, so hold/release don't interleave
            # with the launch protocol.
            run.session.wait_state("running", timeout=30.0)
            deadline = time.monotonic() + 10.0
            while run.job.app_pid is None and time.monotonic() < deadline:
                time.sleep(0.01)

            scenario.pool.schedd.hold(str(run.job.job_id))
            time.sleep(0.1)  # the tool samples across the held window
            scenario.pool.schedd.release(str(run.job.job_id))

            # Finish the job; the tool must still observe a clean exit.
            proc = scenario.cluster.host("node1").get_process(run.job.app_pid)
            proc.terminate(15)
            run.job.wait_terminal(timeout=30.0)
            run.session.wait_state("exited", timeout=30.0)
            assert run.session.exit_code == 128 + 15
