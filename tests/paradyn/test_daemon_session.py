"""paradynd hears of its application's exit through its subscription to
``proc.<pid>.status``.  Its session to the LASS does not reconnect
(``tdp_init`` without a policy), so no notification can be lost to a
reconnect gap: a lost session delivers nothing more, and it ends
paradynd at once instead of leaving it sampling until the starter's
stop."""

from repro.condor.job import JobStatus
from repro.parador.run import ParadorScenario
from repro.util.log import TraceRecorder


def test_a_lost_session_ends_paradynd_at_once():
    with ParadorScenario(execute_hosts=["node1"], trace=TraceRecorder()) as scenario:
        run = scenario.submit_monitored("spin")
        assert run.session.wait_state("running", timeout=30.0)
        tool = scenario.pool.startds["node1"].starters()[0]._tool_handle
        session = tool.daemon.handle.attrs
        with session._session._lock:
            channel = session._session._channel
        channel.close()  # the link to the LASS is cut
        tool.join(timeout=2.0)  # raises if paradynd is still sampling
        assert session.events.closed
        assert "session.reestablished" not in [e["event"] for e in session.session_log]
        assert scenario.trace.first("app_exited") is None
        scenario.pool.schedd.remove(str(run.job.job_id))
        assert run.job.wait_terminal(timeout=30.0) is JobStatus.REMOVED
