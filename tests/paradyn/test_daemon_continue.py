"""paradynd's final ``tdp_continue_process`` has a defined outcome when
the RM refuses it: wait for the published status to read stopped, ask
again (three tries), and failing that tell the front-end so."""

import logging
import time

import pytest

from repro.condor.job import JobStatus
from repro.errors import InvalidProcessStateError
from repro.paradyn.daemon import ParadynDaemon
from repro.parador.run import ParadorScenario
from repro.tdp.process import SimHostBackend
from repro.util.log import TraceRecorder


@pytest.fixture
def refuse_continues(monkeypatch):
    """``refuse_continues(first, last)``: the backend raises on its
    ``first``..``last`` continue calls (1-based; 1 is run-to-main, 2 the
    final continue).  Returns the list the calls are logged in."""
    monkeypatch.setattr(ParadynDaemon, "CONTINUE_RETRY_WAIT", 0.05)
    calls = []

    def arm(first, last):
        real = SimHostBackend.continue_process

        def continue_process(self, pid):
            calls.append(pid)
            if first <= len(calls) <= last:
                raise InvalidProcessStateError(f"pid {pid} is not stopped")
            real(self, pid)

        monkeypatch.setattr(SimHostBackend, "continue_process", continue_process)
        return calls

    return arm


def test_refused_once_is_retried_and_the_job_runs(refuse_continues):
    calls = refuse_continues(2, 2)
    with ParadorScenario(execute_hosts=["node1"], trace=TraceRecorder()) as scenario:
        run = scenario.submit_monitored("foo", "2 0.05")
        assert run.session.wait_state("running", "exited", timeout=30.0)
        assert run.job.wait_terminal(timeout=60.0) is JobStatus.COMPLETED
        run.session.wait_state("exited", timeout=30.0)
        assert len(scenario.trace.events(action="continue_refused")) == 1
        assert scenario.trace.first("continue_lost") is None
    assert len(calls) == 3


def test_still_refused_is_reported_not_papered_over(refuse_continues, caplog):
    calls = refuse_continues(2, 10**9)
    with ParadorScenario(
        execute_hosts=["node1"], trace=TraceRecorder()
    ) as scenario, caplog.at_level(logging.WARNING, logger="repro.paradyn.frontend"):
        run = scenario.submit_monitored("foo", "2 0.05")
        deadline = time.monotonic() + 30.0
        while scenario.trace.first("continue_lost") is None:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert len(scenario.trace.events(action="continue_refused")) == 3
        assert run.session.app_state == "at_main"  # never told "running"
        # the sampling loop is what observes the exit
        scenario.pool.schedd.remove(str(run.job.job_id))
        assert run.job.wait_terminal(timeout=30.0) is JobStatus.REMOVED
        run.session.wait_state("exited", timeout=30.0)
    assert any("refused" in r.getMessage() for r in caplog.records)
    assert len(calls) == 1 + ParadynDaemon.CONTINUE_ATTEMPTS
