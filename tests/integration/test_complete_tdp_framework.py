"""Integration: the 'complete TDP framework' (CASS-managed global attributes).

The pilot "managed only the Local Attribute Space (LASS) at the remote
host; no management of global attributes were included", and the paper
states how the complete framework should work: "port arguments should be
published by Paradyn front-end and disseminated to remote sites as
attribute values" (Section 4.3).  This is that completion:

* the schedd (RM front-end) starts the CASS,
* the Paradyn front-end publishes ``rt.frontend`` into it,
* each starter disseminates the global attributes into its job's LASS
  context,
* paradynd — launched with NO ``-m/-p/-P`` arguments — finds its
  front-end purely through the attribute space.
"""

import time

import pytest

from repro.condor.job import JobStatus
from repro.parador.run import ParadorScenario, monitored_submit_text
from repro.tdp.wellknown import Attr
from repro.util.log import TraceRecorder


@pytest.fixture
def scenario():
    with ParadorScenario(
        execute_hosts=["node1"], use_cass=True, trace=TraceRecorder()
    ) as s:
        yield s


class TestCassManagedFramework:
    def test_submit_file_has_no_port_arguments(self, scenario):
        text = monitored_submit_text(
            "foo", "1", frontend_host=None, port1=None, port2=None
        )
        assert "-m" not in text and "-p2" not in text
        assert "-a%pid" in text  # the TDP marker remains

    def test_cass_started_by_rm_frontend(self, scenario):
        cass = scenario.pool.schedd.cass
        assert cass is not None
        assert cass.role.value == "cass"
        assert cass.host == scenario.submit_host

    def test_frontend_endpoint_published_centrally(self, scenario):
        assert scenario._cass_client is not None
        value = scenario._cass_client.try_get(Attr.RT_FRONTEND)
        assert value == str(scenario.frontend.endpoint)

    def test_monitored_job_without_port_args(self, scenario):
        """The headline: paradynd connects to its front-end with zero
        endpoint information on its command line."""
        run = scenario.submit_monitored("foo", "4 0.05")
        assert run.job.wait_terminal(timeout=60.0) is JobStatus.COMPLETED
        run.session.wait_state("exited", timeout=30.0)
        # The daemon really connected (it is a registered session) and
        # its args really had no -m/-p.
        assert run.session.pid == run.job.app_pid
        daemon_events = scenario.trace.events(actor="paradynd")
        assert any(e.action == "frontend_connected" for e in daemon_events)

    def test_dissemination_recorded(self, scenario):
        run = scenario.submit_monitored("foo", "2 0.05")
        run.job.wait_terminal(timeout=60.0)
        event = scenario.trace.first("disseminate")
        assert event is not None
        assert event.details["attribute"] == Attr.RT_FRONTEND
        assert event.details["value"] == str(scenario.frontend.endpoint)

    def test_lass_context_received_global_attribute(self, scenario):
        run = scenario.submit_monitored("foo", "2 0.05")
        run.job.wait_terminal(timeout=60.0)
        lass = scenario.pool.startds["node1"].lass
        value = lass.store.try_get(
            Attr.RT_FRONTEND, context=str(run.job.job_id)
        )
        assert value == str(scenario.frontend.endpoint)

    def test_consultant_works_in_cass_mode(self):
        from repro.paradyn.consultant import PerformanceConsultant

        with ParadorScenario(
            execute_hosts=["node1"], use_cass=True, auto_run=False
        ) as scenario:
            run = scenario.submit_monitored("foo", "6 0.1")
            run.session.wait_state("at_main", timeout=30.0)
            result = PerformanceConsultant(run.session).search()
            run.job.wait_terminal(timeout=60.0)
            assert result.bottlenecks and result.bottlenecks[0] == "compute_b"


class TestPilotModeStillDefault:
    def test_default_scenario_uses_port_args(self):
        with ParadorScenario(
            execute_hosts=["node1"], trace=TraceRecorder()
        ) as scenario:
            run = scenario.submit_monitored("hello", "x")
            assert run.job.wait_terminal(timeout=60.0) is JobStatus.COMPLETED
            # In pilot mode the dissemination step has nothing published
            # centrally, so the daemon used its -m/-p arguments.
            assert scenario.trace.first("disseminate") is None


class TestCassManagedGang:
    def test_every_rank_finds_its_frontend_through_the_space(self):
        """A 3-rank monitored gang with no ``-m/-p/-P``: every rank's
        context holds the disseminated ``rt.frontend``, so every rank's
        paradynd reaches the front end before its first continue."""
        with ParadorScenario(
            execute_hosts=["node1", "node2", "node3"], use_cass=True,
        ) as scenario:
            job = scenario.pool.submit_file(
                "universe = MPI\nexecutable = mpi_ring\narguments = 1\n"
                "machine_count = 3\n+SuspendJobAtExec = True\n"
                '+ToolDaemonCmd = "paradynd"\n'
                '+ToolDaemonArgs = "-zunix -l3 -a%pid"\nqueue\n'
            )[0]
            assert job.wait_terminal(timeout=30.0) is JobStatus.COMPLETED
            assert job.exit_code == 0
            sessions = scenario.frontend.wait_for_daemons(3, timeout=5.0)
            assert len({(s.host, s.pid) for s in sessions}) == 3
