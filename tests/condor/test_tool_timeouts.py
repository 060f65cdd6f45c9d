"""A tool's patience runs on the wall clock.

The daemons of the pool run in real time; only the application's
process model is simulated.  The simulator advances virtual time to a
sleeping process's deadline, never to a timer, so a server timer armed
on virtual time never fires while the simulated processes are idle — a
tool waiting on an execution host's LASS would then wait for good.
"""

import threading
import time

from repro.attrspace.client import AttributeSpaceClient
from repro.condor.job import JobStatus
from repro.condor.pool import CondorPool
from repro.errors import GetTimeoutError
from repro.parador.run import ParadorScenario, monitored_submit_text
from repro.sim.cluster import SimCluster


def test_a_get_on_a_startds_lass_times_out_in_an_idle_pool():
    with SimCluster.flat(["submit", "node1"]) as cluster, CondorPool(
        cluster, submit_host="submit", execute_hosts=["node1"]
    ) as pool:
        lass = pool.startds["node1"].lass
        channel = cluster.transport.connect("node1", lass.endpoint)
        outcome = []

        def waiting_get():
            try:
                client.get("never.published", timeout=0.5)
            except Exception as e:  # noqa: BLE001 — the test reads it
                outcome.append(e)

        with AttributeSpaceClient(channel, context="probe", member="tool") as client:
            started = time.monotonic()
            getter = threading.Thread(target=waiting_get, daemon=True)
            getter.start()
            getter.join(timeout=2.0)
            assert not getter.is_alive(), "the get's timeout never fired"
            assert time.monotonic() - started < 2.0
        (error,) = outcome
        assert isinstance(error, GetTimeoutError)


def test_a_tool_with_no_frontend_published_measures_standalone():
    """Nothing names the front end: paradynd gives up its wait for
    ``rt.frontend`` after 5 s and runs the job unconnected."""
    with ParadorScenario(execute_hosts=["node1"]) as scenario:
        job = scenario.pool.submit_file(monitored_submit_text(
            "foo", "2 0.05", frontend_host=None, port1=None, port2=None,
        ))[0]
        assert job.wait_terminal(timeout=10.0) is JobStatus.COMPLETED
        assert job.exit_code == 0
        assert scenario.frontend.daemons() == []
