"""End-to-end Parador scenarios: the pilot, assembled.

:class:`ParadorScenario` builds the full Figure 5A world on a simulated
cluster: a Condor pool, the Paradyn front-end started first (as in the
pilot: "the Paradyn Front-end was started first … the front-end
publishes two port numbers"), and submit files with the ``+ToolDaemon*``
extensions.  :func:`run_monitored_job` is the one-call version used by
the quickstart example.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.condor.job import JobRecord
from repro.condor.pool import CondorPool
from repro.condor.submit import SubmitDescription, ToolDaemonSpec
from repro.mpisim.programs import register_mpi_programs
from repro.paradyn.frontend import DaemonSession, ParadynFrontend
from repro.parador.adapters import make_tool_registry
from repro.sim.cluster import SimCluster
from repro.util.log import TraceRecorder


def monitored_submit_text(
    executable: str,
    arguments: str = "",
    *,
    frontend_host: str | None,
    port1: int | None,
    port2: int | None,
    output: str = "outfile",
) -> str:
    """Build a Figure-5B-shaped submit file for a monitored job.

    With ``frontend_host=None`` the ``-m/-p/-P`` arguments are omitted —
    the "complete TDP framework" configuration where the front-end's
    address travels through the attribute space instead of the command
    line.
    """
    if frontend_host is not None:
        endpoint_args = f"-m{frontend_host} -p{port1} -P{port2} "
    else:
        endpoint_args = ""
    return (
        f"universe = Vanilla\n"
        f"executable = {executable}\n"
        f"output = {output}\n"
        f"arguments = {arguments}\n"
        f"+SuspendJobAtExec = True\n"
        f'+ToolDaemonCmd = "paradynd"\n'
        f'+ToolDaemonArgs = "-zunix -l3 {endpoint_args}-a%pid"\n'
        f'+ToolDaemonOutput = "daemon.out"\n'
        f'+ToolDaemonError = "daemon.err"\n'
        f"queue\n"
    )


@dataclass
class MonitoredRun:
    """Everything a finished (or running) monitored job exposes."""

    job: JobRecord
    session: DaemonSession


class ParadorScenario:
    """A complete Parador world on one simulated cluster.

    Use as a context manager::

        with ParadorScenario(execute_hosts=["node1"]) as scenario:
            run = scenario.submit_monitored("foo", "1 2 3")
            run.job.wait_terminal(timeout=60)
    """

    def __init__(
        self,
        *,
        execute_hosts: list[str] | None = None,
        submit_host: str = "submit",
        auto_run: bool = True,
        use_cass: bool = False,
        trace: TraceRecorder | None = None,
        cluster: SimCluster | None = None,
    ):
        hosts = execute_hosts if execute_hosts is not None else ["node1"]
        self.cluster = (
            cluster
            if cluster is not None
            else SimCluster.flat([submit_host, *hosts])
        )
        self._owns_cluster = cluster is None
        self.submit_host = submit_host
        # The daemons record into ``trace`` only when the caller keeps one.
        self.trace = trace
        self.cluster.start()
        register_mpi_programs(self.cluster.registry)
        # The pilot started the Paradyn front-end first; it publishes the
        # two port numbers that appear in the submit file.
        self.frontend = ParadynFrontend(self.cluster.transport, submit_host)
        self.port1 = self.frontend.endpoint.port
        self.port2 = self.port1 + 1  # the pilot's second (data) port
        self.pool = CondorPool(
            self.cluster,
            submit_host=submit_host,
            execute_hosts=hosts,
            tool_registry=make_tool_registry(auto_run=auto_run),
            trace=self.trace,
        )
        self._daemons_seen = 0
        self.use_cass = use_cass
        self._cass_client = None
        if use_cass:
            # The "complete TDP framework": the Paradyn front-end
            # publishes its endpoint into the pool-global CASS instead of
            # the submit file; starters disseminate it to each LASS.
            from repro.attrspace.client import AttributeSpaceClient
            from repro.tdp.wellknown import Attr

            cass = self.pool.schedd.cass
            channel = self.cluster.transport.connect(submit_host, cass.endpoint)
            self._cass_client = AttributeSpaceClient(
                channel, member="paradyn-frontend"
            )
            self._cass_client.put(Attr.RT_FRONTEND, str(self.frontend.endpoint))

    # -- submission --------------------------------------------------------------

    def submit_monitored(
        self, executable: str, arguments: str = "", *, output: str = "outfile"
    ) -> MonitoredRun:
        """Submit a monitored vanilla job and wait for its paradynd."""
        text = monitored_submit_text(
            executable,
            arguments,
            frontend_host=None if self.use_cass else self.submit_host,
            port1=None if self.use_cass else self.port1,
            port2=None if self.use_cass else self.port2,
            output=output,
        )
        job = self.pool.submit_file(text)[0]
        self._daemons_seen += 1
        sessions = self.frontend.wait_for_daemons(self._daemons_seen, timeout=60.0)
        return MonitoredRun(job=job, session=sessions[-1])

    def submit_unmonitored(self, executable: str, arguments: str = "") -> JobRecord:
        desc = SubmitDescription(
            executable=executable,
            arguments=arguments.split() if arguments else [],
        )
        return self.pool.submit_description(desc)

    # -- lifecycle ----------------------------------------------------------------

    def stop(self) -> None:
        if self._cass_client is not None:
            self._cass_client.close()
        self.pool.stop()
        self.frontend.stop()
        if self._owns_cluster:
            self.cluster.stop()

    def __enter__(self) -> "ParadorScenario":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def run_monitored_job(
    executable: str = "foo",
    arguments: str = "1 2 3",
    *,
    timeout: float = 60.0,
) -> MonitoredRun:
    """One-call pilot run: submit, monitor, wait for completion.

    Returns after the job completed and the paradynd observed its exit;
    the scenario is torn down before returning.  The returned record and
    session remain readable (their data is final).
    """
    with ParadorScenario() as scenario:
        run = scenario.submit_monitored(executable, arguments)
        run.job.wait_terminal(timeout=timeout)
        run.session.wait_state("exited", timeout=timeout)
        return run

