"""CondorPool: assemble a whole pool on a simulated cluster.

One call builds the Figure 4 world: a matchmaker and schedd on the
submit host, a startd (with its LASS) on every execution host, and a
master supervising them.  Its daemons record protocol events into
``trace`` when the caller passes one (the figure-regeneration benches
do, with ``TraceRecorder(clock=cluster.clock)`` for simulated
timestamps); a pool built without one keeps no event per launch.
"""

from __future__ import annotations

from repro.condor.job import JobRecord
from repro.condor.master import Master
from repro.condor.matchmaker import Matchmaker
from repro.condor.schedd import Schedd
from repro.condor.startd import Startd
from repro.condor.submit import SubmitDescription
from repro.condor.tools import ToolRegistry
from repro.net.address import Endpoint
from repro.sim.cluster import SimCluster
from repro.util.log import TraceRecorder


class CondorPool:
    """A running pool over one :class:`SimCluster`.

    >>> with SimCluster.flat(["submit", "node1"]) as cluster:
    ...     pool = CondorPool(cluster, submit_host="submit",
    ...                       execute_hosts=["node1"])
    ...     job = pool.submit_description(desc)
    ...     job.wait_terminal(timeout=30)
    ...     pool.stop()
    """

    def __init__(
        self,
        cluster: SimCluster,
        *,
        submit_host: str,
        execute_hosts: list[str],
        tool_registry: ToolRegistry | None = None,
        trace: TraceRecorder | None = None,
        proxy: Endpoint | None = None,
        supervise: bool = False,
    ):
        self.cluster = cluster
        self.submit_host = submit_host
        self.trace = trace
        #: the RM's proxy every startd names to its jobs' tools
        self.proxy = proxy
        self.tools = tool_registry if tool_registry is not None else ToolRegistry()
        self.matchmaker = Matchmaker(
            cluster.transport, submit_host, trace=self.trace
        )
        self.schedd = Schedd(
            cluster.transport,
            submit_host,
            self.matchmaker.endpoint,
            submit_fs=cluster.host(submit_host).filesystem,
            trace=self.trace,
        )
        self.startds: dict[str, Startd] = {}
        for hostname in execute_hosts:
            startd = Startd(
                cluster.transport,
                cluster.host(hostname),
                self.tools,
                trace=self.trace,
                proxy=proxy,
            )
            self.startds[hostname] = startd
            self._advertise(startd)
        self.master = Master() if supervise else None
        if self.master is not None:
            for hostname, startd in self.startds.items():
                self._supervise_startd(hostname, startd)

    def _advertise(self, startd: Startd) -> None:
        channel = self.cluster.transport.connect(
            startd.host.name, self.matchmaker.endpoint, timeout=10.0
        )
        try:
            reply = channel.request(
                {
                    "op": "advertise_machine",
                    "ad": startd.ad.attrs,
                    "startd": str(startd.endpoint),
                },
                timeout=10.0,
            )
            assert reply.get("ok"), reply
        finally:
            channel.close()

    def _supervise_startd(self, hostname: str, startd: Startd) -> None:
        assert self.master is not None

        def restart() -> None:
            old = self.startds[hostname]
            old.stop()
            fresh = Startd(
                self.cluster.transport,
                self.cluster.host(hostname),
                self.tools,
                trace=self.trace,
                proxy=self.proxy,
            )
            self.startds[hostname] = fresh
            self._advertise(fresh)
            self._supervise_startd(hostname, fresh)

        self.master.supervise(f"startd@{hostname}", startd, restart)

    # -- submission --------------------------------------------------------------

    def submit_description(self, description: SubmitDescription) -> JobRecord:
        return self.schedd.submit(description)

    def submit_file(self, text: str) -> list[JobRecord]:
        return self.schedd.submit_file(text)

    # -- teardown -----------------------------------------------------------------

    def stop(self) -> None:
        if self.master is not None:
            self.master.stop()
        self.schedd.stop()
        for startd in self.startds.values():
            startd.stop()
        self.matchmaker.stop()

    def __enter__(self) -> "CondorPool":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
