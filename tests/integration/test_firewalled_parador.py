"""Integration: the complete pilot across a firewalled private network.

The Figure 1 situation end to end: execution nodes in a private zone,
the user's Paradyn front-end on a desktop whose firewall refuses inbound
connections from the cluster, and the RM's proxy as the only path.  The
monitored job must complete with the paradynd reaching its front-end
through the proxy — without the daemon knowing it was proxied.
"""

import pytest

from repro.condor.job import JobStatus
from repro.condor.pool import CondorPool
from repro.errors import FirewallBlockedError
from repro.net.address import Endpoint
from repro.net.topology import Network
from repro.paradyn.frontend import ParadynFrontend
from repro.parador.adapters import make_tool_registry
from repro.sim.cluster import SimCluster
from repro.transport.proxy import ProxyServer
from repro.util.log import TraceRecorder

PROXY_PORT = 9000


def build_topology(nodes=("node1",)) -> Network:
    """submit (pool control plane + proxy) / desktop (user) / private nodes."""
    net = Network()
    net.add_zone("campus")
    desktop_zone = net.add_private_zone("user-desktop")
    cluster_zone = net.add_private_zone("cluster", allow_outbound=True)
    net.add_host("submit", "campus")
    net.add_host("desktop", "user-desktop")
    for node in nodes:
        net.add_host(node, "cluster")
    # The pool's control plane may dial into the cluster (schedd->startd).
    cluster_zone.inbound.allow(src="submit")
    # The desktop accepts connections only from the submit machine (where
    # the RM's proxy runs) — NOT from cluster nodes.
    desktop_zone.inbound.allow(src="submit")
    desktop_zone.outbound.allow()  # the user may reach out freely
    return net


@pytest.fixture
def world():
    cluster = SimCluster(build_topology()).start()
    trace = TraceRecorder()
    proxy = ProxyServer(cluster.transport, "submit", PROXY_PORT)
    frontend = ParadynFrontend(cluster.transport, "desktop")
    pool = CondorPool(
        cluster,
        submit_host="submit",
        execute_hosts=["node1"],
        tool_registry=make_tool_registry(),
        trace=trace,
        proxy=proxy.endpoint,
    )
    yield cluster, pool, frontend, proxy, trace
    pool.stop()
    frontend.stop()
    proxy.stop()
    cluster.stop()


def monitored_text(frontend: ParadynFrontend) -> str:
    ep = frontend.endpoint
    return (
        "universe = Vanilla\n"
        "executable = foo\n"
        "arguments = 3 0.05\n"
        "output = outfile\n"
        "+SuspendJobAtExec = True\n"
        '+ToolDaemonCmd = "paradynd"\n'
        f'+ToolDaemonArgs = "-zunix -l3 -m{ep.host} -p{ep.port} '
        f'-P{ep.port + 1} -a%pid"\n'
        "queue\n"
    )


class TestFirewalledPilot:
    def test_direct_path_really_blocked(self, world):
        cluster, _pool, frontend, _proxy, _trace = world
        with pytest.raises(FirewallBlockedError):
            cluster.transport.connect("node1", frontend.endpoint)

    def test_monitored_job_crosses_via_proxy(self, world):
        cluster, pool, frontend, proxy, trace = world
        job = pool.submit_file(monitored_text(frontend))[0]
        sessions = frontend.wait_for_daemons(1, timeout=60.0)
        assert job.wait_terminal(timeout=60.0) is JobStatus.COMPLETED
        session = sessions[0]
        session.wait_state("exited", timeout=30.0)
        assert session.exit_code == 0
        # The RM proxy was advertised and actually carried the session.
        assert trace.first("tdp_put") is not None
        proxied_put = [
            e for e in trace.events(actor="starter", action="tdp_put")
            if e.details.get("attribute") == "rm.proxy"
        ]
        assert proxied_put, "starter must advertise its proxy"
        # The tool's metrics flowed over the tunnel.
        assert session.latest("proc_cpu") is not None

    def test_stdio_also_crosses(self, world):
        """Job stdout reaches the shadow on the submit host (the shadow
        lives on the campus side, reachable outbound from the node)."""
        cluster, pool, frontend, _proxy, _trace = world
        job = pool.submit_file(monitored_text(frontend))[0]
        assert job.wait_terminal(timeout=60.0) is JobStatus.COMPLETED
        import time

        deadline = time.monotonic() + 10.0
        while not job.stdout_lines and time.monotonic() < deadline:
            time.sleep(0.01)
        assert any("round" in line for line in job.stdout_lines)

    def test_without_proxy_tool_degrades_but_job_completes(self):
        """No proxy advertised: the daemon cannot reach its front-end and
        runs standalone — but the JOB must still complete (tool failure
        must not take the application down)."""
        cluster = SimCluster(build_topology()).start()
        trace = TraceRecorder()
        frontend = ParadynFrontend(cluster.transport, "desktop")
        pool = CondorPool(
            cluster,
            submit_host="submit",
            execute_hosts=["node1"],
            tool_registry=make_tool_registry(),
            trace=trace,
            # no proxy
        )
        try:
            job = pool.submit_file(monitored_text(frontend))[0]
            assert job.wait_terminal(timeout=60.0) is JobStatus.COMPLETED
            assert job.exit_code == 0
            # No session ever reached the front-end.
            assert frontend.daemons() == []
        finally:
            pool.stop()
            frontend.stop()
            cluster.stop()


class TestFirewalledGang:
    def test_every_rank_reaches_the_frontend_through_the_proxy(self):
        """A 2-rank gang on two private nodes: rank 1's context names the
        RM's proxy as rank 0's does, so both paradynds reach the desktop."""
        from repro.mpisim.programs import register_mpi_programs

        nodes = ["node1", "node2"]
        cluster = SimCluster(build_topology(nodes)).start()
        register_mpi_programs(cluster.registry)
        proxy = ProxyServer(cluster.transport, "submit", PROXY_PORT)
        frontend = ParadynFrontend(cluster.transport, "desktop")
        pool = CondorPool(
            cluster, submit_host="submit", execute_hosts=nodes,
            tool_registry=make_tool_registry(), proxy=proxy.endpoint,
        )
        ep = frontend.endpoint
        try:
            job = pool.submit_file(
                "universe = MPI\nexecutable = mpi_ring\narguments = 1\n"
                "machine_count = 2\n+SuspendJobAtExec = True\n"
                '+ToolDaemonCmd = "paradynd"\n'
                f'+ToolDaemonArgs = "-zunix -l3 -m{ep.host} -p{ep.port} '
                f'-P{ep.port + 1} -a%pid"\nqueue\n'
            )[0]
            assert job.wait_terminal(timeout=30.0) is JobStatus.COMPLETED
            sessions = frontend.wait_for_daemons(2, timeout=5.0)
            assert {s.host for s in sessions} == set(nodes)
        finally:
            pool.stop()
            frontend.stop()
            proxy.stop()
            cluster.stop()
