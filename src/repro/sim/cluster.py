"""SimCluster: hosts + network + scheduler + services, assembled.

A cluster is the unit of one scenario: it owns the virtual clock, the
single scheduler thread, the simulated network (with zones/firewalls),
an in-memory transport for daemon channels, a registry of named
executables, and the service handlers that extend the syscall set
(the simulated-MPI runtime registers its handlers here).
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from repro.errors import NoSuchHostError, SimulationError
from repro.net.topology import Network
from repro.sim.host import SimHost
from repro.sim.kernel import Scheduler
from repro.sim.loader import ProgramRegistry, default_registry
from repro.sim.process import SimProcess
from repro.sim.syscalls import MsgRecord, SendMsg
from repro.transport.inmem import InMemoryTransport
from repro.util.clock import VirtualClock
from repro.util.sync import tracked_lock

ServiceHandler = Callable[[SimProcess, dict[str, Any]], Any]


class SimCluster:
    """A simulated distributed system under one scheduler.

    Use as a context manager (or call :meth:`start`/:meth:`stop`) so the
    scheduler thread is always reclaimed::

        with SimCluster.flat(["node1", "node2"]) as cluster:
            proc = cluster.host("node1").create_process("cpu_burn", ["3"])
            proc.wait_for_exit(timeout=10)
    """

    def __init__(
        self,
        network: Network,
        *,
        registry: ProgramRegistry | None = None,
    ):
        self.network = network
        self.clock = VirtualClock()
        self.scheduler = Scheduler(self, self.clock)
        self.transport = InMemoryTransport(network)
        self.registry = registry if registry is not None else default_registry()
        self._hosts: dict[str, SimHost] = {}
        self._services: dict[str, ServiceHandler] = {}
        self._lock = tracked_lock("sim.cluster.SimCluster._lock")
        for hostname in network.hosts():
            self._hosts[hostname] = SimHost(self, hostname)
        self._started = False

    # -- construction helpers ------------------------------------------------

    @classmethod
    def flat(cls, hostnames: list[str], **kwargs) -> "SimCluster":
        """All hosts on one open LAN (no firewalls)."""
        from repro.net.topology import flat_network

        return cls(flat_network(hostnames), **kwargs)

    @classmethod
    def with_private_nodes(
        cls,
        submit_hosts: list[str],
        node_hosts: list[str],
        *,
        gateway_pinholes: list[tuple[str, int]] | None = None,
        allow_outbound: bool = False,
        **kwargs,
    ) -> "SimCluster":
        """The paper's Figure 1 topology: public submit side, private pool.

        ``gateway_pinholes`` is a list of (host, port) pairs cluster nodes
        may dial out to — where the RM runs its proxy.
        """
        net = Network()
        net.add_zone("campus")
        cluster_zone = net.add_private_zone("cluster", allow_outbound=allow_outbound)
        for h in submit_hosts:
            net.add_host(h, "campus")
        for h in node_hosts:
            net.add_host(h, "cluster")
        for host, port in gateway_pinholes or []:
            cluster_zone.outbound.allow(dst=host, port=port)
            net.zone_of(host).inbound.allow(dst=host, port=port)
        return cls(net, **kwargs)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "SimCluster":
        if not self._started:
            self.scheduler.start()
            self._started = True
        return self

    def stop(self) -> None:
        for host in self._hosts.values():
            host.kill_all()
        self.scheduler.stop()
        self.transport.close_all()
        self._started = False

    def __enter__(self) -> "SimCluster":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- host access ------------------------------------------------------------

    def host(self, name: str) -> SimHost:
        host = self._hosts.get(name)
        if host is None:
            raise NoSuchHostError(name)
        return host

    def hosts(self) -> list[SimHost]:
        return [self._hosts[n] for n in sorted(self._hosts)]

    # -- message routing (SendMsg syscall) -----------------------------------------

    def route_message(self, sender: SimProcess, syscall: SendMsg) -> None:
        """Deliver a process-to-process message.

        Messages to nonexistent hosts are a simulation error (programs
        address peers by records they received, so this is a bug);
        messages to exited processes are silently dropped (Unix-like).
        """
        host = self._hosts.get(syscall.dst_host)
        if host is None:
            raise SimulationError(
                f"message from {sender!r} to unknown host {syscall.dst_host!r}"
            )
        try:
            target = host.get_process(syscall.dst_pid)
        except Exception:
            return  # pid never existed or was reaped: drop, like a closed socket
        target.deliver_message(
            MsgRecord(
                src_host=sender.host.name,
                src_pid=sender.pid,
                tag=syscall.tag,
                payload=syscall.payload,
            )
        )

    # -- services (syscall extensibility) ---------------------------------------------

    def register_service(self, name: str, handler: ServiceHandler) -> None:
        with self._lock:
            if name in self._services:
                raise ValueError(f"service {name!r} already registered")
            self._services[name] = handler

    def call_service(self, name: str, proc: SimProcess, args: dict[str, Any]) -> Any:
        with self._lock:
            handler = self._services.get(name)
        if handler is None:
            raise SimulationError(f"process {proc!r} invoked unknown service {name!r}")
        return handler(proc, args)

    # -- diagnostics -------------------------------------------------------------------

    def total_process_count(self, *, alive_only: bool = True) -> int:
        return sum(len(h.processes(alive_only=alive_only)) for h in self.hosts())
