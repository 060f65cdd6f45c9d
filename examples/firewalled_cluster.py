#!/usr/bin/env python3
"""Tool communication across a private network (paper Section 2.4).

The execution nodes sit in a deny-by-default private zone (Figure 1's
firewall).  A direct connection from the tool daemon to its front-end
fails; TDP publishes the RM's proxy in the attribute space and the
daemon's ``connect_to_frontend`` transparently tunnels through it.

Run:  python examples/firewalled_cluster.py
"""

import queue

from repro.attrspace.server import AttributeSpaceServer, ServerRole
from repro.errors import FirewallBlockedError
from repro.net.address import Endpoint
from repro.sim.cluster import SimCluster
from repro.tdp.api import tdp_exit, tdp_init
from repro.tdp.handle import Role
from repro.tdp.process import SimHostBackend
from repro.tdp.proxycfg import (
    connect_to_frontend,
    publish_frontend_endpoint,
    publish_proxy_endpoint,
)
from repro.transport.proxy import ProxyServer


def main() -> None:
    # Figure 1: submit side public, one gateway, nodes private.  The only
    # pinhole lets cluster nodes dial gateway:9000 — the RM's proxy port.
    cluster = SimCluster.with_private_nodes(
        submit_hosts=["submit", "gateway"],
        node_hosts=["node1"],
        gateway_pinholes=[("gateway", 9000)],
    ).start()
    try:
        lass = AttributeSpaceServer(cluster.transport, "node1", role=ServerRole.LASS)
        rm = tdp_init(cluster.transport, lass.endpoint, member="starter",
                      role=Role.RM, backend=SimHostBackend(cluster.host("node1")))
        rt = tdp_init(cluster.transport, lass.endpoint, member="paradynd",
                      role=Role.RT, src_host="node1")

        # The tool front-end: prints what reaches it, on one serving loop.
        frontend_listener = cluster.transport.listen("submit", 2090)
        received = queue.Queue()
        frontend = frontend_listener.serve_loop(
            on_channel=lambda channel: channel,
            on_message=lambda channel, message: received.put(message),
            on_closed=lambda channel: None,
            name="frontend",
        )
        print(f"tool front-end listening at {frontend_listener.endpoint}")

        # Show the firewall doing its job.
        try:
            cluster.transport.connect("node1", Endpoint("submit", 2090))
            raise AssertionError("firewall should have blocked this!")
        except FirewallBlockedError as e:
            print(f"direct connect blocked, as expected:\n  {e}")

        # The RM leverages its existing proxy; TDP just publishes it.
        proxy = ProxyServer(cluster.transport, "gateway", 9000)
        publish_frontend_endpoint(rm, Endpoint("submit", 2090))
        publish_proxy_endpoint(rm, proxy.endpoint)
        print(f"RM published front-end {Endpoint('submit', 2090)} "
              f"and proxy {proxy.endpoint}")

        # The daemon neither knows nor cares that it is proxied.
        channel = connect_to_frontend(rt, cluster.transport, "node1")
        channel.send({"hello": "from inside the private network"})
        print(f"front-end received: {received.get(timeout=5.0)}")

        channel.close()
        proxy.stop()
        frontend.stop()
        frontend_listener.close()
        tdp_exit(rt)
        tdp_exit(rm)
        lass.stop()
    finally:
        cluster.stop()


if __name__ == "__main__":
    main()
