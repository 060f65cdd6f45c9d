"""FIG1 — Figure 1: remote execution with RM and RT across a firewall.

Regenerates the figure's structure as a reachability matrix: the RM and
RT front-ends on the submit side, the RM / RT / AP on a private remote
host, direct tool-to-front-end connections blocked, and the RM-proxy
path open.  The timed body measures tunnel establishment (the cost TDP's
proxy indirection adds to the figure's dashed line).
"""

from conftest import print_table

from repro.net.address import Endpoint
from repro.sim.cluster import SimCluster
from repro.transport.proxy import ProxyServer, connect_via_proxy


FRONTEND_PORT = 2090
PROXY_PORT = 9000


def build_world():
    cluster = SimCluster.with_private_nodes(
        submit_hosts=["submit", "gateway"],
        node_hosts=["node1"],
        gateway_pinholes=[("gateway", PROXY_PORT)],
    ).start()
    listener = cluster.transport.listen("submit", FRONTEND_PORT)
    # The tool front-end: echoes every frame back, on one serving loop.
    frontend = listener.serve_loop(
        on_channel=lambda chan: chan,
        on_message=lambda chan, msg: chan.send(msg),
        on_closed=lambda chan: None,
        name="fig1-frontend",
    )
    proxy = ProxyServer(cluster.transport, "gateway", PROXY_PORT)
    return cluster, listener, frontend, proxy


def test_fig1_architecture(benchmark):
    cluster, listener, frontend, proxy = build_world()
    try:
        # --- the figure's structure: who can reach whom -------------------
        net = cluster.network
        matrix = net.reachability_matrix(FRONTEND_PORT)
        rows = [
            [src, dst, "ALLOW" if ok else "block"]
            for (src, dst), ok in sorted(matrix.items())
        ]
        print_table(
            "Figure 1: reachability on the tool front-end port",
            ["from", "to", "verdict"],
            rows,
        )
        # The RT daemon (node1) cannot reach its front-end directly ...
        assert matrix[("node1", "submit")] is False
        # ... and the outside cannot reach into the private network ...
        assert matrix[("submit", "node1")] is False
        # ... but the pinhole to the RM proxy is open.
        assert net.permits("node1", "gateway", PROXY_PORT)

        # --- the timed path: tunnel setup + one round trip ----------------
        def tunnel_roundtrip():
            chan = connect_via_proxy(
                cluster.transport,
                "node1",
                proxy.endpoint,
                Endpoint("submit", FRONTEND_PORT),
            )
            chan.send({"ping": 1})
            reply = chan.recv(timeout=10.0)
            chan.close()
            return reply

        reply = benchmark.pedantic(tunnel_roundtrip, rounds=20, iterations=1)
        assert reply == {"ping": 1}
        benchmark.extra_info["direct_blocked"] = True
        benchmark.extra_info["proxied_allowed"] = True
    finally:
        proxy.stop()
        frontend.stop()
        listener.close()
        cluster.stop()
