"""SCALE — scalability characterization.

Motivated by the paper's auxiliary-services discussion ("software
multicast/reduction networks are crucial to scalable tool use"):

* CASS contention: N daemons on N hosts each put+get against one
  central server;
* point-to-point gather vs the MRNet-style reduction tree for
  aggregating one value per host, sweeping host count and fan-out;
* Condor pool throughput: a batch of jobs across a growing pool.
"""

import threading

import pytest
from conftest import print_table

from repro.attrspace.client import AttributeSpaceClient
from repro.attrspace.server import AttributeSpaceServer, ServerRole
from repro.sim.cluster import SimCluster
from repro.tdp.aux import ReductionNetwork
from repro.util.clock import Stopwatch


@pytest.mark.parametrize("nodes", [4, 16, 64])
def test_cass_contention(benchmark, nodes):
    hosts = [f"n{i}" for i in range(nodes)]
    cluster = SimCluster.flat(["root", *hosts]).start()
    cass = AttributeSpaceServer(cluster.transport, "root", role=ServerRole.CASS)
    clients = []
    try:
        for host in hosts:
            chan = cluster.transport.connect(host, cass.endpoint)
            clients.append(AttributeSpaceClient(chan, member=f"d@{host}"))

        def storm():
            threads = []
            for i, client in enumerate(clients):
                def work(c=client, k=i):
                    c.put(f"node.{k}", "ready")
                    c.get(f"node.{k}", timeout=10.0)

                t = threading.Thread(target=work)
                t.start()
                threads.append(t)
            for t in threads:
                t.join(timeout=30.0)

        benchmark.pedantic(storm, rounds=5, iterations=1)
        benchmark.extra_info["nodes"] = nodes
    finally:
        for client in clients:
            client.close()
        cass.stop()
        cluster.stop()


@pytest.mark.parametrize("nodes,fanout", [(8, 2), (8, 4), (32, 2), (32, 4), (64, 8)])
def test_reduction_tree_vs_flat_gather(benchmark, nodes, fanout):
    hosts = [f"n{i}" for i in range(nodes)]
    cluster = SimCluster.flat(["root", *hosts]).start()
    try:
        # MRNet-style tree.
        tree = ReductionNetwork(cluster.transport, "root", hosts, fanout=fanout)
        tree.start_collection(expected_contributions=nodes)
        with Stopwatch() as tree_sw:
            threads = [
                threading.Thread(target=tree.contribute, args=(h, 1.0)) for h in hosts
            ]
            for t in threads:
                t.start()
            total, count = tree.wait_result(timeout=60.0)
        assert count == nodes and total == pytest.approx(float(nodes))
        tree.stop()

        # Flat gather: every daemon dials the root directly.
        listener = cluster.transport.listen("root")
        received = []
        done = threading.Event()

        def collect(_chan, frame):
            received.append(frame["value"])
            if len(received) == nodes:
                done.set()

        gather = listener.serve_loop(
            on_channel=lambda chan: chan, on_message=collect,
            on_closed=lambda chan: None, name="flat-gather",
        )

        def flat_contribute(host):
            chan = cluster.transport.connect(host, listener.endpoint)
            chan.send({"value": 1.0})
            chan.close()

        with Stopwatch() as flat_sw:
            threads = [
                threading.Thread(target=flat_contribute, args=(h,)) for h in hosts
            ]
            for t in threads:
                t.start()
            assert done.wait(timeout=60.0)
        gather.stop()
        listener.close()

        print_table(
            f"Aggregation over {nodes} hosts (tree fanout {fanout})",
            ["strategy", "seconds", "nodes in play"],
            [
                ["reduction tree", f"{tree_sw.seconds:.5f}", tree.node_count],
                ["flat gather", f"{flat_sw.seconds:.5f}", 1],
            ],
        )
        benchmark.extra_info.update({"nodes": nodes, "fanout": fanout})

        # Timed body: one full tree collection cycle.
        def tree_cycle():
            t2 = ReductionNetwork(cluster.transport, "root", hosts, fanout=fanout)
            t2.start_collection(expected_contributions=nodes)
            for h in hosts:
                t2.contribute(h, 1.0)
            result = t2.wait_result(timeout=60.0)
            t2.stop()
            return result

        total, count = benchmark.pedantic(tree_cycle, rounds=3, iterations=1)
        assert count == nodes
    finally:
        cluster.stop()


@pytest.mark.parametrize("nodes,fanout", [(32, 4), (64, 8)])
def test_reduction_tree_with_processing_cost(benchmark, nodes, fanout):
    """The MRNet regime: per-message processing work at each node.

    When absorbing a message costs real work (unpacking, reducing,
    bookkeeping — here 1 ms), a flat gather serializes N x cost at the
    single root, while the tree distributes it: each node processes at
    most fanout + its own daemons' messages.  This is where "software
    multicast/reduction networks are crucial to scalable tool use".
    """
    cost = 0.001  # seconds of processing per absorbed message
    hosts = [f"n{i}" for i in range(nodes)]
    cluster = SimCluster.flat(["root", *hosts]).start()
    try:
        tree = ReductionNetwork(
            cluster.transport, "root", hosts, fanout=fanout, per_message_cost=cost
        )
        tree.start_collection(expected_contributions=nodes)
        with Stopwatch() as tree_sw:
            threads = [
                threading.Thread(target=tree.contribute, args=(h, 1.0)) for h in hosts
            ]
            for t in threads:
                t.start()
            total, count = tree.wait_result(timeout=120.0)
        assert count == nodes and total == pytest.approx(float(nodes))
        tree.stop()

        # Flat gather with the SAME per-message processing cost at the root.
        listener = cluster.transport.listen("root")
        done = threading.Event()
        received = []

        def collect(_chan, frame):
            import time

            time.sleep(cost)  # the root's per-message work
            received.append(frame["value"])
            if len(received) == nodes:
                done.set()

        gather = listener.serve_loop(
            on_channel=lambda chan: chan, on_message=collect,
            on_closed=lambda chan: None, name="flat-gather",
        )
        with Stopwatch() as flat_sw:
            threads = [
                threading.Thread(
                    target=lambda h=h: (
                        lambda c: (c.send({"value": 1.0}), c.close())
                    )(cluster.transport.connect(h, listener.endpoint)),
                )
                for h in hosts
            ]
            for t in threads:
                t.start()
            assert done.wait(timeout=120.0)
        gather.stop()
        listener.close()

        print_table(
            f"Aggregation with {cost * 1e3:.0f} ms/message processing, "
            f"{nodes} hosts (fanout {fanout})",
            ["strategy", "seconds", "root messages"],
            [
                ["reduction tree", f"{tree_sw.seconds:.5f}",
                 f"<= {fanout} + direct"],
                ["flat gather", f"{flat_sw.seconds:.5f}", nodes],
            ],
        )
        # The tree must beat the serialized root at these scales.
        assert tree_sw.seconds < flat_sw.seconds
        benchmark.extra_info.update(
            {"nodes": nodes, "fanout": fanout,
             "tree_s": round(tree_sw.seconds, 5),
             "flat_s": round(flat_sw.seconds, 5)}
        )
        benchmark(lambda: tree.depth())
    finally:
        cluster.stop()


@pytest.mark.parametrize("machines", [2, 8, 16])
def test_pool_job_throughput(benchmark, machines):
    from repro.condor.job import JobStatus
    from repro.condor.pool import CondorPool
    from repro.condor.submit import SubmitDescription

    hosts = [f"node{i}" for i in range(machines)]
    cluster = SimCluster.flat(["submit", *hosts]).start()
    pool = CondorPool(cluster, submit_host="submit", execute_hosts=hosts)
    try:
        jobs_per_batch = machines * 2

        def batch():
            jobs = [
                pool.submit_description(SubmitDescription(executable="hello"))
                for _ in range(jobs_per_batch)
            ]
            for job in jobs:
                assert job.wait_terminal(timeout=120.0) is JobStatus.COMPLETED

        benchmark.pedantic(batch, rounds=3, iterations=1)
        benchmark.extra_info.update(
            {"machines": machines, "jobs_per_batch": jobs_per_batch}
        )
    finally:
        pool.stop()
        cluster.stop()
