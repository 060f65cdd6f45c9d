"""condor_master supervision tests."""

import threading
import time

import pytest

from repro.condor.master import Master


class _FakeDaemon:
    def __init__(self):
        self.alive_flag = True
        self.restarted = 0
        self.restarted_event = threading.Event()

    def alive(self) -> bool:
        return self.alive_flag

    def restart(self) -> None:
        self.restarted += 1
        self.alive_flag = True
        self.restarted_event.set()


class TestMaster:
    def test_healthy_daemon_untouched(self):
        master = Master(check_interval=0.01)
        daemon = _FakeDaemon()
        master.supervise("d", alive=daemon.alive, restart=daemon.restart)
        time.sleep(0.1)
        master.stop()
        assert daemon.restarted == 0

    def test_dead_daemon_restarted(self):
        master = Master(check_interval=0.01)
        daemon = _FakeDaemon()
        master.supervise("d", alive=daemon.alive, restart=daemon.restart)
        daemon.alive_flag = False
        assert daemon.restarted_event.wait(timeout=5.0)
        master.stop()
        assert daemon.restarted >= 1
        assert "restart:d" in master.events

    def test_gives_up_after_max_restarts(self):
        master = Master(check_interval=0.01, max_restarts=2)

        given_up = threading.Event()

        class Hopeless:
            restarts = 0

            def alive(self):
                if self.restarts == 2:
                    given_up.set()  # the master's next look gives up
                return False

            def restart(self):
                self.restarts += 1

        daemon = Hopeless()
        master.supervise("h", alive=daemon.alive, restart=daemon.restart)
        assert given_up.wait(timeout=5.0)
        master.stop()  # joins the watch thread: its pass has ended
        assert daemon.restarts == 2
        assert "gave-up:h" in master.events

    def test_broken_probe_counts_as_dead(self):
        master = Master(check_interval=0.01)
        restarted = threading.Event()

        def bad_probe():
            raise RuntimeError("probe broke")

        master.supervise("b", alive=bad_probe, restart=restarted.set)
        assert restarted.wait(timeout=5.0)
        master.stop()

    def test_failed_restart_does_not_kill_master(self):
        master = Master(check_interval=0.01, max_restarts=3)
        attempts = []
        third = threading.Event()

        def failing_restart():
            attempts.append(1)
            if len(attempts) == 3:
                third.set()
            raise RuntimeError("cannot restart")

        master.supervise("f", alive=lambda: False, restart=failing_restart)
        assert third.wait(timeout=5.0)
        master.stop()
        assert len(attempts) == 3


class TestPoolSupervision:
    def test_killed_startd_restarted_and_pool_still_works(self):
        """The Figure 4 supervision role: kill a startd; the master
        resurrects it and jobs keep flowing."""
        from repro.condor.job import JobStatus
        from repro.condor.pool import CondorPool
        from repro.condor.submit import SubmitDescription
        from repro.sim.cluster import SimCluster

        with SimCluster.flat(["submit", "node1"]) as cluster:
            pool = CondorPool(
                cluster, submit_host="submit", execute_hosts=["node1"],
                supervise=True,
            )
            try:
                job = pool.submit_description(SubmitDescription(executable="hello"))
                assert job.wait_terminal(timeout=30.0) is JobStatus.COMPLETED

                readvertised = threading.Event()
                advertise = pool._advertise

                def tapped(startd):
                    advertise(startd)
                    readvertised.set()

                pool._advertise = tapped
                # Murder the startd.
                pool.startds["node1"].stop()
                assert readvertised.wait(timeout=10.0), "master did not restart it"
                assert not pool.startds["node1"]._stopped
                assert any(e.startswith("restart:startd") for e in pool.master.events)

                # The pool still runs jobs through the resurrected startd.
                job2 = pool.submit_description(
                    SubmitDescription(executable="hello")
                )
                assert job2.wait_terminal(timeout=30.0) is JobStatus.COMPLETED
            finally:
                pool.stop()

    def test_a_restarted_startd_keeps_the_pools_proxy(self, monkeypatch):
        """A monitored job on a machine whose startd the master restarted
        still names the RM's proxy in its launch record."""
        from repro.condor import mpi_universe
        from repro.condor.job import JobStatus
        from repro.condor.pool import CondorPool
        from repro.condor.submit import SubmitDescription, ToolDaemonSpec
        from repro.condor.tools import ThreadToolHandle, ToolRegistry
        from repro.net.address import Endpoint
        from repro.sim.cluster import SimCluster
        from repro.tdp.wellknown import Attr

        class IdleTool:
            def run(self, stop_event):
                pass

            def wake(self):
                pass

        tools = ToolRegistry()
        tools.register("idle", lambda ctx: ThreadToolHandle("idle", IdleTool()))
        records = []
        put_many = mpi_universe.tdp_put_many

        def recorded(handle, items):
            records.append(dict(items))
            return put_many(handle, items)

        monkeypatch.setattr(mpi_universe, "tdp_put_many", recorded)
        proxy = Endpoint("submit", 9000)
        with SimCluster.flat(["submit", "node1"]) as cluster:
            pool = CondorPool(
                cluster, submit_host="submit", execute_hosts=["node1"],
                tool_registry=tools, proxy=proxy, supervise=True,
            )
            try:
                readvertised = threading.Event()
                advertise = pool._advertise

                def tapped(startd):
                    advertise(startd)
                    readvertised.set()

                pool._advertise = tapped
                pool.startds["node1"].stop()
                assert readvertised.wait(timeout=10.0), "master did not restart it"
                job = pool.submit_description(SubmitDescription(
                    executable="hello", tool_daemon=ToolDaemonSpec(cmd="idle"),
                ))
                assert job.wait_terminal(timeout=30.0) is JobStatus.COMPLETED
                [record] = records
                assert record[Attr.RM_PROXY] == str(proxy)
            finally:
                pool.stop()
