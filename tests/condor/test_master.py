"""condor_master supervision tests: a daemon's exit notice, and only
that, makes the master restart it."""

import threading

import pytest

from repro.condor.master import Master


class _FakeDaemon:
    """Posts its exit notice when the test says it exited."""

    def __init__(self):
        self._exit_callbacks = []

    def on_exit(self, callback):
        self._exit_callbacks.append(callback)

    def exit(self):
        for callback in self._exit_callbacks:
            callback()


class _Restarts:
    """A restart factory that fails its first ``failures`` calls."""

    def __init__(self, failures=0):
        self.failures = failures
        self.calls = 0
        self.done = threading.Event()

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise RuntimeError("cannot restart")
        self.done.set()


@pytest.fixture
def master():
    master = Master()
    yield master
    master.stop()


class TestMaster:
    def test_dead_daemon_restarted(self, master):
        daemon, restart = _FakeDaemon(), _Restarts()
        master.supervise("d", daemon, restart)
        daemon.exit()
        assert restart.done.wait(timeout=5.0)
        assert master.events == ["restart:d"]

    def test_healthy_daemon_untouched(self, master):
        restart = _Restarts()
        master.supervise("d", _FakeDaemon(), restart)
        master.stop()  # joins the master's thread: nothing was pending
        assert restart.calls == 0 and master.events == []

    def test_failed_restart_does_not_kill_master(self, master):
        daemon, restart = _FakeDaemon(), _Restarts(failures=2)
        master.supervise("f", daemon, restart)
        daemon.exit()
        assert restart.done.wait(timeout=5.0)
        assert restart.calls == 3
        assert master.events == ["restart:f"] * 3

    def test_gives_up_after_max_restarts(self, master, monkeypatch):
        monkeypatch.setattr(Master, "MAX_RESTARTS", 2)
        daemon, restart = _FakeDaemon(), _Restarts(failures=10)
        master.supervise("h", daemon, restart)
        daemon.exit()
        daemon.exit()  # a later notice for a daemon given up on is dropped
        marker, marked = _FakeDaemon(), _Restarts()
        master.supervise("m", marker, marked)
        marker.exit()
        assert marked.done.wait(timeout=5.0)  # notices are handled in order
        assert restart.calls == 2
        assert master.events == ["restart:h", "restart:h", "gave-up:h", "restart:m"]

    def test_nothing_restarts_after_stop(self, master):
        daemon, restart = _FakeDaemon(), _Restarts()
        master.supervise("d", daemon, restart)
        master.stop()
        daemon.exit()  # pool.stop() stops every startd after the master
        assert restart.calls == 0 and master.events == []


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
