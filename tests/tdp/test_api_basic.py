"""TDP API basics: init/exit, put/get, async, service events."""

import pytest

from repro.errors import HandleError, NoSuchAttributeError
from repro.tdp.api import (
    tdp_async_get,
    tdp_exit,
    tdp_get,
    tdp_init,
    tdp_poll,
    tdp_put,
    tdp_remove,
    tdp_service_events,
    tdp_subscribe,
    tdp_try_get,
)
from repro.tdp.handle import Role


class TestInitExit:
    def test_init_returns_usable_handle(self, rm_handle):
        assert rm_handle.member == "starter"
        assert not rm_handle.closed

    def test_exit_closes_handle(self, cluster, lass):
        handle = tdp_init(
            cluster.transport, lass.endpoint, member="x", role=Role.RT, src_host="node1"
        )
        tdp_exit(handle)
        assert handle.closed
        with pytest.raises(HandleError):
            tdp_put(handle, "a", "1")

    def test_exit_idempotent(self, cluster, lass):
        handle = tdp_init(
            cluster.transport, lass.endpoint, member="x", role=Role.RT, src_host="node1"
        )
        tdp_exit(handle)
        tdp_exit(handle)

    def test_context_created_per_init(self, cluster, lass):
        h1 = tdp_init(
            cluster.transport, lass.endpoint, member="rm", role=Role.RT,
            src_host="node1", context="tool-a",
        )
        h2 = tdp_init(
            cluster.transport, lass.endpoint, member="rm", role=Role.RT,
            src_host="node1", context="tool-b",
        )
        assert {"tool-a", "tool-b"} <= set(lass.store.contexts())
        tdp_exit(h1)
        tdp_exit(h2)
        assert "tool-a" not in lass.store.contexts()
        assert "tool-b" not in lass.store.contexts()

    def test_rt_handle_cannot_carry_backend(self, cluster, lass):
        from repro.tdp.process import SimHostBackend

        with pytest.raises(HandleError, match="Section 2.3"):
            tdp_init(
                cluster.transport,
                lass.endpoint,
                member="rogue-tool",
                role=Role.RT,
                backend=SimHostBackend(cluster.host("node1")),
            )


class TestPutGet:
    def test_roundtrip(self, rm_handle):
        tdp_put(rm_handle, "pid", "4711")
        assert tdp_get(rm_handle, "pid", timeout=5.0) == "4711"

    def test_cross_daemon_exchange(self, rm_handle, rt_handle):
        tdp_put(rm_handle, "executable_name", "foo")
        assert tdp_get(rt_handle, "executable_name", timeout=5.0) == "foo"

    def test_try_get_missing(self, rm_handle):
        with pytest.raises(NoSuchAttributeError):
            tdp_try_get(rm_handle, "ghost")

    def test_remove(self, rm_handle):
        tdp_put(rm_handle, "k", "v")
        assert tdp_remove(rm_handle, "k") is True
        assert tdp_remove(rm_handle, "k") is False


class TestAsyncAndEvents:
    def test_paper_pseudocode_two_async_gets(self, rm_handle, rt_handle):
        """The Section 3.3 pseudo-code: async_get pid + executable_name,
        then the poll loop services both callbacks."""
        tdp_put(rm_handle, "pid", "123")
        tdp_put(rm_handle, "executable_name", "a.out")
        seen = {}
        tdp_async_get(
            rt_handle, "pid", lambda v, e, a: seen.__setitem__("pid", v), "arg1"
        )
        tdp_async_get(
            rt_handle,
            "executable_name",
            lambda v, e, a: seen.__setitem__("exe", v),
            "arg2",
        )
        serviced = 0
        import time

        deadline = time.monotonic() + 5.0
        while serviced < 2 and time.monotonic() < deadline:
            tdp_poll(rt_handle, timeout=1.0)
            serviced += tdp_service_events(rt_handle)
        assert seen == {"pid": "123", "exe": "a.out"}

    def test_subscribe_via_api(self, rm_handle, rt_handle):
        notes = []
        tdp_subscribe(rt_handle, "status.*", lambda n, a: notes.append(n.value))
        tdp_put(rm_handle, "status.job", "running")
        assert tdp_poll(rt_handle, timeout=5.0)
        tdp_service_events(rt_handle)
        assert notes == ["running"]

    def test_poll_timeout_when_idle(self, rt_handle):
        assert tdp_poll(rt_handle, timeout=0.05) is False

    def test_service_loop_background(self, rm_handle, rt_handle):
        got = []
        tdp_subscribe(rt_handle, "go", lambda n, a: got.append(n.value))
        rt_handle.start_service_loop()
        tdp_put(rm_handle, "go", "now")
        import time

        deadline = time.monotonic() + 5.0
        while not got and time.monotonic() < deadline:
            time.sleep(0.005)
        rt_handle.stop_service_loop()
        assert got == ["now"]
