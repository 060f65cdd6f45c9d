"""ProcessControlService unit tests: the ctl.req/ctl.rep channel."""

import json

import pytest

from repro.errors import NotProcessOwnerError, ProcessError
from repro.tdp.api import tdp_create_process
from repro.tdp.process import submit_tool_request
from repro.tdp.wellknown import Attr


@pytest.fixture
def serving_rm(rm_handle):
    rm_handle.control.serve_tool_requests()
    rm_handle.start_service_loop()
    yield rm_handle
    rm_handle.stop_service_loop()


class TestToolRequestChannel:
    def test_create_not_permitted_for_tools(self, serving_rm, rt_handle):
        token = "t-create"
        rt_handle.attrs.put(
            Attr.ctl_request(token),
            json.dumps({"op": "create", "pid": 0, "requester": "rt"}),
        )
        reply = rt_handle.attrs.get(Attr.ctl_reply(token), timeout=10.0)
        assert reply.startswith("error:")
        assert "not permitted" in reply

    def test_malformed_request_gets_error_reply(self, serving_rm, rt_handle):
        token = "t-garbage"
        rt_handle.attrs.put(Attr.ctl_request(token), "this is not json")
        reply = rt_handle.attrs.get(Attr.ctl_reply(token), timeout=10.0)
        assert reply.startswith("error:malformed")

    def test_missing_fields_get_error_reply(self, serving_rm, rt_handle):
        token = "t-fields"
        rt_handle.attrs.put(Attr.ctl_request(token), json.dumps({"op": "pause"}))
        reply = rt_handle.attrs.get(Attr.ctl_reply(token), timeout=10.0)
        assert reply.startswith("error:malformed")

    def test_submit_tool_request_maps_errors(self, serving_rm, rt_handle):
        with pytest.raises(ProcessError):
            submit_tool_request(rt_handle.attrs, "pause", 424242)

    def test_not_permitted_maps_to_owner_error(self, serving_rm, rt_handle):
        with pytest.raises(NotProcessOwnerError):
            submit_tool_request(rt_handle.attrs, "create", 1)  # type: ignore[arg-type]

    def test_requester_becomes_tracer(self, serving_rm, rt_handle, cluster):
        info = tdp_create_process(serving_rm, "spin")
        submit_tool_request(rt_handle.attrs, "attach", info.pid)
        proc = cluster.host("node1").get_process(info.pid)
        assert proc.tracer == rt_handle.attrs.member
        submit_tool_request(rt_handle.attrs, "kill", info.pid)

    def test_concurrent_tool_requests(self, serving_rm, rt_handle):
        """Several outstanding control requests resolve independently."""
        import threading

        pids = [
            tdp_create_process(serving_rm, "spin").pid for _ in range(4)
        ]
        errors_seen = []

        def pause_and_kill(pid):
            try:
                submit_tool_request(rt_handle.attrs, "pause", pid)
                submit_tool_request(rt_handle.attrs, "continue", pid)
                submit_tool_request(rt_handle.attrs, "kill", pid)
            except Exception as e:  # noqa: BLE001
                errors_seen.append(e)

        threads = [
            threading.Thread(target=pause_and_kill, args=(pid,)) for pid in pids
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert errors_seen == []
        for pid in pids:
            assert serving_rm.control.wait_exit(pid, timeout=10.0) == 128 + 15


class TestReplyCarriesTheStatus:
    def test_reader_woken_by_the_reply_sees_the_new_status(
        self, serving_rm, rt_handle
    ):
        """The RM answers in one frame: by the time ``ctl.rep.<token>``
        wakes the tool, ``proc.<pid>.status`` is the operation's."""
        info = tdp_create_process(serving_rm, "spin")
        status = Attr.proc_status(info.pid)
        for op, expected in [
            ("attach", "stopped"), ("continue", "running"),
            ("pause", "stopped"), ("detach", "running"),
        ] * 5:
            submit_tool_request(rt_handle.attrs, op, info.pid)
            assert rt_handle.attrs.try_get(status) == expected, op
        submit_tool_request(rt_handle.attrs, "kill", info.pid)

    def test_exit_is_the_last_word_on_a_process(self, cluster, lass, rt_handle):
        """A process let run can exit, and its exit be published, before
        the RM has sent the ``running`` that let it: that older status
        must not land on top of the exit."""
        import time

        from repro.tdp.api import tdp_init
        from repro.tdp.handle import Role
        from repro.tdp.process import SimHostBackend
        from repro.tdp.wellknown import CreateMode

        def published(pid):
            return rt_handle.attrs.try_get(Attr.proc_status(pid))

        class ExitsBeforeContinueReturns(SimHostBackend):
            def continue_process(self, pid):
                super().continue_process(pid)
                self.wait_exit(pid, timeout=10.0)
                deadline = time.monotonic() + 10.0
                while not published(pid).startswith("exited:"):
                    assert time.monotonic() < deadline
                    time.sleep(0.005)

        rm = tdp_init(
            cluster.transport, lass.endpoint, member="starter-2", role=Role.RM,
            backend=ExitsBeforeContinueReturns(cluster.host("node1")),
        )
        try:
            rm.control.serve_tool_requests()
            rm.start_service_loop()
            info = tdp_create_process(rm, "hello", ["x"], mode=CreateMode.PAUSED)
            submit_tool_request(rt_handle.attrs, "continue", info.pid)
            deadline = time.monotonic() + 10.0
            while published(info.pid) != "exited:0":
                assert time.monotonic() < deadline
                time.sleep(0.005)
        finally:
            rm.stop_service_loop()
            rm.close()


class TestStatusPublication:
    def test_full_lifecycle_status_stream(self, serving_rm, rt_handle, cluster):
        notes = []
        rt_handle.attrs.subscribe(
            Attr.PROC_STATUS_PATTERN, lambda n, a: notes.append(n.value), None
        )
        info = tdp_create_process(serving_rm, "spin")
        serving_rm.control.pause(info.pid)
        serving_rm.control.continue_process(info.pid)
        serving_rm.control.kill(info.pid)
        serving_rm.control.wait_exit(info.pid, timeout=10.0)
        import time

        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            rt_handle.poll(timeout=0.2)
            rt_handle.service_events()
            if any(v.startswith("exited:") for v in notes):
                break
        assert notes[0] == "running"           # created (RUN mode)
        assert "stopped" in notes
        assert any(v.startswith("exited:") for v in notes)
