"""TDP process management: the Figure 3 scenarios and ownership policy."""

import pytest

from repro.errors import NotProcessOwnerError, ProcessError
from repro.tdp.api import (
    tdp_attach,
    tdp_continue_process,
    tdp_create_process,
    tdp_detach,
    tdp_get,
    tdp_kill,
    tdp_pause_process,
    tdp_process_status,
    tdp_put,
    tdp_wait_exit,
)
from repro.tdp.wellknown import Attr, CreateMode, ProcStatus


class TestCreateModes:
    def test_create_run_completes(self, rm_handle):
        info = tdp_create_process(rm_handle, "hello", ["tdp"])
        assert tdp_wait_exit(rm_handle, info.pid, timeout=10.0) == 0

    def test_create_paused_holds_before_main(self, rm_handle, cluster):
        info = tdp_create_process(rm_handle, "hello", mode=CreateMode.PAUSED)
        assert info.status == ProcStatus.CREATED
        proc = cluster.host("node1").get_process(info.pid)
        assert not proc.started

    def test_status_published_to_space(self, rm_handle, rt_handle):
        info = tdp_create_process(rm_handle, "hello", mode=CreateMode.PAUSED)
        assert tdp_get(rt_handle, Attr.proc_status(info.pid), timeout=5.0) == (
            ProcStatus.CREATED
        )

    def test_exit_status_published(self, rm_handle, rt_handle):
        info = tdp_create_process(rm_handle, "exiter", ["7"])
        code = tdp_get(rt_handle, Attr.proc_exit_code(info.pid), timeout=10.0)
        assert code == "7"
        assert tdp_process_status(rt_handle, info.pid) == ProcStatus.exited(7)

    def test_rt_cannot_create(self, rt_handle):
        with pytest.raises(NotProcessOwnerError):
            tdp_create_process(rt_handle, "hello")


class TestFig3ACreateMode:
    """Figure 3A: RM creates AP paused; RT attaches, initializes, continues."""

    def test_full_sequence(self, rm_handle, rt_handle, cluster):
        # RM: create the application paused; publish its pid.
        info = tdp_create_process(
            rm_handle, "hello", ["fig3a"], mode=CreateMode.PAUSED
        )
        tdp_put(rm_handle, Attr.PID, str(info.pid))
        # RM must service tool control requests (its poll loop).
        assert rm_handle.control is not None
        rm_handle.control.serve_tool_requests()
        rm_handle.start_service_loop()

        # RT: blocking-get the pid (the pilot's handshake), attach, continue.
        pid = int(tdp_get(rt_handle, Attr.PID, timeout=10.0))
        assert pid == info.pid
        tdp_attach(rt_handle, pid)
        proc = cluster.host("node1").get_process(pid)
        assert proc.tracer == "paradynd"
        assert proc.stdout_lines == []  # still nothing ran
        tdp_continue_process(rt_handle, pid)
        assert tdp_wait_exit(rt_handle, pid, timeout=10.0) == 0
        assert proc.stdout_lines == ["hello, fig3a"]
        rm_handle.stop_service_loop()


class TestFig3BAttachMode:
    """Figure 3B: AP already running under the RM; RT attaches later."""

    def test_full_sequence(self, rm_handle, rt_handle, cluster):
        from repro.sim.process import ProcessState

        # RM: application has been running for a while (it has reached
        # its first wait for a request).
        info = tdp_create_process(rm_handle, "server_loop", mode=CreateMode.RUN)
        cluster.host("node1").get_process(info.pid).wait_for_state(
            ProcessState.BLOCKED, timeout=10.0
        )
        tdp_put(rm_handle, Attr.PID, str(info.pid))
        rm_handle.control.serve_tool_requests()
        rm_handle.start_service_loop()

        # RT: attach stops it "at some unknown point"; then continue.
        pid = int(tdp_get(rt_handle, Attr.PID, timeout=10.0))
        tdp_attach(rt_handle, pid)
        proc = cluster.host("node1").get_process(pid)

        assert proc.state is ProcessState.STOPPED
        assert proc.started  # unlike create-paused, it HAS run
        tdp_continue_process(rt_handle, pid)
        proc.wait_for_state(
            ProcessState.RUNNABLE, ProcessState.BLOCKED, timeout=5.0
        )
        tdp_kill(rt_handle, pid)
        rm_handle.stop_service_loop()


class TestOwnershipPolicy:
    def test_rm_direct_control(self, rm_handle):
        info = tdp_create_process(rm_handle, "spin")
        tdp_pause_process(rm_handle, info.pid)
        assert tdp_process_status(rm_handle, info.pid) == ProcStatus.STOPPED
        tdp_continue_process(rm_handle, info.pid)
        tdp_kill(rm_handle, info.pid)

    def test_tool_requests_routed_through_rm(self, rm_handle, rt_handle):
        info = tdp_create_process(rm_handle, "spin")
        rm_handle.control.serve_tool_requests()
        rm_handle.start_service_loop()
        tdp_pause_process(rt_handle, info.pid)
        assert tdp_process_status(rt_handle, info.pid) == ProcStatus.STOPPED
        tdp_continue_process(rt_handle, info.pid)
        tdp_kill(rt_handle, info.pid)
        rm_handle.stop_service_loop()

    def test_tool_request_error_propagates(self, rm_handle, rt_handle):
        rm_handle.control.serve_tool_requests()
        rm_handle.start_service_loop()
        with pytest.raises(ProcessError):
            tdp_continue_process(rt_handle, 999999)  # no such pid
        rm_handle.stop_service_loop()

    def test_detach_via_rm(self, rm_handle, rt_handle):
        info = tdp_create_process(rm_handle, "spin")
        rm_handle.control.serve_tool_requests()
        rm_handle.start_service_loop()
        tdp_attach(rt_handle, info.pid)
        tdp_detach(rt_handle, info.pid)
        tdp_kill(rt_handle, info.pid)
        assert tdp_wait_exit(rt_handle, info.pid, timeout=10.0) == 128 + 15
        rm_handle.stop_service_loop()

    def test_no_conflicting_control_single_owner(self, rm_handle, cluster, lass):
        """Two tools cannot both control the AP: the second attach fails
        (the 'confusing race conditions' the single-owner design kills)."""
        from repro.tdp.api import tdp_init
        from repro.tdp.handle import Role

        info = tdp_create_process(rm_handle, "spin")
        rm_handle.control.serve_tool_requests()
        rm_handle.start_service_loop()
        rt1 = tdp_init(
            cluster.transport, lass.endpoint, member="tool-1", role=Role.RT,
            src_host="node1",
        )
        rt2 = tdp_init(
            cluster.transport, lass.endpoint, member="tool-2", role=Role.RT,
            src_host="node1",
        )
        tdp_attach(rt1, info.pid)
        with pytest.raises(ProcessError):
            tdp_attach(rt2, info.pid)
        tdp_kill(rt1, info.pid)
        rt1.close()
        rt2.close()
        rm_handle.stop_service_loop()
