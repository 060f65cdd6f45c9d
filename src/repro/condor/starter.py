"""condor_starter: spawns and supervises one job on an execution machine.

"This program is the entity that spawns the remote Condor job on a
given machine.  It sets up the execution environment and monitors the
job once it is running" (Section 4.1).  In the Parador pilot the starter
is the daemon that speaks TDP (Figure 6):

* **Step 1** — ``tdp_init`` (creating the per-job LASS context), then
  ``tdp_create_process(AP, paused)`` when ``+SuspendJobAtExec`` is set;
* **Step 2** — ``tdp_create_process(RT, run)`` for the tool daemon;
* **Step 3** — publish the application pid with ``tdp_put`` (unblocking
  the tool daemon's ``tdp_get``); keep servicing control requests;
* **Step 4** — the tool controls the application; the starter reports
  status to the shadow and, when the job completes, stages files out and
  tears the context down.
"""

from __future__ import annotations

import threading
from typing import Callable

from repro import errors
from repro.condor.submit import SubmitDescription, ToolDaemonSpec
from repro.condor.tools import (
    ThreadToolHandle,
    ToolLaunchContext,
    ToolRegistry,
    percent_names,
    serve_until_ended,
)
from repro.net.address import Endpoint
from repro.sim.host import SimHost
from repro.tdp.api import (
    tdp_create_process,
    tdp_exit,
    tdp_init,
    tdp_put,
    tdp_put_many,
)
from repro.tdp.handle import Role, TdpHandle
from repro.tdp.process import SimHostBackend
from repro.tdp.stdio import StdioRelay
from repro.tdp.wellknown import Attr, CreateMode
from repro.transport.base import Channel, Transport
from repro.util.log import TraceRecorder, get_logger, record_event
from repro.util.strings import join_arguments, split_arguments
from repro.util.threads import spawn

_log = get_logger("condor.starter")


class Starter:
    """One starter instance == one job execution on one machine."""

    def __init__(
        self,
        *,
        transport: Transport,
        host: SimHost,
        lass_endpoint: Endpoint,
        job_id: str,
        description: SubmitDescription,
        shadow_endpoint: Endpoint,
        stdio_endpoint: Endpoint | None,
        tool_registry: ToolRegistry,
        trace: TraceRecorder | None = None,
        proxy: Endpoint | None = None,
        extra_machines: list[dict] | None = None,
        submit_host: str | None = None,
        read_cass: Callable[[tuple[str, ...]], list[tuple[str, str]]] | None = None,
    ):
        self._transport = transport
        self._host = host
        self._lass_endpoint = lass_endpoint
        self.job_id = job_id
        self._desc = description
        self._shadow_endpoint = shadow_endpoint
        self._stdio_endpoint = stdio_endpoint
        self._tools = tool_registry
        self._trace = trace
        self._proxy = proxy
        self._extra_machines = list(extra_machines or [])
        self._submit_host = submit_host
        #: the startd's best-effort read of pool-global attributes from
        #: the CASS (``None``: the pool has none)
        self._read_cass = read_cass
        # tdp-guard: _mpi_coordinator -> volatile
        # (written once by the run thread before app_pid, which a kill
        # request needs first)
        self._mpi_coordinator = None
        # Launch-sequenced publishes: the run thread writes each handle
        # exactly once during startup, and control methods (invoked via
        # the startd/shadow only after the job_started report) read
        # them; a pre-launch reader correctly sees None.
        # tdp-guard: _handle -> volatile
        self._handle: TdpHandle | None = None
        # tdp-guard: _tool_handle -> volatile
        self._tool_handle: ThreadToolHandle | None = None
        #: the spec the running tool was launched from: the submit file's,
        #: or one attached later
        # tdp-guard: _tool -> volatile
        self._tool: ToolDaemonSpec | None = None
        #: every line the tool daemon writes, appended to its
        #: +ToolDaemonOutput file once the tool has ended (a buffered
        #: file, flushed on close)
        self._tool_output: list[str] = []
        # tdp-guard: _shadow_channel -> volatile
        self._shadow_channel: Channel | None = None
        self._relay: StdioRelay | None = None
        # tdp-guard: app_pid -> volatile
        # (written once when the application is created, before the
        # job_started report that makes control requests possible)
        self.app_pid: int | None = None
        self.exit_code: int | None = None
        self.failure: str | None = None
        self._done = threading.Event()
        self._thread = spawn(
            self._run_guarded, name=f"starter-{job_id}", start=False
        )

    def start(self) -> None:
        self._thread.start()

    def wait(self, timeout: float | None = None) -> None:
        if not self._done.wait(timeout):
            raise errors.GetTimeoutError(f"starter {self.job_id} still running")

    def _record(self, action: str, **details) -> None:
        record_event(self._trace, "starter", action, **details)

    # -- user-initiated suspension (condor_hold / condor_release) ----------

    def suspend_job(self) -> bool:
        """Pause the application on user request (RM-owned control).

        Section 2.3's coordination in the other direction: the RM pauses
        the process and the status change flows through the attribute
        space, so an attached tool sees a legitimate 'stopped' rather
        than suspecting a fault.
        """
        handle = self._handle
        if handle is None or handle.control is None or self.app_pid is None:
            return False
        try:
            handle.control.pause(self.app_pid)
        except errors.TdpError:
            return False
        self._record("job_suspended", pid=self.app_pid)
        self._report({"op": "job_suspended"})
        return True

    def resume_job(self) -> bool:
        handle = self._handle
        if handle is None or handle.control is None or self.app_pid is None:
            return False
        try:
            handle.control.continue_process(self.app_pid)
        except errors.InvalidProcessStateError:
            # Already running: an attached tool may have continued it in
            # the window (its continue requests are equally legitimate —
            # the coordination Section 2.3 asks for is that neither side
            # treats the other's action as an error).
            pass
        except errors.TdpError:
            return False
        self._record("job_resumed", pid=self.app_pid)
        self._report({"op": "job_resumed"})
        return True

    def attach_tool(self, cmd: str, args_template: str, output: str | None = None) -> bool:
        """Launch a run-time tool against the ALREADY-RUNNING application.

        Figure 3B through the batch system: "at a later time, a RT tool
        would like to attach to the application process … the RM might
        be notified that it must launch a RT to monitor the running
        application process" (Section 3.1).  The same pid handshake and
        attach/continue coordination apply; there is just no pre-main
        window.
        """
        handle = self._handle
        if handle is None or self.app_pid is None:
            return False
        if self._tool_handle is not None:
            return False  # one controlling tool at a time (ptrace rule)
        spec = ToolDaemonSpec(cmd=cmd, args_template=args_template, output=output)
        self._record("attach_tool", cmd=cmd, pid=self.app_pid)
        try:
            self._launch_tool_daemon(handle, self.app_pid, spec)
        except errors.TdpError as e:
            self._record("attach_tool_failed", error=str(e))
            return False
        return True

    def kill_job(self) -> bool:
        """Terminate the application on user request (condor_rm): every
        rank of an MPI job, whose other ranks would wait for rank 0 for
        good."""
        handle = self._handle
        if handle is None or handle.control is None or self.app_pid is None:
            return False
        coordinator = self._mpi_coordinator
        try:
            if coordinator is not None:
                coordinator._kill_created_ranks()
            else:
                handle.control.kill(self.app_pid)
        except errors.TdpError:
            return False
        self._record("job_killed", pid=self.app_pid)
        return True

    # -- main flow ----------------------------------------------------------

    def _run_guarded(self) -> None:
        try:
            self._run()
        except Exception as e:  # noqa: BLE001 — reported to the shadow
            self.failure = str(e)
            _log.warning("starter %s failed: %s", self.job_id, e)
            self._report({"op": "job_failed", "reason": str(e)})
        finally:
            self._cleanup()
            self._done.set()

    def _run(self) -> None:
        self._shadow_channel = self._transport.connect(
            self._host.name, self._shadow_endpoint
        )
        desc = self._desc

        # Step 1: initialize the TDP framework for this job's context.
        self._record("tdp_init", context=self.job_id, host=self._host.name)
        handle = tdp_init(
            self._transport,
            self._lass_endpoint,
            member=f"starter/{self.job_id}",
            role=Role.RM,
            context=self.job_id,
            backend=SimHostBackend(self._host),
        )
        self._handle = handle
        assert handle.control is not None
        handle.control.serve_tool_requests()

        self._stage_in()

        if desc.universe == "mpi":
            self._run_mpi(handle)
            return

        monitored = desc.monitored
        mode = (
            CreateMode.PAUSED
            if (monitored and desc.suspend_job_at_exec)
            else CreateMode.RUN
        )

        # Create the application (paused for monitored jobs): Fig. 6 step 1.
        self._record(
            "tdp_create_process",
            target="AP",
            executable=desc.executable,
            mode=mode.value,
        )
        info = tdp_create_process(
            handle,
            desc.executable,
            desc.arguments,
            env=desc.environment,
            mode=mode,
        )
        self.app_pid = info.pid
        self._report({"op": "job_started", "pid": info.pid, "mode": mode.value})

        # Wire the job's stdio to the shadow's collector.
        proc = self._host.get_process(info.pid)
        if self._stdio_endpoint is not None:
            self._relay = StdioRelay(
                self._transport,
                self._host.name,
                self._stdio_endpoint,
                proxy=self._proxy,
                feed_stdin=proc.feed_stdin,
                close_stdin=proc.close_stdin,
            )
            proc.add_stdout_sink(self._relay.forward_stdout)

        if desc.tool_daemon is not None:
            self._launch_tool_daemon(handle, info.pid, desc.tool_daemon)

        # Step 4: the job runs (under tool control when monitored); the
        # starter answers the tool's requests until it exits, then
        # reports its completion to the shadow.
        self.exit_code = handle.serve_until_exit(info.pid)
        self._record("job_exited", pid=info.pid, code=self.exit_code)
        self._report({"op": "job_exited", "code": self.exit_code})

    def _stage_in(self) -> None:
        """Transfer job + tool input files to this execution node.

        Implements the submit file's ``transfer_input_files`` (which in
        the pilot shipped the paradynd binary, Fig. 5B) and
        ``+ToolDaemonTransferInput`` — TDP's "tool daemon configuration
        … files transferred to the execution nodes".
        """
        if self._submit_host is None:
            return
        paths = list(self._desc.transfer_input_files)
        if self._desc.tool_daemon is not None:
            paths.extend(self._desc.tool_daemon.transfer_input)
        if not paths:
            return
        from repro.tdp.files import FileStager

        stager = FileStager(self._host.cluster)
        submit_fs = self._host.cluster.host(self._submit_host).filesystem
        present = [p for p in paths if p in submit_fs]
        if present:
            stager.stage_in(self._submit_host, self._host.name, present)
            self._record("stage_in", files=",".join(present))
        missing = sorted(set(paths) - set(present))
        if missing:
            # The pilot listed 'paradynd' even though our tools are not
            # files; absent inputs are logged, not fatal.
            self._record("stage_in_skipped", files=",".join(missing))

    def _stage_out(self) -> None:
        """Transfer declared outputs and tool trace files back.

        TDP: trace/summary files "must be transferred from the execution
        nodes after the application completes".
        """
        if self._submit_host is None:
            return
        patterns = list(self._desc.transfer_output_files)
        tool = self._tool
        if tool is not None:
            patterns.append(f"paradyn.{self.job_id}.trace")
            if tool.output:
                patterns.append(tool.output)
        if not patterns:
            return
        from repro.tdp.files import FileStager

        stager = FileStager(self._host.cluster)
        exec_fs = self._host.filesystem
        globs = [p for p in patterns if any(ch in p for ch in "*?[")]
        literals = [p for p in patterns if p in exec_fs and p not in globs]
        try:
            records = stager.stage_out(
                self._host.name, self._submit_host, literals + globs
            )
        except errors.StagingError as e:
            self._record("stage_out_failed", error=str(e))
            return
        if records:
            self._record(
                "stage_out", files=",".join(r.path for r in records)
            )

    def _run_mpi(self, handle: TdpHandle) -> None:
        """The MPI universe (paper Section 4.3): master rank first, the
        remaining ranks on rank 0's mpi.init, one paradynd per rank."""
        from repro.condor.mpi_universe import (
            MpiUniverseCoordinator,
            machine_slots_from_wire,
        )

        desc = self._desc
        coordinator = MpiUniverseCoordinator(
            transport=self._transport,
            master_host=self._host,
            master_lass=self._lass_endpoint,
            job_id=self.job_id,
            description=desc,
            extra_machines=machine_slots_from_wire(self._extra_machines),
            tool_registry=self._tools,
            trace=self._trace,
        )
        self._mpi_coordinator = coordinator
        self._record("mpi_master_create", machines=desc.machine_count)
        pid = coordinator.start_master(handle)
        self.app_pid = pid
        self._report({"op": "job_started", "pid": pid, "mode": "mpi"})

        proc = self._host.get_process(pid)
        if self._stdio_endpoint is not None:
            self._relay = StdioRelay(
                self._transport,
                self._host.name,
                self._stdio_endpoint,
                proxy=self._proxy,
                feed_stdin=proc.feed_stdin,
                close_stdin=proc.close_stdin,
            )
            proc.add_stdout_sink(self._relay.forward_stdout)

        if desc.tool_daemon is not None:
            self._launch_tool_daemon(handle, pid, desc.tool_daemon)

        self.exit_code = coordinator.wait_all_exited(handle, timeout=None)
        self._record("job_exited", pid=pid, code=self.exit_code)
        if coordinator.start_failure is not None:
            raise errors.UniverseError(coordinator.start_failure)
        self._report({"op": "job_exited", "code": self.exit_code})

    def _disseminate_global_attributes(self, handle: TdpHandle) -> None:
        """Copy pool-global attributes from the CASS into the job's LASS
        context: one batched read on the startd's session, one batched
        write on the job's.

        This implements the paper's stated completion of the pilot:
        "port arguments should be published by [the] Paradyn front-end
        and disseminated to remote sites as attribute values" (Section
        4.3).  The tool daemon then finds its front-end via
        ``tdp_get("rt.frontend")`` with no ports on its command line.
        """
        if self._read_cass is None:
            return
        items = self._read_cass(
            (Attr.RT_FRONTEND, Attr.RM_PROXY, Attr.STDIO_ENDPOINT)
        )
        if not items:
            return
        handle.attrs.put_many(items)
        for attribute, value in items:
            self._record("disseminate", attribute=attribute, value=value)

    def _launch_tool_daemon(
        self, handle: TdpHandle, app_pid: int, tool: ToolDaemonSpec
    ) -> None:
        desc = self._desc
        self._disseminate_global_attributes(handle)
        if self._proxy is not None:
            # Advertise the RM's existing proxy so the tool daemon can
            # cross the private network (Section 2.4: TDP "merely
            # leverages existing [proxies]" and names them to the tool).
            tdp_put(handle, Attr.RM_PROXY, str(self._proxy))
            self._record("tdp_put", attribute=Attr.RM_PROXY, value=str(self._proxy))

        # Step 2: create the tool daemon (not paused).
        self._record("tdp_create_process", target="RT", executable=tool.cmd, mode="run")
        launcher = self._tools.resolve(tool.cmd)
        context = ToolLaunchContext(
            transport=self._transport,
            host=self._host.name,
            lass_endpoint=self._lass_endpoint,
            context=self.job_id,
            args=split_arguments(tool.args_template),
            job_id=self.job_id,
            trace=self._trace,
            output_sink=self._tool_output.append,
            extras={"sim_host": self._host},
        )
        self._tool_handle = launcher(context)
        self._tool = tool

        # Step 3: publish what the %names in ToolDaemonArgs requested —
        # always including the pid, the pilot's core handshake.
        requested = set(percent_names(tool.args_template)) | {"pid"}
        assert "pid" in requested
        self._record("tdp_put", attribute=Attr.PID, value=str(app_pid))
        # The pid and its standard companions (always published so any
        # tool can discover the application without extra %names) go out
        # as one batched frame: the tool daemon blocked on ``pid`` wakes
        # to find the whole launch record already in place.
        tdp_put_many(
            handle,
            [
                (Attr.PID, str(app_pid)),
                (Attr.EXECUTABLE_NAME, desc.executable),
                (Attr.APP_HOST, self._host.name),
                (Attr.APP_ARGS, join_arguments(desc.arguments)),
            ],
        )

    def _write_tool_output(self) -> None:
        """Append the ended tool's lines to its output file, in one write."""
        tool = self._tool
        if tool is None or not tool.output or not self._tool_output:
            return
        fs = self._host.filesystem
        lines = "".join(line + "\n" for line in self._tool_output)
        fs[tool.output] = fs.get(tool.output, "") + lines

    # -- reporting / teardown ----------------------------------------------------

    def _report(self, message: dict) -> None:
        if self._shadow_channel is None:
            return
        try:
            self._shadow_channel.send(message)
        except errors.TdpError:
            pass

    def _cleanup(self) -> None:
        if self._tool_handle is not None:
            # The tool observes the job's exit (final samples, trace
            # file) with its requests still answered.
            assert self._handle is not None
            serve_until_ended(self._handle, self._tool_handle)
            self._write_tool_output()
        if self._mpi_coordinator is not None:
            self._mpi_coordinator.cleanup()
        # Stage outputs only after the tool finished writing its traces.
        if self.failure is None:
            self._stage_out()
        if self._relay is not None:
            self._relay.close()
        if self._handle is not None:
            self._record("tdp_exit", context=self.job_id)
            tdp_exit(self._handle)
        if self._shadow_channel is not None:
            self._shadow_channel.close()
        if self.app_pid is not None:
            self._host.reap(self.app_pid)  # the job is over: forget its process
