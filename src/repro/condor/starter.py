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

Steps 1-3 are the one rank launch of
:class:`~repro.condor.mpi_universe.MpiUniverseCoordinator`, which starts
every rank of a job the same way: a vanilla job is a gang of one.
"""

from __future__ import annotations

import threading
from typing import Callable

from repro import errors
from repro.condor.mpi_universe import MpiUniverseCoordinator, machine_slots_from_wire
from repro.condor.submit import SubmitDescription, ToolDaemonSpec
from repro.condor.tools import (
    ThreadToolHandle,
    ToolRegistry,
    serve_until_ended,
    write_tool_output,
)
from repro.net.address import Endpoint
from repro.sim.host import SimHost
from repro.tdp.files import FileStager
from repro.tdp.handle import TdpHandle
from repro.transport.base import Channel, Transport
from repro.util.log import TraceRecorder, get_logger, record_event
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
        # tdp-guard: _gang -> volatile
        # (written once by the run thread before rank 0's launch; a kill
        # request that comes before it finds no job to kill)
        self._gang: MpiUniverseCoordinator | None = None
        # Launch-sequenced publishes: the run thread writes each handle
        # once rank 0 is launched, and control methods (invoked via the
        # startd/shadow only after the job_started report) read them; a
        # pre-launch reader correctly sees None.
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
        gang = self._gang
        if gang is None or self.app_pid is None:
            return False
        if self._tool_handle is not None:
            return False  # one controlling tool at a time (ptrace rule)
        spec = ToolDaemonSpec(cmd=cmd, args_template=args_template, output=output)
        self._record("attach_tool", cmd=cmd, pid=self.app_pid)
        try:
            self._tool_handle = gang.launch_tool(0, spec, self._tool_output.append)
        except errors.TdpError as e:
            self._record("attach_tool_failed", error=str(e))
            return False
        self._tool = spec
        return True

    def kill_job(self) -> bool:
        """Terminate the job on user request (condor_rm): every rank of
        it, as an MPI job's other ranks would wait for rank 0 for good.
        A rank still being launched dies as it is created."""
        gang = self._gang
        if gang is None:
            return False
        gang.kill()
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
        gang = MpiUniverseCoordinator(
            transport=self._transport,
            host=self._host,
            lass_endpoint=self._lass_endpoint,
            job_id=self.job_id,
            description=self._desc,
            extra_machines=machine_slots_from_wire(self._extra_machines),
            tool_registry=self._tools,
            trace=self._trace,
            proxy=self._proxy,
            stdio_endpoint=self._stdio_endpoint,
            submit_host=self._submit_host,
            read_cass=self._read_cass,
        )
        self._gang = gang

        # Steps 1-3: rank 0 (the job's one process, unless it is a gang)
        # is created, its tool launched and its launch record published.
        handle, pid, tool = gang.launch(0, self._tool_output.append)
        self._handle = handle
        if tool is not None:
            self._tool_handle, self._tool = tool, self._desc.tool_daemon
        self.app_pid = pid
        self._report({"op": "job_started", "pid": pid})

        # Step 4: the job runs (under tool control when monitored); the
        # starter answers rank 0's tool requests until every rank has
        # exited, then reports the job's completion to the shadow.
        self.exit_code = gang.wait_all_exited(handle, timeout=None)
        self._record("job_exited", pid=pid, code=self.exit_code)
        if gang.start_failure is not None:
            raise errors.UniverseError(gang.start_failure)
        self._report({"op": "job_exited", "code": self.exit_code})

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

    def _write_tool_output(self) -> None:
        """Append the ended tool's lines to its output file, in one write."""
        tool = self._tool
        if tool is not None:
            write_tool_output(self._host.filesystem, tool.output, self._tool_output)

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
        if self._gang is not None:
            self._gang.cleanup()  # ends every rank's session, reaps its process
        # Stage outputs only after the tool finished writing its traces.
        if self.failure is None:
            self._stage_out()
        if self._shadow_channel is not None:
            self._shadow_channel.close()
