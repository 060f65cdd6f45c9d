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

The starter created its rank's tool daemon, so, like the parent of a
process, it learns of the tool's end without watching for it: a tool
that ends before its rank lets the rank run on under the RM
(:meth:`Starter._tool_ended`).

One starter runs one rank of one job: each claimed machine's startd
spawns the starter of its rank.  Steps 1-3 are the one rank launch of
:class:`~repro.condor.mpi_universe.RankLaunch`, which starts every rank
the same way: a vanilla job is a gang of one.  A worker rank's starter
first waits for the shadow's ``run``, sent once rank 0 is running; its
steps are traced as the gang's (``mpi-coord/<job>``), rank 0's as the
starter's.
"""

from __future__ import annotations

import contextlib
import threading

from repro import errors
from repro.condor.mpi_universe import RankLaunch
from repro.condor.submit import SubmitDescription, ToolDaemonSpec
from repro.condor.tools import (
    ThreadToolHandle,
    ToolRegistry,
    serve_until_ended,
    write_tool_output,
)
from repro.mpisim.runtime import RankInfo
from repro.net.address import Endpoint
from repro.sim.host import SimHost
from repro.tdp.files import FileStager
from repro.tdp.wellknown import Attr, ProcStatus
from repro.transport.base import Channel, Transport
from repro.util.log import TraceRecorder, get_logger, record_event
from repro.util.sync import Latch
from repro.util.threads import spawn

_log = get_logger("condor.starter")


class Starter:
    """One starter instance == one rank of one job on one machine."""

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
        submit_host: str | None = None,
        rank: int,
        disseminated: list[tuple[str, str]],
    ):
        self._transport = transport
        self._host = host
        self.job_id = job_id
        self.rank = rank
        self._desc = description
        self._shadow_endpoint = shadow_endpoint
        self._trace = trace
        self._submit_host = submit_host
        #: the pool-global attributes the schedd read from its CASS
        self._disseminated = disseminated
        self._launch = RankLaunch(
            transport=transport,
            host=host,
            lass_endpoint=lass_endpoint,
            job_id=job_id,
            rank=rank,
            description=description,
            tool_registry=tool_registry,
            trace=trace,
            proxy=proxy,
            stdio_endpoint=stdio_endpoint,
            submit_host=submit_host,
        )
        # tdp-guard: _tool_handle -> volatile
        # (written by the run thread once the rank is launched, or by an
        # attach; control methods run only after the job_started report)
        self._tool_handle: ThreadToolHandle | None = None
        #: the spec the running tool was launched from: the submit file's,
        #: or one attached later
        # tdp-guard: _tool -> volatile
        self._tool: ToolDaemonSpec | None = None
        # tdp-guard: _held -> volatile
        # (condor_hold's mark, written by the startd's serving thread and
        # read by the run thread when the tool ends)
        self._held = False
        #: every line the tool daemon writes, appended to its
        #: +ToolDaemonOutput file once the tool has ended (a buffered
        #: file, flushed on close)
        self._tool_output: list[str] = []
        # tdp-guard: _shadow_channel -> volatile
        # (written once by the run thread, before it opens _named)
        self._shadow_channel: Channel
        #: opened by the run thread once it has named the rank to the
        #: shadow (None), or with why it could not
        self._named: Latch[str | None] = Latch()
        self.exit_code: int | None = None
        self.failure: str | None = None
        self._done = threading.Event()
        self._thread = spawn(
            self._run_guarded,
            name=f"mpi-rank-{job_id}-{rank}" if rank else f"starter-{job_id}",
            start=False,
        )

    def start(self) -> None:
        """Run, once the run thread has named the rank to the shadow; raise
        (the activation fails) if it cannot: the shadow knows every rank."""
        self._thread.start()
        error = self._named.wait()
        if error is not None:
            raise errors.ResourceManagerError(f"cannot reach the shadow: {error}")

    def wait(self, timeout: float | None = None) -> None:
        if not self._done.wait(timeout):
            raise errors.GetTimeoutError(f"starter {self.job_id} still running")

    @property
    def app_pid(self) -> int | None:
        """The rank's process, from its creation to the cleanup."""
        return self._launch.pid

    # -- user-initiated suspension (condor_hold / condor_release) ----------

    def suspend_job(self) -> bool:
        """Pause the application on user request (RM-owned control).

        Section 2.3's coordination in the other direction: the RM pauses
        the process and the status change flows through the attribute
        space, so an attached tool sees a legitimate 'stopped' rather
        than suspecting a fault.
        """
        handle, pid = self._launch.handle, self.app_pid
        if handle is None or handle.control is None or pid is None:
            return False
        try:
            handle.control.pause(pid)
        except errors.TdpError:
            return False
        self._held = True
        self._launch.record("job_suspended", pid=pid)
        self._report({"op": "job_suspended"})
        return True

    def resume_job(self) -> bool:
        handle, pid = self._launch.handle, self.app_pid
        if handle is None or handle.control is None or pid is None:
            return False
        try:
            handle.control.continue_process(pid)
        except errors.InvalidProcessStateError:
            # Already running: an attached tool may have continued it in
            # the window (its continue requests are equally legitimate —
            # the coordination Section 2.3 asks for is that neither side
            # treats the other's action as an error).
            pass
        except errors.TdpError:
            return False
        self._held = False
        self._launch.record("job_resumed", pid=pid)
        self._report({"op": "job_resumed"})
        return True

    def attach_tool(
        self,
        cmd: str,
        args_template: str,
        output: str | None,
        disseminated: list[tuple[str, str]],
    ) -> bool:
        """Launch a run-time tool against the ALREADY-RUNNING application.

        Figure 3B through the batch system: "at a later time, a RT tool
        would like to attach to the application process … the RM might
        be notified that it must launch a RT to monitor the running
        application process" (Section 3.1).  The same pid handshake and
        attach/continue coordination apply; there is just no pre-main
        window.
        """
        pid = self.app_pid
        if pid is None:
            return False
        if self._tool_handle is not None:
            return False  # one controlling tool at a time (ptrace rule)
        spec = ToolDaemonSpec(cmd=cmd, args_template=args_template, output=output)
        self._launch.record("attach_tool", cmd=cmd, pid=pid)
        try:
            tool = self._launch.launch_tool(spec, self._tool_output.append, disseminated)
        except errors.TdpError as e:
            self._launch.record("attach_tool_failed", error=str(e))
            return False
        self._adopt_tool(tool, spec)
        return True

    def _adopt_tool(self, tool: ThreadToolHandle, spec: ToolDaemonSpec) -> None:
        """Keep the rank's tool; its end wakes the rank's handle, whose
        serving thread answers it: the SIGCHLD of a tool the RM created."""
        self._tool, self._tool_handle = spec, tool
        assert self._launch.handle is not None
        tool.on_end(self._launch.handle.attrs.wake)

    def kill_job(self) -> None:
        """Kill the rank (condor_rm, a failed gang, the claim's release);
        a starter not yet running its rank creates nothing."""
        self._launch.kill()

    # -- main flow ----------------------------------------------------------

    def _run_guarded(self) -> None:
        try:
            self._shadow_channel = self._transport.connect(
                self._host.name, self._shadow_endpoint
            )
            self._shadow_channel.send({"op": "hello", "rank": self.rank})
        except Exception as e:  # noqa: BLE001 — the activation reports it
            self._named.open(str(e))
            self._done.set()
            return
        self._named.open(None)
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
        launch = self._launch
        if not launch.await_run(self._shadow_channel):
            return  # the gang ended before this rank was started

        # Steps 1-3: the rank is created, its tool launched and its
        # launch record published.
        try:
            pid, tool = launch.launch(
                self._tool_output.append, self._disseminated, self._master_running
            )
        except Exception as e:
            if not self.rank:
                raise
            # Its peers would wait for it for good: the shadow fails the
            # job and the gang is killed.
            launch.record("rank_start_failed", rank=self.rank, error=str(e))
            raise errors.UniverseError(
                f"rank {self.rank} could not be started: {e}"
            ) from e
        if tool is not None:
            assert self._desc.tool_daemon is not None
            self._adopt_tool(tool, self._desc.tool_daemon)
        if not self.rank:
            self._report({"op": "job_started", "pid": pid})

        # Step 4: the job runs (under tool control when monitored); the
        # starter answers its rank's tool requests until the rank has
        # exited, and its tool's end if that comes first, then reports
        # the exit to the shadow, which keeps the gang.
        handle = launch.handle
        assert handle is not None and handle.control is not None
        control = handle.control

        def tool_ended() -> bool:
            tool = self._tool_handle
            return tool is not None and tool.ended

        handle.serve(until=lambda: tool_ended() or control.status(pid).exit_code is not None)
        if tool_ended():
            self._tool_ended(pid)
        self.exit_code = handle.serve_until_exit(pid)
        launch.record("job_exited", pid=pid, code=self.exit_code)
        self._report({"op": "job_exited", "code": self.exit_code})

    def _tool_ended(self, pid: int) -> None:
        """The rank's tool has ended; if the rank still runs, it runs on
        under the RM.

        A process the tool still traces is detached and resumed, as
        ptrace does to a dead tracer's tracees, and its probes go with
        the tracer; one created paused for a tool that never attached is
        continued.  A process the RM holds itself (condor_hold) stays
        stopped.  A tool that ended with an error, or still tracing, has
        failed: ``fault.<cmd>/<context>`` says so to every participant.
        A tool that ends cleanly without tracing is not a fault.
        """
        tool, spec, handle = self._tool_handle, self._tool, self._launch.handle
        assert tool is not None and spec is not None and handle is not None
        control = handle.control
        assert control is not None
        if control.status(pid).exit_code is not None:
            return  # the rank ended first: its exit is reported as usual
        resume = not self._held
        traced = True
        try:
            control.detach(pid, resume=resume)
        except errors.AttachError:
            traced = False
            if resume and control.status(pid).status == ProcStatus.CREATED:
                with contextlib.suppress(errors.ProcessError):  # exited since
                    control.continue_process(pid)
        if tool.error is None and not traced:
            return
        reason = str(tool.error) if tool.error is not None else "ended still tracing"
        entity = f"{spec.cmd}/{self._launch.context}"
        self._launch.record("tool_failed", tool=entity, pid=pid, reason=reason)
        _log.warning("starter %s: tool %s failed: %s", self.job_id, entity, reason)
        with contextlib.suppress(errors.TdpError):
            handle.attrs.put(Attr.fault(entity), f"rt:{reason}")

    def _master_running(self, master: RankInfo) -> None:
        """Rank 0 reached mpi.init: tell the shadow, which starts the other
        ranks.  Runs in the simulator's service hook, so it only sends."""
        record_event(
            self._trace, f"mpi-coord/{self.job_id}", "master_running", pid=master.pid
        )
        self._report({"op": "master_running"})

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
            self._launch.record("stage_out_failed", error=str(e))
            return
        if records:
            self._launch.record(
                "stage_out", files=",".join(r.path for r in records)
            )

    def _write_tool_output(self) -> None:
        """Append the ended tool's lines to its output file, in one write."""
        tool = self._tool
        if tool is not None:
            write_tool_output(self._host.filesystem, tool.output, self._tool_output)

    # -- reporting / teardown ----------------------------------------------------

    def _report(self, message: dict) -> None:
        try:
            self._shadow_channel.send(message)
        except errors.TdpError:
            pass

    def _cleanup(self) -> None:
        if self._tool_handle is not None:
            # The tool observes the rank's exit (final samples, trace
            # file) with its requests still answered.
            assert self._launch.handle is not None
            serve_until_ended(self._launch.handle, self._tool_handle)
            self._write_tool_output()
        self._launch.cleanup()  # ends the rank's session, reaps its process
        # Stage outputs only after the tool finished writing its traces.
        # A worker rank's files stay on its host: every rank's tool output
        # has the same name, so they would collide on the submit host.
        if self.failure is None and not self.rank:
            self._stage_out()
        self._shadow_channel.close()
