"""The Condor MPI universe under TDP (paper Section 4.3), and the one
rank launch every starter runs.

The paper's flow, reproduced step by step:

1. The job "does not start until a suitable number of machines are
   allocated by Condor" — the schedd claims ``machine_count`` machines
   and activates each claim with its rank, rank 0 last; each machine's
   startd spawns the starter of its rank.
2. "A first process (called 'master process') is started.  In MPI
   terminology, this process has rank 0.  A paradynd is created
   afterwards, information is exchanged between starter and paradynd
   using the LASS, paradynd attaches to the process" — rank 0's starter
   runs the vanilla create-paused handshake.
3. "Once the user issues the run command, the rest of the processes …
   are created with a paradynd attached to each one of them.  Processes
   are created and stopped, paradynds attach to them and, after
   reporting to the front-end, they immediately issue a run command" —
   rank 0's ``mpi.init`` (it only happens once the user ran it) is
   reported to the shadow as ``master_running``.  The shadow sends
   ``run`` to every worker rank's starter, each waiting for it since its
   activation, and each starts its rank the way rank 0 was started, with
   its own paradynd (``auto_run`` — they immediately continue).  The
   shadow keeps the gang: the job is over once every rank's starter has
   reported its rank's end.

Every rank — a vanilla job's one process, rank 0, each worker rank — is
launched by :meth:`RankLaunch.launch` on its own starter's thread:
``tdp_init`` on the rank's context, stage-in to the rank's host, create
(paused for ``+SuspendJobAtExec``), stdout to the job's collector, the
tool daemon, and one launch record carrying the pid, its companions, the
job's disseminated attributes and the RM's proxy.  A vanilla job is a
gang of one.
"""

from __future__ import annotations

from typing import Callable

from repro import errors
from repro.condor.submit import SubmitDescription, ToolDaemonSpec
from repro.condor.tools import ThreadToolHandle, ToolLaunchContext, ToolRegistry
from repro.mpisim.runtime import MpiRuntime, RankInfo
from repro.net.address import Endpoint
from repro.sim.host import SimHost
from repro.tdp.api import (
    tdp_create_process,
    tdp_exit,
    tdp_init,
    tdp_put_many,
)
from repro.tdp.files import FileStager
from repro.tdp.handle import Role, TdpHandle
from repro.tdp.process import SimHostBackend
from repro.tdp.stdio import StdioRelay
from repro.tdp.wellknown import Attr, CreateMode
from repro.transport.base import Channel, Transport
from repro.util.log import TraceRecorder, record_event
from repro.util.strings import join_arguments, split_arguments
from repro.util.sync import tracked_lock


class RankLaunch:
    """One rank's launch on its starter's machine, and what the starter
    holds of it until cleanup: the RM handle, the process, the relay."""

    def __init__(
        self,
        *,
        transport: Transport,
        host: SimHost,
        lass_endpoint: Endpoint,
        job_id: str,
        rank: int,
        description: SubmitDescription,
        tool_registry: ToolRegistry,
        trace: TraceRecorder | None = None,
        proxy: Endpoint | None = None,
        stdio_endpoint: Endpoint | None = None,
        submit_host: str | None = None,
    ):
        self._transport = transport
        self._host = host
        self._lass_endpoint = lass_endpoint
        self.job_id = job_id
        self.rank = rank
        self._desc = description
        self._tools = tool_registry
        self._trace = trace
        self._proxy = proxy
        self._stdio_endpoint = stdio_endpoint
        self._submit_host = submit_host
        self._mpi = description.universe == "mpi"
        self.size = description.ranks
        self._suffix = f".r{rank}" if rank else ""
        self.context = job_id + self._suffix
        #: rank 0's steps are its starter's; a worker's are the gang's
        self.actor = "starter" if rank == 0 else f"mpi-coord/{job_id}"
        self._lock = tracked_lock("condor.mpi_universe.RankLaunch._lock")
        # tdp-guard: handle -> volatile
        # (written once by the launch, before the pid that makes a kill
        # reach for it)
        self.handle: TdpHandle | None = None
        self._pid: int | None = None
        #: latched by the first kill: a rank created after it dies too
        self._killed = False
        #: the shadow channel while a worker rank waits for its run
        self._waiting: Channel | None = None
        #: the gang's table, held from the launch to the cleanup
        # tdp-guard: _runtime -> volatile
        # (launch and cleanup, its only users and the relay's, run on the
        # rank's starter thread)
        self._runtime: MpiRuntime | None = None
        # tdp-guard: _relay -> volatile
        self._relay: StdioRelay | None = None

    def record(self, action: str, **details) -> None:
        record_event(self._trace, self.actor, action, **details)

    def _env(self) -> dict[str, str]:
        if not self._mpi:
            return self._desc.environment
        return {
            **self._desc.environment,
            "MPI_JOB": self.job_id,
            "MPI_RANK": str(self.rank),
            "MPI_SIZE": str(self.size),
        }

    @property
    def pid(self) -> int | None:
        """The rank's process, from its creation to the cleanup."""
        with self._lock:
            return self._pid

    def await_run(self, channel: Channel) -> bool:
        """Whether to create the rank: rank 0 at once, a worker rank once
        the shadow sends ``run`` on ``channel`` (rank 0 runs).  False if
        the gang ended first (a kill, or the shadow closing the channel):
        nothing is created then."""
        with self._lock:
            if self._killed or self.rank == 0:
                return not self._killed
            self._waiting = channel
        try:
            channel.recv()
        except errors.TdpError:
            return False
        with self._lock:
            self._waiting = None
            return not self._killed

    def launch(
        self,
        tool_output: Callable[[str], None],
        disseminated: list[tuple[str, str]],
        on_master_running: Callable[[RankInfo], None],
    ) -> tuple[int, ThreadToolHandle | None]:
        """Start the rank on this machine: Figure 6's steps 1-3.

        Returns its process's pid and its tool daemon (``None``:
        unmonitored, or killed as it was created); ``tool_output`` takes
        each line the tool writes.  Rank 0 of a gang creates the gang's
        runtime table and calls ``on_master_running`` at its ``mpi.init``.
        """
        if self._mpi:
            runtime = MpiRuntime.ensure(self._host.cluster)
            if self.rank == 0:
                runtime.create_job(self.job_id, self.size)
                record_event(
                    self._trace, f"mpi-coord/{self.job_id}", "mpi_master_create",
                    machines=self.size,
                )
            else:
                runtime.join_job(self.job_id)
            self._runtime = runtime
        host = self._host
        # The per-machine RM presence: its own context on its host's LASS.
        self.record("tdp_init", context=self.context, host=host.name)
        handle = tdp_init(
            self._transport,
            self._lass_endpoint,
            member=f"starter/{self.context}",
            role=Role.RM,
            context=self.context,
            backend=SimHostBackend(host),
        )
        self.handle = handle  # cleanup() owns it from here
        assert handle.control is not None
        handle.control.serve_tool_requests()
        self._stage_in()

        desc = self._desc
        mode = (
            CreateMode.PAUSED
            if (desc.monitored and desc.suspend_job_at_exec)
            else CreateMode.RUN
        )
        self.record(
            "tdp_create_process", target="AP" + self._suffix,
            executable=desc.executable, mode=mode.value, host=host.name,
        )
        info = tdp_create_process(
            handle, desc.executable, desc.arguments, env=self._env(), mode=mode,
        )
        with self._lock:
            self._pid = info.pid
            killed = self._killed
        if killed:
            handle.control.kill(info.pid)
            return info.pid, None

        proc = host.get_process(info.pid)
        if self._stdio_endpoint is not None:
            # As in MPI, only rank 0 takes stdin.
            self._relay = StdioRelay(
                self._transport,
                host.name,
                self._stdio_endpoint,
                proxy=self._proxy,
                feed_stdin=proc.feed_stdin if self.rank == 0 else None,
                close_stdin=proc.close_stdin if self.rank == 0 else None,
            )
            proc.add_stdout_sink(self._relay.forward_stdout)

        tool = None
        if desc.tool_daemon is not None:
            tool = self.launch_tool(desc.tool_daemon, tool_output, disseminated)
        if self.rank == 0 and self._runtime is not None:
            # Rank 0's launch is whole (an unmonitored rank 0 may already
            # have reached mpi.init): the other ranks start now or then.
            self._runtime.on_master_init(self.job_id, on_master_running)
        return info.pid, tool

    def _stage_in(self) -> None:
        """Transfer job + tool input files to the rank's host.

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
        cluster = self._host.cluster
        submit_fs = cluster.host(self._submit_host).filesystem
        present = [p for p in paths if p in submit_fs]
        if present:
            FileStager(cluster).stage_in(self._submit_host, self._host.name, present)
            self.record("stage_in", files=",".join(present))
        missing = sorted(set(paths) - set(present))
        if missing:
            # The pilot listed 'paradynd' even though our tools are not
            # files; absent inputs are logged, not fatal.
            self.record("stage_in_skipped", files=",".join(missing))

    def launch_tool(
        self,
        tool: ToolDaemonSpec,
        output_sink: Callable[[str], None],
        disseminated: list[tuple[str, str]],
    ) -> ThreadToolHandle:
        """Start ``tool`` against the rank's process and publish its
        launch record: the tool half of :meth:`launch`, and on its own a
        tool attaching to the running application (Figure 3B)."""
        handle, pid = self.handle, self.pid
        assert handle is not None and pid is not None
        # The launch record, beside the pid and its standard companions:
        # the job's pool-global attributes ("port arguments … disseminated
        # to remote sites as attribute values", Section 4.3: the schedd
        # read them from its CASS, so the tool daemon finds its front-end
        # via ``tdp_get("rt.frontend")`` with no ports on its command
        # line) and the RM's proxy, which the tool needs to cross the
        # private network (Section 2.4: TDP "merely leverages existing
        # [proxies]" and names them to the tool).
        record = list(disseminated)
        for attribute, value in record:
            self.record("disseminate", attribute=attribute, value=value)
        if self._proxy is not None:
            record.append((Attr.RM_PROXY, str(self._proxy)))
            self.record("tdp_put", attribute=Attr.RM_PROXY, value=str(self._proxy))

        # Step 2: create the tool daemon (not paused).
        self.record(
            "tdp_create_process", target="RT" + self._suffix,
            executable=tool.cmd, mode="run",
        )
        launcher = self._tools.resolve(tool.cmd)
        tool_handle = launcher(ToolLaunchContext(
            transport=self._transport,
            host=self._host.name,
            lass_endpoint=self._lass_endpoint,
            context=self.context,
            args=split_arguments(tool.args_template),
            job_id=self.context,
            trace=self._trace,
            output_sink=output_sink,
            extras={
                "sim_host": self._host,
                # Worker-rank tools run immediately after attach — the
                # paper's "they immediately issue a run command".
                **({"force_auto_run": True} if self.rank else {}),
            },
        ))

        # Step 3: one batched frame, so the tool daemon blocked on
        # ``pid`` wakes to find the whole launch record in place.
        self.record("tdp_put", attribute=Attr.PID, value=str(pid))
        tdp_put_many(handle, [
            *record,
            (Attr.PID, str(pid)),
            (Attr.EXECUTABLE_NAME, self._desc.executable),
            (Attr.APP_HOST, self._host.name),
            (Attr.APP_ARGS, join_arguments(self._desc.arguments)),
        ])
        return tool_handle

    def kill(self) -> None:
        """Kill the rank through the RM handle that created it: at once
        if it exists, as it is created if it is being created; a rank
        still waiting for its run stops waiting and is never created."""
        with self._lock:
            self._killed = True
            pid = self._pid
            waiting, self._waiting = self._waiting, None
        if waiting is not None:
            waiting.close()
        handle = self.handle
        if pid is not None and handle is not None and handle.control is not None:
            try:
                handle.control.kill(pid)
            except errors.ProcessError:
                pass  # already gone

    def cleanup(self) -> None:
        """The rank is over: kill it if it still runs (its starter failed
        mid-run), end its session and relay, let go of the gang's runtime
        table and reap the process."""
        self.kill()
        with self._lock:
            pid, self._pid = self._pid, None  # a late kill finds nothing to kill
        if self.handle is not None:
            self.record("tdp_exit", context=self.context)
            tdp_exit(self.handle)
        if self._relay is not None:
            self._relay.close()
        if self._runtime is not None:
            self._runtime.end_job(self.job_id)
        if pid is not None:
            self._host.reap(pid)  # the job is over
