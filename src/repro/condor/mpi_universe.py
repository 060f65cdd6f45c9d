"""The Condor MPI universe under TDP (paper Section 4.3), and the one
rank launch every job runs.

The paper's flow, reproduced step by step:

1. The job "does not start until a suitable number of machines are
   allocated by Condor" — the schedd claims ``machine_count`` machines
   and activates the first; its starter becomes the *master starter*.
2. "A first process (called 'master process') is started.  In MPI
   terminology, this process has rank 0.  A paradynd is created
   afterwards, information is exchanged between starter and paradynd
   using the LASS, paradynd attaches to the process" — the vanilla
   create-paused handshake, applied to rank 0.
3. "Once the user issues the run command, the rest of the processes …
   are created with a paradynd attached to each one of them.  Processes
   are created and stopped, paradynds attach to them and, after
   reporting to the front-end, they immediately issue a run command" —
   rank 0's ``mpi.init`` (it only happens once the user ran it) starts
   every remaining rank the way rank 0 was started, each with its own
   paradynd (``auto_run`` — they immediately continue), and the job
   completes when every rank has exited.

Every rank — a vanilla job's one process, rank 0, each worker rank — is
launched by :meth:`MpiUniverseCoordinator.launch`: ``tdp_init`` on the
rank's context, stage-in to the rank's host, create (paused for
``+SuspendJobAtExec``), stdout to the job's relay, the tool daemon, and one launch
record carrying the pid, its companions, the job's disseminated
attributes and the RM's proxy.  A vanilla job is a gang of one.

Simplification (documented): the coordinator starts the worker ranks on
their claimed machines' hosts and LASSes itself, one thread per rank for
the rank's life, standing in for the per-machine starters that real
Condor would run.  A rank that cannot be started fails the job: its
peers would wait for it for good, so its thread kills every rank that
was created and the master starter reports the failure.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

from repro import errors
from repro.condor.submit import SubmitDescription, ToolDaemonSpec
from repro.condor.tools import (
    ThreadToolHandle,
    ToolLaunchContext,
    ToolRegistry,
    serve_until_ended,
    write_tool_output,
)
from repro.mpisim.runtime import MpiRuntime, RankInfo
from repro.net.address import Endpoint, parse_endpoint
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
from repro.transport.base import Transport
from repro.util.clock import deadline_after, time_left
from repro.util.log import TraceRecorder, record_event
from repro.util.strings import join_arguments, split_arguments
from repro.util.sync import Latch, tracked_lock
from repro.util.threads import spawn


@dataclass
class MachineSlot:
    """One claimed machine: where a rank will run."""

    hostname: str
    lass_endpoint: Endpoint


class MpiUniverseCoordinator:
    """Launches and keeps one job's ranks from its starter's position:
    rank 0 on the starter's thread, every other rank on its own."""

    def __init__(
        self,
        *,
        transport: Transport,
        host: SimHost,
        lass_endpoint: Endpoint,
        job_id: str,
        description: SubmitDescription,
        extra_machines: list[MachineSlot],
        tool_registry: ToolRegistry,
        trace: TraceRecorder | None = None,
        proxy: Endpoint | None = None,
        stdio_endpoint: Endpoint | None = None,
        submit_host: str | None = None,
        read_cass: Callable[[tuple[str, ...]], list[tuple[str, str]]] | None = None,
    ):
        self._transport = transport
        self.job_id = job_id
        self._desc = description
        self._machines = [MachineSlot(host.name, lass_endpoint), *extra_machines]
        self._tools = tool_registry
        self._trace = trace
        self._proxy = proxy
        self._stdio_endpoint = stdio_endpoint
        self._submit_host = submit_host
        #: the startd's best-effort read of pool-global attributes from
        #: the CASS (``None``: the pool has none)
        self._read_cass = read_cass
        #: what that read found, for every rank's launch record: read by
        #: the job's first tool launch
        self._published: list[tuple[str, str]] | None = None
        self._mpi = description.universe == "mpi"
        self.size = description.machine_count if self._mpi else 1
        if len(self._machines) < self.size:
            raise errors.UniverseError(
                f"MPI job needs {self.size} machines, got {len(self._machines)}"
            )
        self._cluster = host.cluster
        self._rank_handles: dict[int, TdpHandle] = {}
        self._rank_pids: dict[int, tuple[str, int]] = {}  # rank -> (host, pid)
        #: per worker rank: its thread, and its exit code (None: not started)
        self._rank_threads: list[tuple[threading.Thread, Latch[int | None]]] = []
        self._start_failure: str | None = None
        #: latched by the first kill: a rank created after it dies too
        self._killed = False
        self._lock = tracked_lock("condor.mpi_universe.MpiUniverseCoordinator._lock")
        # tdp-guard: _relay -> volatile
        # (written once by rank 0's launch, before it arms the mpi.init
        # hook that starts the other ranks' threads)
        self._relay: StdioRelay | None = None
        if self._mpi:
            self._runtime = MpiRuntime.ensure(self._cluster)
            self._runtime.create_job(job_id, self.size)
            self._record("mpi_master_create", machines=self.size)

    def _record(self, action: str, **details) -> None:
        record_event(self._trace, f"mpi-coord/{self.job_id}", action, **details)

    def _record_rank(self, rank: int, action: str, **details) -> None:
        """One step of a rank's launch, as its RM's: rank 0's RM is the
        starter itself."""
        actor = "starter" if rank == 0 else f"mpi-coord/{self.job_id}"
        record_event(self._trace, actor, action, **details)

    @property
    def start_failure(self) -> str | None:
        """The first worker rank that could not be started, as the job's
        failure reason; the gang is then killed, not left waiting for it."""
        with self._lock:
            return self._start_failure

    # -- one rank's launch --------------------------------------------------------

    @staticmethod
    def _suffix(rank: int) -> str:
        return f".r{rank}" if rank else ""

    def _rank_env(self, rank: int) -> dict[str, str]:
        if not self._mpi:
            return self._desc.environment
        return {
            **self._desc.environment,
            "MPI_JOB": self.job_id,
            "MPI_RANK": str(rank),
            "MPI_SIZE": str(self.size),
        }

    def launch(
        self, rank: int, tool_output: Callable[[str], None]
    ) -> tuple[TdpHandle, int, ThreadToolHandle | None]:
        """Start ``rank`` on its machine: Figure 6's steps 1-3.

        Returns the rank's RM handle, its process's pid and its tool
        daemon (``None``: unmonitored, or killed as it was created);
        ``tool_output`` takes each line the tool writes.
        """
        slot = self._machines[rank]
        host = self._cluster.host(slot.hostname)
        context = self.job_id + self._suffix(rank)
        # The per-machine RM presence: its own context on its host's LASS.
        self._record_rank(rank, "tdp_init", context=context, host=host.name)
        handle = tdp_init(
            self._transport,
            slot.lass_endpoint,
            member=f"starter/{context}",
            role=Role.RM,
            context=context,
            backend=SimHostBackend(host),
        )
        with self._lock:
            self._rank_handles[rank] = handle  # cleanup() owns it from here
        assert handle.control is not None
        handle.control.serve_tool_requests()
        self._stage_in(rank, host.name)

        desc = self._desc
        mode = (
            CreateMode.PAUSED
            if (desc.monitored and desc.suspend_job_at_exec)
            else CreateMode.RUN
        )
        self._record_rank(
            rank, "tdp_create_process", target="AP" + self._suffix(rank),
            executable=desc.executable, mode=mode.value, host=host.name,
        )
        info = tdp_create_process(
            handle, desc.executable, desc.arguments,
            env=self._rank_env(rank), mode=mode,
        )
        with self._lock:
            self._rank_pids[rank] = (host.name, info.pid)
            killed = self._killed
        if killed:
            handle.control.kill(info.pid)
            return handle, info.pid, None

        proc = host.get_process(info.pid)
        if rank == 0 and self._stdio_endpoint is not None:
            # As in MPI, only rank 0 takes stdin.
            self._relay = StdioRelay(
                self._transport,
                host.name,
                self._stdio_endpoint,
                proxy=self._proxy,
                feed_stdin=proc.feed_stdin,
                close_stdin=proc.close_stdin,
            )
        if self._relay is not None:
            proc.add_stdout_sink(self._relay.forward_stdout)

        tool = None
        if desc.tool_daemon is not None:
            tool = self.launch_tool(rank, desc.tool_daemon, tool_output)
        if rank == 0 and self._mpi:
            # Rank 0's launch is whole (an unmonitored rank 0 may already
            # have reached mpi.init): the other ranks start now or then.
            self._runtime.on_master_init(self.job_id, self._on_master_running)
        return handle, info.pid, tool

    def _stage_in(self, rank: int, host: str) -> None:
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
        submit_fs = self._cluster.host(self._submit_host).filesystem
        present = [p for p in paths if p in submit_fs]
        if present:
            FileStager(self._cluster).stage_in(self._submit_host, host, present)
            self._record_rank(rank, "stage_in", files=",".join(present))
        missing = sorted(set(paths) - set(present))
        if missing:
            # The pilot listed 'paradynd' even though our tools are not
            # files; absent inputs are logged, not fatal.
            self._record_rank(rank, "stage_in_skipped", files=",".join(missing))

    def launch_tool(
        self, rank: int, tool: ToolDaemonSpec, output_sink: Callable[[str], None]
    ) -> ThreadToolHandle:
        """Start ``tool`` against ``rank``'s process and publish its
        launch record: the tool half of :meth:`launch`, and on its own a
        tool attaching to the running application (Figure 3B)."""
        slot = self._machines[rank]
        suffix = self._suffix(rank)
        context = self.job_id + suffix
        with self._lock:
            handle = self._rank_handles[rank]
            _host, pid = self._rank_pids[rank]
        # The launch record, beside the pid and its standard companions:
        # the job's pool-global attributes ("port arguments …
        # disseminated to remote sites as attribute values", Section
        # 4.3) and the RM's proxy, which the tool needs to cross the
        # private network (Section 2.4: TDP "merely leverages existing
        # [proxies]" and names them to the tool).
        record = self._global_attributes(rank)
        if self._proxy is not None:
            record.append((Attr.RM_PROXY, str(self._proxy)))
            self._record_rank(
                rank, "tdp_put", attribute=Attr.RM_PROXY, value=str(self._proxy)
            )

        # Step 2: create the tool daemon (not paused).
        self._record_rank(
            rank, "tdp_create_process", target="RT" + suffix,
            executable=tool.cmd, mode="run",
        )
        launcher = self._tools.resolve(tool.cmd)
        tool_handle = launcher(ToolLaunchContext(
            transport=self._transport,
            host=slot.hostname,
            lass_endpoint=slot.lass_endpoint,
            context=context,
            args=split_arguments(tool.args_template),
            job_id=context,
            trace=self._trace,
            output_sink=output_sink,
            extras={
                "sim_host": self._cluster.host(slot.hostname),
                # Worker-rank tools run immediately after attach — the
                # paper's "they immediately issue a run command".
                **({"force_auto_run": True} if rank else {}),
            },
        ))

        # Step 3: one batched frame, so the tool daemon blocked on
        # ``pid`` wakes to find the whole launch record in place.
        self._record_rank(rank, "tdp_put", attribute=Attr.PID, value=str(pid))
        tdp_put_many(handle, [
            *record,
            (Attr.PID, str(pid)),
            (Attr.EXECUTABLE_NAME, self._desc.executable),
            (Attr.APP_HOST, slot.hostname),
            (Attr.APP_ARGS, join_arguments(self._desc.arguments)),
        ])
        return tool_handle

    def _global_attributes(self, rank: int) -> list[tuple[str, str]]:
        """The pool-global attributes the CASS holds, read on the startd's
        session once per job, by its first tool launch.

        This implements the paper's stated completion of the pilot:
        "port arguments should be published by [the] Paradyn front-end
        and disseminated to remote sites as attribute values" (Section
        4.3).  The tool daemon then finds its front-end via
        ``tdp_get("rt.frontend")`` with no ports on its command line.
        """
        with self._lock:
            published = self._published
        if published is None:
            published = []
            if self._read_cass is not None:
                published = self._read_cass(
                    (Attr.RT_FRONTEND, Attr.RM_PROXY, Attr.STDIO_ENDPOINT)
                )
            for attribute, value in published:
                self._record_rank(rank, "disseminate", attribute=attribute, value=value)
            with self._lock:
                self._published = published
        return list(published)

    # -- the gang -------------------------------------------------------------------

    def _on_master_running(self, master: RankInfo) -> None:
        """Rank 0 reached mpi.init and its launch is whole: start every
        worker rank at once, each on its own thread, as each machine's own
        starter would — not on this one (the scheduler's service hook, or
        rank 0's starter)."""
        self._record("master_running", pid=master.pid)
        # Under the lock: a kill, which ends rank 0 and so lets
        # wait_all_exited read the list, finds it whole or finds no gang.
        with self._lock:
            if self._killed:
                return
            for rank in range(1, self.size):
                exited: Latch[int | None] = Latch()
                name = f"mpi-rank-{self.job_id}-{rank}"
                thread = spawn(self._run_rank, args=(rank, exited), name=name)
                self._rank_threads.append((thread, exited))

    def _run_rank(self, rank: int, exited: Latch[int | None]) -> None:
        """Start one worker rank, then answer its tools: until it exits,
        opening ``exited`` with its code, and on until its tool daemon
        has ended — a tool whose request raced the rank's exit or kill
        still hears back.  Then the tool's output is written on the
        rank's host, as rank 0's starter writes rank 0's."""
        tool_output: list[str] = []
        try:
            handle, pid, tool = self.launch(rank, tool_output.append)
        except Exception as e:  # noqa: BLE001 — whatever stopped it fails the job
            self._record("rank_start_failed", rank=rank, error=str(e))
            with self._lock:
                if self._start_failure is None:
                    self._start_failure = f"rank {rank} could not be started: {e}"
            self._rank_exited(exited, None)
            self.kill()
            return
        self._rank_exited(exited, handle.serve_until_exit(pid))
        if tool is not None:
            serve_until_ended(handle, tool)
            spec = self._desc.tool_daemon
            assert spec is not None
            host = self._cluster.host(self._machines[rank].hostname)
            write_tool_output(host.filesystem, spec.output, tool_output)

    def _rank_exited(self, exited: Latch[int | None], code: int | None) -> None:
        exited.open(code)
        with self._lock:
            master = self._rank_handles[0]
        master.attrs.wake()  # rank 0's RM serves until every rank is done

    def kill(self) -> None:
        """Kill the job: every rank that exists, each through the RM
        handle that created it, with the kill latched so a rank still
        being created is killed by its own thread.  A gang with a rank
        missing never finishes — its peers wait for the one that is not
        coming — so this is condor_rm's and a failed start's answer."""
        with self._lock:
            self._killed = True
            created = [
                (self._rank_handles[rank], pid)
                for rank, (_host, pid) in sorted(self._rank_pids.items())
            ]
        for handle, pid in created:
            assert handle.control is not None
            try:
                handle.control.kill(pid)
            except errors.ProcessError:
                pass  # already gone; the rest still have to be killed

    # -- completion -----------------------------------------------------------------

    def wait_all_exited(self, master_handle: TdpHandle, timeout: float | None = None) -> int:
        """Answer rank 0's tools until every rank has exited (for at most
        ``timeout`` seconds in all); returns 0 if every rank exited
        clean, else the first nonzero code."""
        with self._lock:
            _host, master_pid = self._rank_pids[0]
        deadline = deadline_after(timeout)
        codes = [master_handle.serve_until_exit(master_pid, timeout=timeout)]
        # Worker ranks start on rank 0's mpi.init: once it has exited,
        # every rank thread has been spawned or never will be.
        with self._lock:
            latches = [exited for _thread, exited in self._rank_threads]
        master_handle.serve(
            until=lambda: all(exited.is_open() for exited in latches),
            timeout=time_left(deadline),
        )
        for exited in latches:
            code = exited.wait(time_left(deadline))
            if code is not None:
                codes.append(code)
        return next((c for c in codes if c != 0), 0)

    def cleanup(self) -> None:
        """The job is over: kill what still runs (the master starter
        failed mid-run), wait for each rank thread — it ends once its
        tool has ended or had its grace — end every rank's session and
        reap its process."""
        self.kill()
        with self._lock:
            threads = [thread for thread, _exited in self._rank_threads]
        for thread in threads:
            thread.join()
        with self._lock:
            handles = sorted(self._rank_handles.items())
            ranks = list(self._rank_pids.values())
            self._rank_handles.clear()
            self._rank_pids.clear()  # a late kill finds nothing to kill
        for rank, handle in handles:
            self._record_rank(rank, "tdp_exit", context=self.job_id + self._suffix(rank))
            tdp_exit(handle)
        if self._relay is not None:
            self._relay.close()
        if self._mpi:
            self._runtime.end_job(self.job_id)
        for hostname, pid in ranks:
            self._cluster.host(hostname).reap(pid)  # the job is over


def machine_slots_from_wire(extra_machines: list[dict]) -> list[MachineSlot]:
    """Decode the activation message's extra machine list."""
    slots = []
    for entry in extra_machines:
        lass = str(entry.get("lass", ""))
        if not lass:
            raise errors.UniverseError(
                f"claimed machine {entry.get('machine')!r} has no LASS endpoint"
            )
        slots.append(
            MachineSlot(
                hostname=str(entry["machine"]),
                lass_endpoint=parse_endpoint(lass),
            )
        )
    return slots
