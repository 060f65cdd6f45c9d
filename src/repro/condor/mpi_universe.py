"""The Condor MPI universe under TDP (paper Section 4.3).

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
   rank 0's ``mpi.init`` (it only happens once the user ran it) triggers
   the coordinator, which creates each remaining rank paused on its
   claimed machine, stands up the per-host RM presence, launches a
   paradynd per rank (``auto_run`` — they immediately continue), and
   the job completes when every rank has exited.

Simplification (documented): worker-rank creation is performed by this
coordinator using the claimed machines' hosts and LASSes directly,
standing in for the per-machine starters that real Condor would run —
one thread per worker rank, for the rank's life, all running at once, as
the machines' own starters would: it starts its rank, then answers that
rank's tool requests until the rank has exited and its tool daemon has
ended, the rule the master starter keeps for rank 0.  Every protocol step
they would perform (per-host LASS context, RM-side control service, pid
publication, paradynd handshake) is preserved.  A rank that cannot be
started fails the job: its peers would wait for it for good, so its
thread kills every rank that was created and the master starter reports
the failure.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro import errors
from repro.condor.submit import SubmitDescription
from repro.condor.tools import ThreadToolHandle, ToolLaunchContext, ToolRegistry, serve_until_ended
from repro.mpisim.runtime import MpiRuntime, RankInfo
from repro.net.address import Endpoint, parse_endpoint
from repro.sim.host import SimHost
from repro.tdp.api import (
    tdp_create_process,
    tdp_exit,
    tdp_init,
    tdp_put_many,
)
from repro.tdp.handle import Role, TdpHandle
from repro.tdp.process import SimHostBackend
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
    """Runs one MPI-universe job from the master starter's position."""

    def __init__(
        self,
        *,
        transport: Transport,
        master_host: SimHost,
        master_lass: Endpoint,
        job_id: str,
        description: SubmitDescription,
        extra_machines: list[MachineSlot],
        tool_registry: ToolRegistry,
        trace: TraceRecorder | None = None,
    ):
        self._transport = transport
        self._master_host = master_host
        self._master_lass = master_lass
        self.job_id = job_id
        self._desc = description
        self._machines = [
            MachineSlot(master_host.name, master_lass),
            *extra_machines,
        ]
        self._tools = tool_registry
        self._trace = trace
        self.size = description.machine_count
        if len(self._machines) < self.size:
            raise errors.UniverseError(
                f"MPI job needs {self.size} machines, got {len(self._machines)}"
            )
        self._cluster = master_host.cluster
        self._runtime = MpiRuntime.ensure(self._cluster)
        self._rank_handles: dict[int, TdpHandle] = {}
        self._rank_pids: dict[int, tuple[str, int]] = {}  # rank -> (host, pid)
        #: per worker rank: its thread, and its exit code (None: not started)
        self._rank_threads: list[tuple[threading.Thread, Latch[int | None]]] = []
        self._start_failure: str | None = None
        #: latched by the first kill: a rank created after it dies too
        self._killed = False
        self._lock = tracked_lock("condor.mpi_universe.MpiUniverseCoordinator._lock")
        # tdp-guard: _master_handle -> volatile
        # (written once by start_master, before rank 0 exists to reach
        # the mpi.init that starts the only other reader)
        self._master_handle: TdpHandle | None = None
        # tdp-guard: master_pid -> volatile
        # (written once when the master rank is created, before the
        # launch report that makes control requests possible)
        self.master_pid: int | None = None

    def _record(self, action: str, **details) -> None:
        record_event(self._trace, f"mpi-coord/{self.job_id}", action, **details)

    @property
    def start_failure(self) -> str | None:
        """The first worker rank that could not be started, as the job's
        failure reason; the gang is then killed, not left waiting for it."""
        with self._lock:
            return self._start_failure

    # -- environment ------------------------------------------------------------

    def _rank_env(self, rank: int) -> dict[str, str]:
        return {
            **self._desc.environment,
            "MPI_JOB": self.job_id,
            "MPI_RANK": str(rank),
            "MPI_SIZE": str(self.size),
        }

    # -- the flow -----------------------------------------------------------------

    def start_master(self, master_handle: TdpHandle) -> int:
        """Create rank 0 (paused when monitored) under the starter's handle.

        Returns rank 0's pid.  Worker creation is armed on rank 0's
        ``mpi.init``; the starter then launches rank 0's paradynd and
        publishes the pid exactly as in the vanilla path.
        """
        self._master_handle = master_handle
        self._runtime.create_job(self.job_id, self.size)
        self._runtime.on_master_init(self.job_id, self._on_master_running)
        mode = (
            CreateMode.PAUSED
            if (self._desc.monitored and self._desc.suspend_job_at_exec)
            else CreateMode.RUN
        )
        self._record("create_master", rank=0, mode=mode.value)
        info = tdp_create_process(
            master_handle,
            self._desc.executable,
            self._desc.arguments,
            env=self._rank_env(0),
            mode=mode,
        )
        self.master_pid = info.pid
        with self._lock:
            self._rank_pids[0] = (self._master_host.name, info.pid)
        return info.pid

    def _on_master_running(self, master: RankInfo) -> None:
        """Rank 0 reached mpi.init: start every worker rank at once, each
        on its own thread, as each machine's own starter would — not on
        this one, the scheduler's (service-hook context)."""
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
        still hears back."""
        try:
            handle, pid, tool = self._start_one_worker(rank)
        except Exception as e:  # noqa: BLE001 — whatever stopped it fails the job
            self._record("rank_start_failed", rank=rank, error=str(e))
            with self._lock:
                if self._start_failure is None:
                    self._start_failure = f"rank {rank} could not be started: {e}"
            self._rank_exited(exited, None)
            self._kill_created_ranks()
            return
        self._rank_exited(exited, handle.serve_until_exit(pid))
        if tool is not None:
            serve_until_ended(handle, tool)

    def _rank_exited(self, exited: Latch[int | None], code: int | None) -> None:
        exited.open(code)
        assert self._master_handle is not None
        self._master_handle.attrs.wake()  # rank 0's RM serves until every rank is done

    def _kill_created_ranks(self) -> None:
        """A gang with a rank missing never finishes: its peers wait for
        the one that is not coming.  Kill what exists, each rank through
        the RM handle that created it, and latch the kill so a rank still
        being created is killed by its own thread."""
        with self._lock:
            self._killed = True
            created = [
                (self._rank_handles[rank] if rank else self._master_handle, pid)
                for rank, (_host, pid) in sorted(self._rank_pids.items())
            ]
        for handle, pid in created:
            assert handle is not None and handle.control is not None
            try:
                handle.control.kill(pid)
            except errors.ProcessError:
                pass  # already gone; the rest still have to be killed

    def _start_one_worker(self, rank: int) -> tuple[TdpHandle, int, ThreadToolHandle | None]:
        slot = self._machines[rank]
        host = self._cluster.host(slot.hostname)
        context = f"{self.job_id}.r{rank}"
        # The per-machine RM presence (the starter that machine's startd
        # would have spawned).
        self._record("tdp_init", rank=rank, host=slot.hostname, context=context)
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

        monitored = self._desc.monitored
        mode = CreateMode.PAUSED if monitored else CreateMode.RUN
        self._record(
            "tdp_create_process", target=f"AP.r{rank}", mode=mode.value,
            host=slot.hostname,
        )
        info = tdp_create_process(
            handle,
            self._desc.executable,
            self._desc.arguments,
            env=self._rank_env(rank),
            mode=mode,
        )
        with self._lock:
            self._rank_pids[rank] = (slot.hostname, info.pid)
            killed = self._killed
        if killed:
            handle.control.kill(info.pid)
            return handle, info.pid, None

        tool_handle = None
        if monitored:
            tool = self._desc.tool_daemon
            assert tool is not None
            self._record("tdp_create_process", target=f"RT.r{rank}", mode="run")
            launcher = self._tools.resolve(tool.cmd)
            ctx = ToolLaunchContext(
                transport=self._transport,
                host=slot.hostname,
                lass_endpoint=slot.lass_endpoint,
                context=context,
                args=split_arguments(tool.args_template),
                job_id=context,
                trace=self._trace,
                # Worker-rank tools run immediately after attach — the
                # paper's "they immediately issue a run command".
                extras={"sim_host": host, "force_auto_run": True},
            )
            tool_handle = launcher(ctx)
            self._record("tdp_put", rank=rank, attribute=Attr.PID, value=str(info.pid))
            # One batched frame per rank: pid plus its standard
            # companions land atomically before this rank's paradynd,
            # blocked on ``pid``, is woken.
            tdp_put_many(
                handle,
                [
                    (Attr.PID, str(info.pid)),
                    (Attr.EXECUTABLE_NAME, self._desc.executable),
                    (Attr.APP_HOST, slot.hostname),
                    (Attr.APP_ARGS, join_arguments(self._desc.arguments)),
                ],
            )
            # paradynd will attach and (auto_run) immediately continue —
            # "they immediately issue a run command".
        return handle, info.pid, tool_handle

    # -- completion -----------------------------------------------------------------

    def wait_all_exited(self, master_handle: TdpHandle, timeout: float | None = None) -> int:
        """Answer rank 0's tools until every rank has exited (for at most
        ``timeout`` seconds in all); returns 0 if every rank exited
        clean, else the first nonzero code."""
        assert self.master_pid is not None
        deadline = deadline_after(timeout)
        codes = [master_handle.serve_until_exit(self.master_pid, timeout=timeout)]
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
        self._record("all_ranks_exited", codes=",".join(map(str, codes)))
        return next((c for c in codes if c != 0), 0)

    def cleanup(self) -> None:
        with self._lock:
            running = not all(exited.is_open() for _thread, exited in self._rank_threads)
        if running:
            self._kill_created_ranks()  # the master starter failed mid-run
        with self._lock:
            threads = [thread for thread, _exited in self._rank_threads]
        # Each rank thread ends once its tool has ended or had its grace.
        for thread in threads:
            thread.join()
        with self._lock:
            handles = list(self._rank_handles.values())
            self._rank_handles.clear()
            ranks = list(self._rank_pids.values())
        for handle in handles:
            tdp_exit(handle)
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
