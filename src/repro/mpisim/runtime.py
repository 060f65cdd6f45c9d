"""The simulated MPI runtime: rank registration and peer lookup.

ch_p4-style startup: every process is created with ``MPI_JOB``,
``MPI_RANK`` and ``MPI_SIZE`` in its environment (the "procgroup"
knowledge), calls the ``mpi.init`` service to register its (host, pid)
under its rank, and discovers peers through ``mpi.lookup``.  Service
handlers run on the scheduler thread and never block.

What is modelled is a process manager that *tells* a waiting process
its peer exists (MPD, Butler/Gropp/Lusk), not ch_p4's retry loop: a
``mpi.lookup`` that misses with ``wait`` set records the caller as a
waiter for that rank, the caller parks in ``RecvMsg("mpi.up.<rank>")``,
and the peer's ``mpi.init`` sends each waiter one message carrying its
(host, pid).  A poll would sleep in *virtual* time, and the scheduler
fast-forwards the virtual clock whenever nothing else is runnable — so
the moment real daemon threads share the interpreter a virtual-time
poll is a real-time spin that holds the GIL against the launch it is
waiting for.  Parked, the scheduler is idle until the peer arrives.

The runtime also exposes a *master-arrival hook* per job: rank 0's
Condor starter registers a callback that fires when rank 0 calls
``mpi.init``, which is the moment the remaining ranks should be created
(paper Section 4.3).  Each rank's starter holds the job's table from its
launch to its cleanup (rank 0's creates it, a worker's joins it), and
the last one to let go drops it.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable

from repro.errors import MpiError, RankError
from repro.sim.cluster import SimCluster
from repro.sim.process import SimProcess
from repro.sim.syscalls import MsgRecord
from repro.util.sync import tracked_lock


@dataclass(frozen=True)
class RankInfo:
    rank: int
    host: str
    pid: int


class _JobTable:
    def __init__(self, size: int):
        self.size = size
        #: the ranks' RMs holding the table: the last to let go drops it
        # tdp-guard: holders -> mpisim.runtime.MpiRuntime._lock
        self.holders = 1
        self.ranks: dict[int, RankInfo] = {}
        self.master_hooks: list[Callable[[RankInfo], None]] = []
        #: rank -> processes parked in ``RecvMsg("mpi.up.<rank>")`` until
        #: that rank registers
        # tdp-guard: waiters -> mpisim.runtime.MpiRuntime._lock
        self.waiters: dict[int, list[SimProcess]] = {}


class MpiRuntime:
    """One per cluster; registers the ``mpi.*`` services."""

    _instances: "weakref.WeakKeyDictionary[SimCluster, MpiRuntime]" = (
        weakref.WeakKeyDictionary()
    )
    _instances_lock = tracked_lock("mpisim.runtime.MpiRuntime._instances_lock")

    @classmethod
    def ensure(cls, cluster: SimCluster) -> "MpiRuntime":
        """The cluster's runtime, created on first use (idempotent)."""
        with cls._instances_lock:
            runtime = cls._instances.get(cluster)
            if runtime is None:
                runtime = cls(cluster)
                cls._instances[cluster] = runtime
            return runtime

    def __init__(self, cluster: SimCluster):
        self._cluster = cluster
        self._jobs: dict[str, _JobTable] = {}
        self._lock = tracked_lock("mpisim.runtime.MpiRuntime._lock")
        cluster.register_service("mpi.init", self._svc_init)
        cluster.register_service("mpi.lookup", self._svc_lookup)
        cluster.register_service("mpi.size", self._svc_size)

    # -- starter-facing API -------------------------------------------------------

    def create_job(self, job_id: str, size: int) -> None:
        if size < 1:
            raise MpiError(f"job size must be >= 1, got {size}")
        with self._lock:
            if job_id in self._jobs:
                raise MpiError(f"MPI job {job_id!r} already exists")
            self._jobs[job_id] = _JobTable(size)

    def join_job(self, job_id: str) -> None:
        """Hold an existing job's table until a matching :meth:`end_job`."""
        with self._lock:
            self._require(job_id).holders += 1

    def end_job(self, job_id: str) -> None:
        """Let go of a job's table (its creator's hold, or a join's); the
        last holder forgets the job: its rank table, hooks and waiters.

        Unknown ids are a no-op, so teardown paths may call it freely.
        """
        with self._lock:
            table = self._jobs.get(job_id)
            if table is not None:
                table.holders -= 1
                if table.holders == 0:
                    del self._jobs[job_id]

    def on_master_init(self, job_id: str, hook: Callable[[RankInfo], None]) -> None:
        """Register a callback for rank 0's ``mpi.init`` (fires once).

        If rank 0 already registered, the hook fires immediately.
        """
        with self._lock:
            table = self._require(job_id)
            existing = table.ranks.get(0)
            if existing is None:
                table.master_hooks.append(hook)
                return
        hook(existing)

    def ranks(self, job_id: str) -> dict[int, RankInfo]:
        with self._lock:
            return dict(self._require(job_id).ranks)

    def all_registered(self, job_id: str) -> bool:
        with self._lock:
            table = self._require(job_id)
            return len(table.ranks) == table.size

    def _require(self, job_id: str) -> _JobTable:
        table = self._jobs.get(job_id)
        if table is None:
            raise MpiError(f"unknown MPI job {job_id!r}")
        return table

    # -- services (scheduler thread; must not block) ----------------------------------

    def _svc_init(self, proc: SimProcess, args: dict) -> dict:
        job_id = str(args.get("job") or proc.env.get("MPI_JOB", ""))
        rank_s = args.get("rank", proc.env.get("MPI_RANK"))
        try:
            rank = int(rank_s)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            raise MpiError(f"process {proc!r} has no MPI rank") from None
        hooks: list[Callable[[RankInfo], None]] = []
        with self._lock:
            table = self._require(job_id)
            if rank < 0 or rank >= table.size:
                raise RankError(f"rank {rank} out of range for job {job_id!r}")
            if rank in table.ranks:
                raise RankError(f"rank {rank} already registered in {job_id!r}")
            info = RankInfo(rank=rank, host=proc.host.name, pid=proc.pid)
            table.ranks[rank] = info
            size = table.size
            waiters = table.waiters.pop(rank, ())
            if rank == 0:
                hooks, table.master_hooks = table.master_hooks, []
        # Outside the lock: delivery takes each waiter's process lock.
        # A BLOCKED waiter becomes RUNNABLE, a STOPPED one keeps the
        # message for when it is continued, an EXITED one drops it.
        up = MsgRecord(
            src_host=info.host, src_pid=info.pid, tag=f"mpi.up.{rank}",
            payload={"rank": rank, "host": info.host, "pid": info.pid},
        )
        for waiter in waiters:
            waiter.deliver_message(up)
        for hook in hooks:
            hook(info)
        return {"rank": rank, "size": size}

    def _svc_lookup(self, proc: SimProcess, args: dict) -> dict | None:
        """A registered peer's (host, pid), or ``None`` on a miss.

        With ``wait`` set a miss also books the caller to be sent
        ``mpi.up.<rank>`` when the peer registers; the caller must then
        receive exactly that tag.  No wake-up is lost: miss and booking
        are one critical section against ``mpi.init``'s registration,
        and a mailbox keeps what arrives before its owner has parked.
        """
        job_id = str(args.get("job") or proc.env.get("MPI_JOB", ""))
        rank = int(args.get("rank", -1))
        with self._lock:
            table = self._require(job_id)
            info = table.ranks.get(rank)
            if info is None:
                if args.get("wait"):
                    if not 0 <= rank < table.size:
                        raise RankError(
                            f"rank {rank} out of range for job {job_id!r}"
                        )
                    table.waiters.setdefault(rank, []).append(proc)
                return None
        return {"rank": info.rank, "host": info.host, "pid": info.pid}

    def _svc_size(self, proc: SimProcess, args: dict) -> int:
        job_id = str(args.get("job") or proc.env.get("MPI_JOB", ""))
        with self._lock:
            return self._require(job_id).size
