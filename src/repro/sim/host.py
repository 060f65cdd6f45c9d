"""Simulated host: pid table and process lifecycle on one machine.

A host is where the RM's execution-side daemons do their work: it can
create processes (optionally paused — the split ``fork``/``exec``-then-
stop that TDP requires), look them up by pid, signal them, and observe
exits.  Hosts belong to a :class:`~repro.sim.cluster.SimCluster`, which
provides the scheduler, the network, and the executable registry.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable

from repro.errors import ExecutableNotFoundError, NoSuchProcessError
from repro.sim.process import ProcessState, SimProcess
from repro.sim.syscalls import Program
from repro.util.ids import IdAllocator
from repro.util.sync import tracked_lock

if TYPE_CHECKING:
    from repro.sim.cluster import SimCluster

#: factory signature for executables: argv -> program generator
ProgramFactory = Callable[[list[str]], Program]


class SimHost:
    """One machine in the simulated cluster."""

    def __init__(self, cluster: "SimCluster", name: str):
        self.cluster = cluster
        self.name = name
        self._pids = IdAllocator(first=1000)  # conventional "not init" range
        self._procs: dict[int, SimProcess] = {}
        self._lock = tracked_lock("sim.host.SimHost._lock")
        #: this host's simulated filesystem: path -> file content.  The
        #: TDP file-staging service copies tool config/output files
        #: between these per-host namespaces.
        self.filesystem: dict[str, str] = {}

    def __repr__(self) -> str:
        return f"<SimHost {self.name} procs={len(self._procs)}>"

    # -- process creation -------------------------------------------------------

    def create_process(
        self,
        executable: str | ProgramFactory,
        argv: list[str] | None = None,
        *,
        env: dict[str, str] | None = None,
        paused: bool = False,
    ) -> SimProcess:
        """fork+exec a program; ``paused=True`` stops it before ``main``.

        ``executable`` is a name resolved through the cluster's program
        registry (how the Condor starter launches a submit file's
        ``executable = foo``) or a program factory for direct use.
        """
        if isinstance(executable, str):
            factory = self.cluster.registry.resolve(executable)
            if factory is None:
                raise ExecutableNotFoundError(
                    f"no such executable {executable!r} on {self.name}"
                )
            exe_name = executable
        else:
            factory = executable
            exe_name = getattr(executable, "__name__", "<factory>")
        argv = list(argv or [])
        program = factory(argv)
        with self._lock:
            pid = self._pids.next()
            proc = SimProcess(
                self,
                pid,
                program,
                argv,
                env,
                paused=paused,
                executable=exe_name,
            )
            self._procs[pid] = proc
        self.cluster.scheduler.register(proc)
        return proc

    # -- lookup / control ----------------------------------------------------------

    def get_process(self, pid: int) -> SimProcess:
        with self._lock:
            proc = self._procs.get(pid)
        if proc is None:
            raise NoSuchProcessError(pid, self.name)
        return proc

    def reap(self, pid: int) -> None:
        """Forget an exited process, as ``waitpid`` reaps a zombie.

        An exited process stays findable by pid until the RM that created
        it cleans up its job and reaps it; from then on ``get_process``
        raises :class:`NoSuchProcessError`.  A living process is kept.
        """
        with self._lock:
            proc = self._procs.get(pid)
        if proc is not None and not proc.alive:
            with self._lock:
                del self._procs[pid]

    def has_process(self, pid: int) -> bool:
        with self._lock:
            return pid in self._procs

    def processes(self, *, alive_only: bool = False) -> list[SimProcess]:
        with self._lock:
            procs = list(self._procs.values())
        if alive_only:
            procs = [p for p in procs if p.state is not ProcessState.EXITED]
        return procs

    def signal(self, pid: int, signum: int) -> None:
        self.get_process(pid).deliver_signal(signum)

    def kill_all(self) -> None:
        """Terminate every living process on this host (host teardown)."""
        for proc in self.processes(alive_only=True):
            proc.terminate(9)

    def scheduler_notify(self) -> None:
        self.cluster.scheduler.notify()
