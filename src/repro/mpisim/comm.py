"""Program-side MPI communication helpers.

These are generator functions used with ``yield from`` inside simulated
programs — the mpi4py-flavored surface (``send``/``recv``/``bcast``/
``reduce``/``allreduce``/``barrier``) over the mailbox syscalls.  Usage::

    def mpi_program(argv):
        def body():
            comm = yield from MpiComm.init()
            if comm.rank == 0:
                yield from comm.send(1, {"x": 42})
            elif comm.rank == 1:
                src, data = yield from comm.recv()
            yield from comm.barrier()
        yield from call("main", body())

Tags carry the collective round and the source rank so concurrent
collectives with the same peers never cross-deliver.  ``mpi.up.<rank>``
is the runtime's own: the one message that tells a process waiting in
:meth:`MpiComm._resolve` that its peer has registered (so ``up`` is not
available as a user tag).
"""

from __future__ import annotations

from typing import Any, Generator

from repro.sim import syscalls as sc


class MpiComm:
    """A communicator bound to one (job, rank).

    Construct with ``yield from MpiComm.init()`` from inside a program.
    All communication methods are generators and must be driven with
    ``yield from``.
    """

    def __init__(self, job: str, rank: int, size: int):
        self.job = job
        self.rank = rank
        self.size = size
        self._peers: dict[int, tuple[str, int]] = {}
        self._seq = 0

    # -- startup -----------------------------------------------------------------

    @staticmethod
    def init() -> Generator[sc.SysCall, Any, "MpiComm"]:
        """Register this process with the MPI runtime; returns the comm."""
        job = yield sc.GetEnv("MPI_JOB")
        if not job:
            raise RuntimeError("MPI program launched without MPI_JOB")
        reply = yield sc.Service("mpi.init", {"job": job})
        return MpiComm(job=str(job), rank=int(reply["rank"]), size=int(reply["size"]))

    def _resolve(self, rank: int) -> Generator[sc.SysCall, Any, tuple[str, int]]:
        """Find a peer's (host, pid), parked until it has registered.

        One lookup; on a miss the runtime has booked this process for
        the peer's ``mpi.up.<rank>`` message, received here by exact tag
        before anything else runs — so an any-source :meth:`recv` never
        sees it.
        """
        cached = self._peers.get(rank)
        if cached is not None:
            return cached
        info = yield sc.Service(
            "mpi.lookup", {"job": self.job, "rank": rank, "wait": True}
        )
        if info is None:
            info = (yield sc.RecvMsg(tag=f"mpi.up.{rank}")).payload
        peer = (str(info["host"]), int(info["pid"]))
        self._peers[rank] = peer
        return peer

    # -- point to point -------------------------------------------------------------

    def send(self, dst: int, payload: Any, tag: str = "pt2pt"):
        """Send ``payload`` to rank ``dst``."""
        host, pid = yield from self._resolve(dst)
        yield sc.SendMsg(
            host, pid, tag=f"mpi.{tag}.{self.rank}",
            payload=payload,
        )

    def recv(self, src: int | None = None, tag: str = "pt2pt"):
        """Receive from rank ``src`` (or any rank); returns (src, payload)."""
        if src is not None:
            record = yield sc.RecvMsg(tag=f"mpi.{tag}.{src}")
            return src, record.payload
        record = yield sc.RecvMsg()
        # Tag format mpi.<tag>.<srcrank>
        parts = record.tag.split(".")
        sender = int(parts[-1]) if parts[-1].isdigit() else -1
        return sender, record.payload

    # -- collectives ------------------------------------------------------------------

    def _round(self, name: str) -> str:
        self._seq += 1
        return f"{name}{self._seq}"

    def barrier(self):
        """All ranks synchronize (gather-to-0 then broadcast)."""
        tag = self._round("bar")
        if self.rank == 0:
            for src in range(1, self.size):
                yield from self.recv(src, tag=tag)
            for dst in range(1, self.size):
                yield from self.send(dst, None, tag=tag + "r")
        else:
            yield from self.send(0, None, tag=tag)
            yield from self.recv(0, tag=tag + "r")

    def bcast(self, value: Any, root: int = 0):
        """Broadcast ``value`` from ``root``; returns it on every rank."""
        tag = self._round("bc")
        if self.rank == root:
            for dst in range(self.size):
                if dst != root:
                    yield from self.send(dst, value, tag=tag)
            return value
        _src, received = yield from self.recv(root, tag=tag)
        return received

    def gather(self, value: Any, root: int = 0):
        """Gather one value per rank at ``root`` (list indexed by rank);
        other ranks get ``None``."""
        tag = self._round("ga")
        if self.rank == root:
            values: list[Any] = [None] * self.size
            values[root] = value
            for src in range(self.size):
                if src != root:
                    _s, v = yield from self.recv(src, tag=tag)
                    values[src] = v
            return values
        yield from self.send(root, value, tag=tag)
        return None

    def reduce_sum(self, value: float, root: int = 0):
        """Sum-reduce to ``root``; other ranks get ``None``."""
        values = yield from self.gather(value, root=root)
        if values is None:
            return None
        return sum(values)

    def allreduce_sum(self, value: float):
        """Sum-reduce then broadcast (every rank gets the total)."""
        total = yield from self.reduce_sum(value, root=0)
        result = yield from self.bcast(total, root=0)
        return result
