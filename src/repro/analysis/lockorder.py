"""The declared lock hierarchy: which lock may be held while taking which.

This manifest is the single source of truth shared by the two halves of
the concurrency sanitizer:

* the **static** whole-program pass (:mod:`repro.analysis.lockgraph` and
  the ``undeclared-lock-edge`` rule) checks every acquisition edge it can
  prove from the AST against it;
* the **runtime** lockset witness (:mod:`repro.util.sync`, enabled with
  ``TDP_SANITIZE=1``) checks every acquisition it actually observes.

Locks are named ``module.Class.attr`` (module path without the leading
``repro.``), e.g. ``attrspace.store.AttributeStore._lock``.  Each lock
gets a **rank**; acquiring a lock is legal only while every held lock has
a *strictly smaller* rank.  Strict ranking makes declared deadlock
impossible: any cycle would need a rank smaller than itself, so every
cycle in the lock graph holds an edge ``undeclared-lock-edge`` reports,
and no separate cycle search is needed.  Locks of
the same rank therefore may never nest — give a lock its own rank the
moment it legitimately nests with a sibling.

Rank bands (see DESIGN.md "Lock hierarchy"):

* 10–19  coordinator locks (job queue, cluster topology) — outermost;
* 20–29  daemon state locks (startd, server connection table, handle);
* 30–39  shared-store locks (attribute store);
* 40–49  per-entity locks (simulated process, subscription registry,
         job record);
* 60–69  frame-serialization send locks (may be held across a channel
         send — see ``blocking_ok``);
* 80–89  clocks;
* 90–99  leaf counters/allocators (never call out under their lock).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Iterator

#: re-entrant kinds — re-acquiring the *same instance* is legal
RLOCK = "rlock"
LOCK = "lock"


@dataclass(frozen=True)
class LockDecl:
    """One named lock class in the hierarchy."""

    key: str
    rank: int
    kind: str = LOCK
    #: True when the lock only serializes frames onto one channel and is
    #: audited to guard no other state — the single case where holding a
    #: lock across a blocking send is sanctioned (PR 1 send-lock
    #: precedent).  The runtime witness exempts these from the
    #: held-across-blocking-call check.
    blocking_ok: bool = False
    note: str = ""


class LockHierarchy:
    """An immutable rank order over named locks, queried by both halves."""

    def __init__(self, decls: list[LockDecl]):
        self._decls: dict[str, LockDecl] = {}
        for d in decls:
            if d.key in self._decls:
                raise ValueError(f"duplicate lock declaration {d.key!r}")
            self._decls[d.key] = d

    def declared(self, key: str) -> bool:
        return key in self._decls

    def get(self, key: str) -> LockDecl | None:
        return self._decls.get(key)

    def rank(self, key: str) -> int | None:
        d = self._decls.get(key)
        return d.rank if d is not None else None

    def kind(self, key: str) -> str:
        d = self._decls.get(key)
        return d.kind if d is not None else LOCK

    def blocking_ok(self, key: str) -> bool:
        d = self._decls.get(key)
        return d.blocking_ok if d is not None else False

    def may_acquire(self, held_key: str, acquire_key: str) -> bool:
        """May a thread holding ``held_key`` acquire ``acquire_key``?

        Same key: legal only for re-entrant kinds (the static side cannot
        distinguish instances, so a non-reentrant self-edge is treated as
        a potential self-deadlock).  Different keys: both must be
        declared, and rank must strictly increase.
        """
        if held_key == acquire_key:
            return self.kind(held_key) == RLOCK
        held = self._decls.get(held_key)
        acq = self._decls.get(acquire_key)
        if held is None or acq is None:
            return False
        return acq.rank > held.rank

    def keys(self) -> list[str]:
        return sorted(self._decls)

    def __len__(self) -> int:
        return len(self._decls)


#: The repository's declared hierarchy.  Every edge the static pass finds
#: in ``src/repro`` must be legal under these ranks (or carry an explicit
#: suppression with justification); the runtime witness enforces the same
#: order on live threads.
DEFAULT = LockHierarchy([
    # -- coordinator locks (outermost) --------------------------------------
    LockDecl("condor.schedd.Schedd._cond", 10,
             note="job queue + negotiation wakeups; never calls out held"),
    LockDecl("condor.master.Master._lock", 10,
             note="daemon supervision table"),
    LockDecl("condor.matchmaker.Matchmaker._lock", 12,
             note="machine-ad table during negotiation"),
    LockDecl("mpisim.runtime.MpiRuntime._instances_lock", 13,
             note="runtime registry; held while a new runtime registers "
                  "its services with the cluster"),
    LockDecl("sim.cluster.SimCluster._lock", 14,
             note="cluster topology; held while delivering to a process"),
    LockDecl("condor.mpi_universe.RankLaunch._lock", 14,
             note="one rank's pid, kill latch and the shadow channel it "
                  "waits for its run on; never calls out held"),
    LockDecl("mpisim.runtime.MpiRuntime._lock", 16,
             note="MPI rank rendezvous state: per-job rank tables, master "
                  "hooks and parked waiters; released before a waiter is "
                  "woken"),

    # -- daemon state locks --------------------------------------------------
    LockDecl("condor.startd.Startd._lock", 20, note="claim table"),
    LockDecl("condor.shadow.Shadow._lock", 20, note="shadow stop/teardown state"),
    LockDecl("attrspace.server.AttributeSpaceServer._conn_lock", 20,
             note="connection table"),
    LockDecl("attrspace.server.AttributeSpaceServer._lease_lock", 21,
             note="session-lease table and its armed expiry deadlines; "
                  "nests inside _conn_lock is FORBIDDEN by rank"),
    LockDecl("tdp.handle.TdpHandle._lock", 20, note="handle lifecycle/service thread"),
    LockDecl("tdp.process.ProcessControlService._lock", 20,
             note="control-request bookkeeping"),
    LockDecl("paradyn.frontend.ParadynFrontend._lock", 20,
             note="daemon arrival + metric state"),
    LockDecl("paradyn.daemon.ParadynDaemon._req_lock", 20, note="request routing"),
    LockDecl("attrspace.federation.LassFederation._lock", 22,
             note="interests, session table, aggregate ledger; held across "
                  "the non-blocking submit that orders a context's forwards, "
                  "never across a dial or a blocking upstream RPC"),
    LockDecl("condor.tools.ToolRegistry._lock", 22, note="registered tool specs"),
    LockDecl("sim.loader.ProgramRegistry._lock", 22, note="registered programs"),
    LockDecl("tdp.aux.AuxServiceManager._lock", 22, note="aux service state"),
    LockDecl("tdp.files.FileStager._lock", 22, note="staging table"),
    LockDecl("paradyn.metrics.MetricCollector._lock", 24, note="metric samples"),
    LockDecl("paradyn.dyninst.DyninstEngine._lock", 24, note="probe bookkeeping"),

    # -- shared stores -------------------------------------------------------
    LockDecl("attrspace.store.AttributeStore._lock", 30, RLOCK,
             note="context/attribute tables; re-entrant for nested store calls"),
    LockDecl("attrspace.client._Session._lock", 32,
             note="pending-request table + subscribe ledger"),
    LockDecl("osproc.backend.PosixBackend._lock", 32, note="pid table"),

    # -- per-entity locks ----------------------------------------------------
    LockDecl("attrspace.notify.SubscriptionRegistry._lock", 40,
             note="subscription table; acquired inside store.detach"),
    LockDecl("sim.process.SimProcess.lock", 42, RLOCK,
             note="process state machine; condition state_changed aliases it"),
    LockDecl("paradyn.frontend.DaemonSession.state_changed", 43,
             note="one daemon's sample series + app state"),
    LockDecl("sim.host.SimHost._lock", 44, note="per-host pid table"),
    LockDecl("tdp.aux._TreeNode.lock", 45,
             note="one aggregation-tree node's partials"),
    LockDecl("condor.job.JobRecord._cond", 44, note="job status transitions"),
    LockDecl("osproc.backend._Managed.lock", 44, note="one POSIX child's state"),
    LockDecl("sim.kernel.Scheduler._lock", 46, note="runnable-process list"),
    LockDecl("paradyn.dyninst.CounterHandle._lock", 48, note="one counter's value"),
    LockDecl("paradyn.dyninst.TimerHandle._lock", 48, note="one timer's state"),

    # -- send locks (frame serialization; blocking sends sanctioned) ---------
    LockDecl("condor.schedd._PeerChannel._lock", 60, blocking_ok=True,
             note="one request at a time on the schedd's long-lived channel "
                  "to one peer (matchmaker, a startd): held across dial, "
                  "send and the reply wait; guards only the channel it "
                  "serializes and ranks below every transport lock"),
    LockDecl("tdp.stdio.StdioCollector._lock", 60, blocking_ok=True,
             note="stdin backlog + channel handoff"),
    LockDecl("transport.tcp._TcpChannel._recv_lock", 61, blocking_ok=True,
             note="frame reads on one socket (threadless recv: the lock "
                  "serializes misuse, the select wait inside it is the "
                  "channel's one blocking point; nests ahead of "
                  "_send_lock for the close latch)"),
    LockDecl("transport.tcp._TcpChannel._send_lock", 62, blocking_ok=True,
             note="frame writes on one socket"),
    LockDecl("transport.faultinject.FaultInjectChannel._lock", 63,
             note="per-channel fault RNG + send counter; decisions only, "
                  "the wrapped send runs outside the hold"),
    LockDecl("attrspace.server._SessionLease._lock", 64,
             note="one session's reply cache + inflight table; taken on "
                  "request threads (cache-before-enqueue, ahead of the "
                  "channel offer) and under _lease_lock (the holder "
                  "check when a deadline is armed or fires)"),
    LockDecl("transport.eventloop.ServerSocketLoop._lock", 65,
             note="event-loop cross-thread state: per-conn outbound "
                  "buffers, dirty/close queues, stop latch; holds cover "
                  "deque bookkeeping only — all socket IO runs outside "
                  "the lock on the loop thread"),
    LockDecl("transport.inmem._InMemListener._lock", 66,
             note="inmem serving core: routes a connect to the accept "
                  "backlog or the serve_loop dispatcher; the dispatcher "
                  "itself is one thread on one SimpleQueue"),
    LockDecl("transport.inmem._InMemChannel._lock", 62,
             note="queue pair state; a served end's lock is held across "
                  "the post onto the dispatcher's ready-queue, and a "
                  "delivering end's across its sink (a session's _route "
                  "on the sender's thread, which takes session, store and "
                  "queue locks).  A plain lock, outside the witness: a "
                  "sink only sends downstream (a LASS's upstream end to "
                  "its local clients' ends), and no sender holds a lock "
                  "the receiving end's sink takes"),
    LockDecl("transport.inmem.InMemoryTransport._lock", 62, note="listener table"),
    LockDecl("transport.tcp.TcpTransport._lock", 62, note="listener table"),
    LockDecl("transport.proxy.ProxyServer._lock", 62, note="tunnel table"),

    # -- clocks --------------------------------------------------------------
    LockDecl("util.clock._Timers._cond", 80,
             note="one timebase's deadline heap (the process-wide wall "
                  "heap, or a VirtualClock's, with its now); the service "
                  "waits on it and runs callbacks with it released"),

    # -- leaves (never call out while held) ----------------------------------
    LockDecl("util.sync.Latch._lock", 90, note="one-shot gate payload"),
    LockDecl("condor.tools.ThreadToolHandle._lock", 90,
             note="tool's end flag + end callbacks; they run after release"),
    LockDecl("obs.metrics.MetricsRegistry._lock", 90,
             note="metric name table; get-or-create only, metric values "
                  "are read after the table hold is released"),
    LockDecl("util.sync.WaitableQueue._lock", 91,
             note="queue contents + parked readers' gates; a reader "
                  "drops it while parked on its gate"),
    LockDecl("transport.inmem._InMemDispatcher._lock", 91,
             note="stop flag; orders each post onto the ready-queue "
                  "against the stop sentinel"),
    LockDecl("util.sync.AtomicCounter._lock", 92, note="counter word"),
    LockDecl("obs.metrics.Counter._lock", 92, note="metric counter word"),
    LockDecl("obs.metrics.Gauge._lock", 92, note="metric gauge word"),
    LockDecl("obs.metrics.Histogram._lock", 93,
             note="sample reservoir + running aggregates"),
    LockDecl("util.ids.IdAllocator._lock", 94, note="id counter"),
    LockDecl("obs.trace.SpanStore._lock", 95, note="finished-span ring"),
    LockDecl("util.log.TraceRecorder._lock", 97,
             note="trace or flight-ring append; ranked above every other "
                  "lock so an event may be recorded from any daemon context"),
])

_ACTIVE = DEFAULT


def active() -> LockHierarchy:
    """The hierarchy both sanitizer halves consult (swap in tests only)."""
    return _ACTIVE


@contextlib.contextmanager
def activated(hierarchy: LockHierarchy) -> Iterator[LockHierarchy]:
    """Temporarily install a different hierarchy (seeded-fixture tests)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = hierarchy
    try:
        yield hierarchy
    finally:
        _ACTIVE = previous
