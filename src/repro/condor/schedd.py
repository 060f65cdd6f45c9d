"""condor_schedd: the submit-side job queue and claim orchestrator.

"Any submit machine needs to have a condor_schedd running.  Basically,
condor_schedd takes care of the job until a suitable and available
resource is found for the job.  The condor_schedd spawns a
condor_shadow daemon to serve that particular request" (Section 4.1).

Flow per job (the Figure 4 interaction the FIG4 bench traces):

1. ``submit`` queues the job (status IDLE) and wakes the negotiation
   thread;
2. the schedd sends the job ad to the **matchmaker** and receives
   machine matches;
3. it runs the **claiming protocol** against each matched startd (which
   may refuse — then the reservation is released and the job retried);
4. it spawns a **shadow** and activates every claim with its rank,
   the workers first and rank 0 last: each startd spawns the starter of
   its rank, and the activation names the shadow and stdio endpoints
   and carries the pool-global attributes the schedd's CASS holds;
5. the shadow tracks the job to completion — every rank of it; once the
   job is in a terminal state, however it got there, it leaves the
   queue (its submitter keeps the ``JobRecord``), and the release worker
   returns the claims (each starter ends with its claim) and the
   matchmaker's reservations and stops the shadow.

The schedd talks to the matchmaker and to each startd over one channel
per peer that lives as long as the schedd does (``_PeerChannel``).
"""

from __future__ import annotations

import contextlib
import functools
from typing import Callable

from repro import errors
from repro.attrspace.server import AttributeSpaceServer, ServerRole
from repro.condor.job import JobId, JobRecord, JobStatus, job_ad
from repro.condor.shadow import Shadow
from repro.condor.startd import description_to_wire
from repro.condor.submit import SubmitDescription, parse_submit_file
from repro.net.address import Endpoint, parse_endpoint
from repro.tdp.wellknown import Attr
from repro.transport.base import Channel, Transport
from repro.util.clock import Clock, WallClock
from repro.util.ids import IdAllocator, fresh_token
from repro.util.log import TraceRecorder, get_logger, record_event
from repro.util.sync import WaitableQueue, tracked_condition, tracked_lock
from repro.util.threads import spawn

_log = get_logger("condor.schedd")

#: the CASS items every rank's launch record carries ("port arguments …
#: disseminated to remote sites as attribute values", Section 4.3)
DISSEMINATED = (Attr.RT_FRONTEND, Attr.RM_PROXY, Attr.STDIO_ENDPOINT)


class _PeerChannel:
    """The schedd's one channel to one peer daemon (the matchmaker, a
    startd), dialled on first use and kept for the schedd's lifetime.

    A channel pairs each reply with its request only by order, so
    requests are serialised: the negotiator, the release worker and a
    user's ``condor_hold`` take turns per peer.  A channel found closed
    is dialled again.  One that fails under a request is dropped and the
    failure raised — the peer may already have acted on the frame, and a
    late reply would answer the next request.
    """

    def __init__(
        self,
        transport: Transport,
        src_host: str,
        endpoint: Endpoint,
        request_timeout: float,
    ):
        self._transport = transport
        self._src_host = src_host
        self._endpoint = endpoint
        self._request_timeout = request_timeout
        self._channel: Channel | None = None
        self._closed = False
        self._lock = tracked_lock("condor.schedd._PeerChannel._lock")

    def request(self, message: dict) -> dict:
        with self._lock:
            if self._closed:
                raise errors.ChannelClosedError(
                    f"schedd stopped: no request to {self._endpoint}"
                )
            channel = self._channel
            if channel is None or channel.closed:
                channel = self._channel = self._transport.connect(
                    self._src_host, self._endpoint, timeout=10.0
                )
            try:
                return channel.request(message, timeout=self._request_timeout)
            except errors.TdpError:
                self._channel = None
                channel.close()
                raise

    def close(self) -> None:
        """Final: a request racing the schedd's stop fails, it does not re-dial."""
        with self._lock:
            self._closed = True
            if self._channel is not None:
                self._channel.close()


class Schedd:
    """The submit-machine queue daemon."""

    #: how long to wait before retrying a job that found no match
    RETRY_INTERVAL = 0.05
    #: attempts before a job is marked FAILED (those a release prompts are free)
    MAX_ATTEMPTS = 20

    def __init__(
        self,
        transport: Transport,
        submit_host: str,
        matchmaker_endpoint: Endpoint,
        *,
        submit_fs: dict[str, str] | None = None,
        trace: TraceRecorder | None = None,
        clock: Clock | None = None,
    ):
        self._transport = transport
        self.submit_host = submit_host
        self._matchmaker = _PeerChannel(
            transport, submit_host, matchmaker_endpoint, request_timeout=10.0
        )
        self._startds: dict[Endpoint, _PeerChannel] = {}
        #: timebase for retry/requeue timers and the CASS's blocking-get
        #: timeouts; wall clock unless a scenario injects its own.
        self._clock = clock if clock is not None else WallClock()
        # "There is also a central attribute space server (CASS) process
        # on the host running the tool front-end", started by the RM
        # front-end (paper Section 2.1) — which is this daemon.
        self.cass = AttributeSpaceServer(
            transport, submit_host, role=ServerRole.CASS,
            name=f"cass@{submit_host}", clock=self._clock,
        )
        self._submit_fs = submit_fs if submit_fs is not None else {}
        self._trace = trace
        self._clusters = IdAllocator()
        #: the jobs that are not yet terminal (condor_q's queue)
        self._jobs: dict[str, JobRecord] = {}
        self._shadows: dict[str, Shadow] = {}
        # job_id -> [(machine, startd_endpoint, claim_id)] in rank order, while active
        self._active_claims: dict[str, list[tuple[str, Endpoint, str]]] = {}
        self._queue: list[JobRecord] = []
        #: job_id -> token of a job parked until a release or its timer
        # tdp-guard: _parked -> condor.schedd.Schedd._cond
        self._parked: dict[str, object] = {}
        #: job_id -> how often its timer, not a release, requeued it
        # tdp-guard: _waits -> condor.schedd.Schedd._cond
        self._waits: dict[str, int] = {}
        self._cond = tracked_condition("condor.schedd.Schedd._cond")
        self._stopped = False
        #: the release worker's chores: release a job that reached a
        #: terminal state, or kill the gang of one whose rank failed
        self._chores: WaitableQueue[Callable[[], None]] = WaitableQueue()
        self._negotiator = spawn(self._negotiation_loop, name="schedd-negotiate")
        spawn(self._release_loop, name="schedd-release")

    def _record(self, action: str, **details) -> None:
        record_event(self._trace, "schedd", action, **details)

    # -- submission -------------------------------------------------------------

    def submit(self, description: SubmitDescription) -> JobRecord:
        """Queue one job; returns its record immediately (status IDLE)."""
        description.validate()
        cluster = self._clusters.next()
        record = JobRecord(job_id=JobId(cluster), description=description)
        # Registered before the job can be placed, so whatever ends it —
        # exit, a refused activation, condor_rm — frees what it held.
        record.on_terminal(self._job_finished)
        with self._cond:
            self._jobs[str(record.job_id)] = record
            self._queue.append(record)
            self._cond.notify()
        self._record("submit", job=str(record.job_id), executable=description.executable)
        return record

    def submit_file(self, text: str) -> list[JobRecord]:
        """Parse a submit description file and queue all its jobs.

        A ``queue N`` statement enqueues N independent copies (Condor's
        cluster/proc expansion, flattened to separate clusters here).
        """
        records = []
        for desc in parse_submit_file(text):
            for _ in range(desc.count):
                records.append(self.submit(desc))
        return records

    def job(self, job_id: str) -> JobRecord:
        """A queued or running job; a finished one is history, as in condor_q."""
        with self._cond:
            record = self._jobs.get(job_id)
        if record is None:
            raise errors.ResourceManagerError(f"no such job {job_id!r}")
        return record

    def jobs(self) -> list[JobRecord]:
        """The jobs in the queue: those not yet terminal."""
        with self._cond:
            return list(self._jobs.values())

    # -- negotiation / claiming ----------------------------------------------------

    def _negotiation_loop(self) -> None:
        while True:
            # The stop flag is only read under _cond (the inner wait
            # loop re-checks it); an unguarded pre-check here would race
            # with stop() for no latency benefit.
            with self._cond:
                while not self._queue and not self._stopped:
                    self._cond.wait()  # submit, _unpark and stop notify
                if self._stopped:
                    return
                record = self._queue.pop(0)
            try:
                placed = self._try_place(record)
            except errors.TdpError as e:
                placed = False
                _log.warning("placement error for %s: %s", record.job_id, e)
            if not placed and not self._park(str(record.job_id)):
                record.set_status(
                    JobStatus.FAILED,
                    failure_reason="no matching/claimable machines",
                )
                self._record("job_unplaceable", job=str(record.job_id))

    def _park(self, job_id: str) -> bool:
        """Hold a job that found no machines until a release frees some or its
        timer fires; False once its timer has requeued it ``MAX_ATTEMPTS - 1`` times."""
        token = object()
        with self._cond:
            if self._waits.get(job_id, 0) + 1 >= self.MAX_ATTEMPTS:
                return False
            self._parked[job_id] = token
        self._clock.call_later(self.RETRY_INTERVAL, lambda: self._unpark(job_id, token))
        return True

    def _unpark(self, job_id: str | None = None, token: object = None) -> None:
        """Requeue every parked job (a release freed machines), or
        ``job_id`` if ``token`` is still its parking's (its timer fired)."""
        with self._cond:
            if job_id is None:
                back, self._parked = list(self._parked), {}
            elif self._parked.get(job_id) is token:
                back = [job_id]
                del self._parked[job_id]
                self._waits[job_id] = self._waits.get(job_id, 0) + 1
            else:
                return  # a release requeued it since: this timer is stale
            if not self._stopped:
                self._queue.extend(self._jobs[parked] for parked in back)
                self._cond.notify()

    def _matchmaker_rpc(self, message: dict) -> dict:
        return self._matchmaker.request(message)

    def _startd_rpc(self, endpoint: Endpoint, message: dict) -> dict:
        with self._cond:
            if self._stopped:
                raise errors.ChannelClosedError("schedd stopped")
            peer = self._startds.get(endpoint)
            if peer is None:
                peer = self._startds[endpoint] = _PeerChannel(
                    self._transport, self.submit_host, endpoint,
                    request_timeout=30.0,
                )
        return peer.request(message)

    def _try_place(self, record: JobRecord) -> bool:
        """One negotiate+claim+activate attempt.  True when job is running."""
        ad = job_ad(record)
        wanted = record.description.machine_count
        reply = self._matchmaker_rpc(
            {"op": "negotiate", "job_ad": ad.attrs, "count": wanted}
        )
        if not reply.get("ok"):
            return False
        matches = reply["matches"]
        record.set_status(JobStatus.MATCHED)
        self._record(
            "match_notification",
            job=str(record.job_id),
            machines=",".join(m["machine"] for m in matches),
        )

        # Claiming protocol against each matched startd.
        claims: list[tuple[str, Endpoint, str]] = []
        for m in matches:
            startd_endpoint = parse_endpoint(str(m["startd"]))
            claim_id = fresh_token("claim")
            self._record("claim_request", machine=m["machine"], claim=claim_id)
            try:
                answer = self._startd_rpc(
                    startd_endpoint,
                    {"op": "claim_request", "claim_id": claim_id, "job_ad": ad.attrs},
                )
            except errors.TdpError:
                answer = {"ok": False}
            if not answer.get("ok"):
                # Claim refused: release everything and let the caller retry.
                self._record("claim_refused", machine=m["machine"], claim=claim_id)
                self._release_claims(claims)
                for unclaimed in matches[len(claims):]:
                    self._release_reservation(unclaimed["machine"])
                record.set_status(JobStatus.IDLE)
                return False
            claims.append((m["machine"], startd_endpoint, claim_id))
        record.machines = [c[0] for c in claims]
        record.set_status(JobStatus.CLAIMED)

        # Spawn the shadow for this request, then activate the claims.
        job_id = str(record.job_id)
        shadow = Shadow(
            self._transport,
            self.submit_host,
            record,
            submit_fs=self._submit_fs,
            trace=self._trace,
            kill_gang=functools.partial(self._chore, self._kill_claims, job_id),
        )
        self._shadows[job_id] = shadow
        self._record("spawn_shadow", job=job_id)

        activation = {
            "op": "activate_claim",
            "job_id": job_id,
            "submit_host": self.submit_host,
            "job": description_to_wire(record.description),
            "shadow": str(shadow.endpoint),
            "stdio": str(shadow.stdio_endpoint),
            "disseminate": self._disseminated(),
        }
        self._active_claims[job_id] = claims
        # The workers first, rank 0 (the primary) last: a worker's starter
        # parks until rank 0 runs, so no activation competes for the
        # interpreter with a launch already under way.
        gang = list(enumerate(claims[:record.description.ranks]))
        for rank, (machine, endpoint, claim_id) in gang[1:] + gang[:1]:
            self._record("activate_claim", machine=machine, claim=claim_id)
            try:
                answer = self._startd_rpc(
                    endpoint, {**activation, "claim_id": claim_id, "rank": rank}
                )
            except errors.TdpError:
                # Not running and not terminal: free the machines and the
                # shadow now, the negotiation loop retries the job.
                self._release_job(job_id)
                record.set_status(JobStatus.IDLE)
                raise
            if not answer.get("ok"):
                # Terminal: the release worker frees every claim, and each
                # activated starter ends with its claim.
                reason = str(answer.get("error"))
                if rank:
                    reason = f"rank {rank} could not be started: {reason}"
                record.set_status(JobStatus.FAILED, failure_reason=reason)
                break
        return True  # running, or terminal: do not retry

    def _disseminated(self) -> list[list[str]]:
        """Those of :data:`DISSEMINATED` the schedd's CASS holds, read
        from its store for each activation."""
        held = self.cass.store.snapshot()
        return [[attribute, held[attribute]] for attribute in DISSEMINATED if attribute in held]

    # -- release: what a job held goes back when it ends ---------------------------

    def _job_finished(self, record: JobRecord) -> None:
        """``JobRecord.on_terminal`` callback: drop the job from the queue
        and hand it to the release worker."""
        with self._cond:
            self._jobs.pop(str(record.job_id), None)
        self._chore(self._release_job, str(record.job_id))

    def _chore(self, work: Callable[[str], None], job_id: str) -> None:
        """Hand ``work(job_id)`` to the release worker: the caller (a
        job's terminal callback, a shadow's serving thread) must not block."""
        try:
            self._chores.put(functools.partial(work, job_id))
        except errors.ChannelClosedError:
            pass  # schedd stopped: the pool is going away with its claims

    def _release_loop(self) -> None:
        while True:
            try:
                chore = self._chores.get()
            except errors.ChannelClosedError:
                return
            chore()

    def _release_job(self, job_id: str) -> None:
        """Release the job's claims, reservations, shadow and retry count.

        Idempotent, and a no-op for a job that never held any (dequeued,
        unplaceable)."""
        self._release_claims(self._active_claims.pop(job_id, ()))
        with self._cond:
            self._waits.pop(job_id, None)
        shadow = self._shadows.pop(job_id, None)
        if shadow is not None:
            shadow.stop()

    def _release_claims(self, claims) -> None:
        for machine, endpoint, claim_id in claims:
            try:
                self._startd_rpc(
                    endpoint, {"op": "release_claim", "claim_id": claim_id}
                )
            except errors.TdpError:
                pass  # a startd that is gone holds no claim
            self._release_reservation(machine)
        if claims:
            self._unpark()  # a job waiting for machines need not wait out its timer

    def _release_reservation(self, machine: str) -> None:
        try:
            self._matchmaker_rpc({"op": "release", "machine": machine})
        except errors.TdpError:
            pass

    # -- user job control (condor_hold / condor_release) ----------------------------

    def _primary_claim(self, job_id: str):
        claims = self._active_claims.get(job_id)
        if not claims:
            raise errors.ResourceManagerError(
                f"job {job_id!r} has no active claim (not running?)"
            )
        return claims[0]

    def hold(self, job_id: str) -> None:
        """Suspend a running job (the RM pauses it; tools see 'stopped')."""
        record = self.job(job_id)
        _machine, endpoint, claim_id = self._primary_claim(job_id)
        answer = self._startd_rpc(
            endpoint, {"op": "suspend_job", "claim_id": claim_id}
        )
        if not answer.get("ok"):
            raise errors.ResourceManagerError(
                f"hold failed: {answer.get('error')}"
            )
        record.set_status(JobStatus.HELD)
        self._record("job_held", job=job_id)

    def release(self, job_id: str) -> None:
        """Resume a held job."""
        record = self.job(job_id)
        _machine, endpoint, claim_id = self._primary_claim(job_id)
        answer = self._startd_rpc(
            endpoint, {"op": "resume_job", "claim_id": claim_id}
        )
        if not answer.get("ok"):
            raise errors.ResourceManagerError(
                f"release failed: {answer.get('error')}"
            )
        record.set_status(JobStatus.RUNNING)
        self._record("job_released", job=job_id)

    def attach_tool(
        self, job_id: str, cmd: str, args: str, *, output: str | None = None
    ) -> None:
        """Ask the execution-side RM to attach a run-time tool to a
        RUNNING job (the Figure 3B flow through the batch system)."""
        self.job(job_id)  # validates existence
        _machine, endpoint, claim_id = self._primary_claim(job_id)
        answer = self._startd_rpc(
            endpoint,
            {"op": "attach_tool", "claim_id": claim_id, "cmd": cmd,
             "args": args, "output": output,
             "disseminate": self._disseminated()},
        )
        if not answer.get("ok"):
            raise errors.ResourceManagerError(
                f"attach_tool failed: {answer.get('error')}"
            )
        self._record("tool_attached", job=job_id, cmd=cmd)

    def remove(self, job_id: str) -> None:
        """condor_rm: remove a job — dequeue it if idle, kill it if running.

        The terminal status becomes REMOVED either way.  A job that has
        already finished is not in the queue: its status stays as it ended.
        """
        record = self.job(job_id)
        if self._active_claims.get(job_id):
            record.removal_requested = True
            self._kill_claims(job_id)
            self._record("job_removed", job=job_id, how="killed")
            return
        # Idle/queued: drop it from the queue.
        with self._cond:
            self._queue = [r for r in self._queue if str(r.job_id) != job_id]
            self._parked.pop(job_id, None)
        record.set_status(JobStatus.REMOVED)
        self._record("job_removed", job=job_id, how="dequeued")

    def _kill_claims(self, job_id: str) -> None:
        """Kill every rank of the job, each through its claim's starter.
        The startd keeps a kill that comes before the claim's activation:
        the starter it then spawns creates nothing."""
        for _machine, endpoint, claim_id in self._active_claims.get(job_id, ()):
            with contextlib.suppress(errors.TdpError):
                self._startd_rpc(endpoint, {"op": "kill_job", "claim_id": claim_id})

    # -- lifecycle ----------------------------------------------------------------

    def stop(self) -> None:
        with self._cond:
            self._stopped = True
            self._cond.notify_all()
            peers = [self._matchmaker, *self._startds.values()]
        self._chores.close()
        for peer in peers:
            peer.close()
        for shadow in list(self._shadows.values()):
            shadow.stop()
        self.cass.stop()
