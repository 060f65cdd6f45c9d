"""condor_shadow: the submit-side agent of one running job.

"This program runs on the machine where a given request was submitted
and acts as the resource manager for the request.  … Any system call
performed on the remote execute machine is sent over the network to the
condor_shadow which actually performs the system call (such as file
I/O) on the submit machine" (Section 4.1).

Our shadow performs the two remote services the scenarios exercise:

* **job stdio** — it owns a :class:`StdioCollector`; output lines arrive
  over the network and the shadow writes them into the submit host's
  filesystem at the submit file's ``output`` path (remote file I/O);
* **status reporting** — each rank's starter reports over its own
  channel, and the shadow keeps the gang, as Condor's shadow does for a
  parallel job: each starter names its rank (``hello``) as it is
  activated; the job is RUNNING on rank 0's ``job_started``; a worker
  rank's starter is sent ``run`` once rank 0 reports ``master_running``;
  the first ``job_failed`` decides the job's failure and has the rest of
  the gang killed; once every rank has ended the job is COMPLETED
  (REMOVED after condor_rm) with the first nonzero exit code in rank
  order, or FAILED.
"""

from __future__ import annotations

from typing import Callable

from repro import errors
from repro.condor.job import TERMINAL, JobRecord, JobStatus
from repro.net.address import Endpoint
from repro.tdp.stdio import StdioCollector
from repro.transport.base import Channel, Transport
from repro.util.log import TraceRecorder, get_logger, record_event
from repro.util.sync import tracked_lock

_log = get_logger("condor.shadow")


class _JobOutput(StdioCollector):
    """The job's stdio collector, performing the 'remote system call' on
    its serving thread: each stdout line is written on the submit host."""

    def __init__(
        self, transport: Transport, host: str, record: JobRecord,
        submit_fs: dict[str, str],
    ):
        self._record = record
        self._submit_fs = submit_fs
        super().__init__(transport, host)

    def _on_line(self, line: str) -> None:
        self._record.stdout_lines.append(line)
        output_path = self._record.description.output
        if output_path:
            existing = self._submit_fs.get(output_path, "")
            self._submit_fs[output_path] = existing + line + "\n"


class Shadow:
    """One shadow per running job, on the submit host."""

    def __init__(
        self,
        transport: Transport,
        submit_host: str,
        record: JobRecord,
        *,
        submit_fs: dict[str, str] | None = None,
        trace: TraceRecorder | None = None,
        kill_gang: Callable[[], None],
    ):
        self._transport = transport
        self.submit_host = submit_host
        self.record = record
        self._submit_fs = submit_fs if submit_fs is not None else {}
        self._trace = trace
        self._listener = transport.listen(submit_host)
        self.stdio: StdioCollector = _JobOutput(
            transport, submit_host, record, self._submit_fs
        )
        # stop() can race between the schedd's remove path and normal
        # job teardown; the flag flip must be atomic so the listener and
        # collector are closed exactly once.
        self._lock = tracked_lock("condor.shadow.Shadow._lock")
        self._stopped = False
        #: has every rank killed (the schedd's kill of each claim); must
        #: not block, as the serving thread calls it
        self._kill_gang = kill_gang
        self._size = record.description.ranks
        # The gang, kept on the serving thread: every callback below runs
        # on it.  Each starter's first frame names its rank.
        self._ranks: dict[Channel, int] = {}
        #: worker starters waiting for their run
        # tdp-guard: _waiting -> confined:indirect
        self._waiting: list[Channel] = []
        # tdp-guard: _master_running -> confined:indirect
        self._master_running = False
        #: rank -> its exit code, for each rank that has ended (None: no
        #: code, as it was never started or failed)
        self._ended: dict[int, int | None] = {}
        # tdp-guard: _failure -> confined:indirect
        self._failure: str | None = None
        self._loop = self._listener.serve_loop(
            on_channel=self._starter_connected,
            on_message=self._on_report,
            on_closed=self._starter_closed,
            name=f"shadow-{record.job_id}",
        )

    @property
    def endpoint(self) -> Endpoint:
        """Where the starter reports job status."""
        return self._listener.endpoint

    @property
    def stdio_endpoint(self) -> Endpoint:
        return self.stdio.endpoint

    def _record_event(self, action: str, **details) -> None:
        record_event(self._trace, "shadow", action, **details)

    def _starter_connected(self, channel: Channel) -> Channel:
        self._record_event("starter_connected", peer=channel.remote_host)
        return channel

    def _on_report(self, channel: Channel, message: dict) -> None:
        op = message.get("op")
        if op == "hello":
            rank = self._ranks[channel] = int(message.get("rank", 0))
            if rank:
                self._waiting.append(channel)
                self._start_waiting()
            return
        rank = self._ranks.get(channel)
        if rank is None:
            return  # not a starter of this gang
        if op == "master_running":
            self._master_running = True
            self._start_waiting()
        elif op == "job_started":
            self.record.app_pid = int(message.get("pid", -1))
            self.record.set_status(JobStatus.RUNNING)
            self._record_event("job_started", pid=self.record.app_pid)
        elif op == "job_exited":
            self._rank_ended(rank, int(message.get("code", -1)))
        elif op == "job_suspended":
            self._record_event("job_suspended")
        elif op == "job_resumed":
            self._record_event("job_resumed")
        elif op == "job_failed":
            self._fail(str(message.get("reason", "unknown")))
            self._rank_ended(rank, None)

    def _starter_closed(self, channel: Channel) -> None:
        """A starter's channel closed: its rank has ended, reported or not
        (a worker that was never started reports nothing)."""
        with self._lock:
            if self._stopped:
                return  # the shadow closed it: the job is over
        rank = self._ranks.pop(channel, None)
        if rank is None:
            return  # it never named its rank: its activation failed
        if rank not in self._ended and not self._ending():
            self._fail(f"rank {rank}'s starter ended without a report")
        self._rank_ended(rank, None)

    def _ending(self) -> bool:
        return (
            self._failure is not None
            or self.record.removal_requested
            or self.record.status in TERMINAL
        )

    def _start_waiting(self) -> None:
        """Send ``run`` to every waiting worker once rank 0 runs, unless the
        gang is ending: its kill ends them, and they create nothing."""
        if not self._master_running or self._ending():
            return
        waiting, self._waiting = self._waiting, []
        for channel in waiting:
            try:
                channel.send({"op": "run"})
            except errors.TdpError:
                pass  # its starter is gone: the close counts it

    def _fail(self, reason: str) -> None:
        """The first failure is the job's: the rest of the gang is killed,
        as its peers would wait for the failed rank for good."""
        if self._failure is not None:
            return
        self._failure = reason
        self._record_event("job_failed", reason=reason)
        if len(self._ended) + 1 < self._size:
            self._kill_gang()

    def _rank_ended(self, rank: int, code: int | None) -> None:
        if rank in self._ended:
            return
        self._ended[rank] = code
        if len(self._ended) < self._size:
            return
        codes = [c for _rank, c in sorted(self._ended.items()) if c is not None]
        code = next((c for c in codes if c != 0), 0)
        if self._failure is not None and not self.record.removal_requested:
            self.record.set_status(JobStatus.FAILED, failure_reason=self._failure)
            return
        self._record_event("job_exited", code=code)
        final = JobStatus.REMOVED if self.record.removal_requested else JobStatus.COMPLETED
        self.record.set_status(final, exit_code=code if codes else None)

    def stop(self) -> None:
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
        self._loop.stop()
        self._listener.close()
        self.stdio.close()
