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
* **status reporting** — the starter reports started/exited/failed over
  a dedicated channel, and the shadow updates the job record.
"""

from __future__ import annotations

from repro.condor.job import JobRecord, JobStatus
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
        self._loop = self._listener.serve_loop(
            on_channel=self._starter_connected,
            on_message=self._on_report,
            on_closed=lambda channel: None,
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
        if op == "job_started":
            self.record.app_pid = int(message.get("pid", -1))
            self.record.set_status(JobStatus.RUNNING)
            self._record_event("job_started", pid=self.record.app_pid)
        elif op == "job_exited":
            code = int(message.get("code", -1))
            self._record_event("job_exited", code=code)
            final = (
                JobStatus.REMOVED
                if self.record.removal_requested
                else JobStatus.COMPLETED
            )
            self.record.set_status(final, exit_code=code)
        elif op == "job_suspended":
            self._record_event("job_suspended")
        elif op == "job_resumed":
            self._record_event("job_resumed")
        elif op == "job_failed":
            reason = str(message.get("reason", "unknown"))
            self._record_event("job_failed", reason=reason)
            self.record.set_status(JobStatus.FAILED, failure_reason=reason)

    def stop(self) -> None:
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
        self._loop.stop()
        self._listener.close()
        self.stdio.close()
