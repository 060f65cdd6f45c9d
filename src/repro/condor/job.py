"""Job records and state machine for the batch system."""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from typing import Callable

from repro.condor.classad import ClassAd
from repro.condor.submit import SubmitDescription
from repro.errors import GetTimeoutError
from repro.util.sync import tracked_condition


class JobStatus(enum.Enum):
    """Lifecycle of a submitted job (Condor's q states, simplified)."""

    IDLE = "idle"            # queued, awaiting a match
    MATCHED = "matched"      # matchmaker paired it with machine(s)
    CLAIMED = "claimed"      # claiming protocol completed
    RUNNING = "running"      # starter has spawned it
    HELD = "held"            # suspended by the user (condor_hold)
    COMPLETED = "completed"  # exited
    FAILED = "failed"        # could not run (match/claim/spawn failure)
    REMOVED = "removed"


#: statuses a job never leaves
TERMINAL = (JobStatus.COMPLETED, JobStatus.FAILED, JobStatus.REMOVED)


@dataclass
class JobId:
    cluster: int
    proc: int = 0

    def __str__(self) -> str:
        return f"{self.cluster}.{self.proc}"

    def __hash__(self) -> int:
        return hash((self.cluster, self.proc))


@dataclass
class JobRecord:
    """Everything the schedd tracks about one job."""

    job_id: JobId
    description: SubmitDescription
    status: JobStatus = JobStatus.IDLE
    machines: list[str] = field(default_factory=list)
    exit_code: int | None = None
    failure_reason: str | None = None
    app_pid: int | None = None
    #: set by condor_rm so the terminal status becomes REMOVED, not COMPLETED
    removal_requested: bool = False
    stdout_lines: list[str] = field(default_factory=list)
    _cond: threading.Condition = field(
        default_factory=lambda: tracked_condition("condor.job.JobRecord._cond"),
        repr=False,
    )
    _terminal_callbacks: list[Callable[["JobRecord"], None]] = field(
        default_factory=list, repr=False
    )

    def on_terminal(self, callback: Callable[["JobRecord"], None]) -> None:
        """Run ``callback(record)`` once, when the job becomes COMPLETED,
        FAILED or REMOVED — on the thread that makes it so, outside the
        record's lock, so it must not block.  Register before the job can
        finish (the schedd does at submit)."""
        with self._cond:
            self._terminal_callbacks.append(callback)

    def set_status(
        self,
        status: JobStatus,
        *,
        exit_code: int | None = None,
        failure_reason: str | None = None,
    ) -> None:
        with self._cond:
            if self.status in TERMINAL:
                # How a job ended is final: a reply that raced its end
                # (say, a release answered as it exited) does not revive it.
                return
            self.status = status
            if exit_code is not None:
                self.exit_code = exit_code
            if failure_reason is not None:
                self.failure_reason = failure_reason
            self._cond.notify_all()
            finished = []
            if status in TERMINAL:
                finished, self._terminal_callbacks = self._terminal_callbacks, []
        for callback in finished:
            callback(self)

    def wait_for(self, *statuses: JobStatus, timeout: float | None = None) -> JobStatus:
        with self._cond:
            ok = self._cond.wait_for(lambda: self.status in statuses, timeout=timeout)
            if not ok:
                raise GetTimeoutError(
                    f"job {self.job_id} stuck in {self.status.value}; "
                    f"wanted {[s.value for s in statuses]}"
                )
            return self.status

    def wait_terminal(self, timeout: float | None = None) -> JobStatus:
        return self.wait_for(*TERMINAL, timeout=timeout)


def job_ad(record: JobRecord) -> ClassAd:
    """Build the job's ClassAd from its submit description."""
    desc = record.description
    attrs: dict = {
        "JobId": str(record.job_id),
        "Owner": "user",
        "Cmd": desc.executable,
        "JobUniverse": desc.universe,
        "RequestedMachines": desc.machine_count,
        "Monitored": desc.monitored,
    }
    if desc.requirements:
        attrs["Requirements"] = "=" + desc.requirements
    if desc.rank:
        attrs["Rank"] = "=" + desc.rank
    return ClassAd(kind="job", attrs=attrs)
