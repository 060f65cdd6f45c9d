"""POSIX process backend: TDP process management over real processes.

Faithfulness notes (the documented substitution for the C library's
``ptrace``/``/proc`` machinery, per the repro guidance):

* **create paused** — the child raises ``SIGSTOP`` in a ``preexec_fn``
  (after ``fork``, before ``exec``).  The paper stops the child just
  *after* ``exec``; stopping just *before* preserves every property the
  protocol relies on (the pid exists, nothing of the application has
  run, a later ``SIGCONT`` lets it proceed) while remaining possible
  from pure Python.
* **attach** — ``SIGSTOP`` to the target plus tracer bookkeeping in the
  backend; real ``PTRACE_ATTACH`` is not accessible without native code.
* **pause/continue** — ``SIGSTOP``/``SIGCONT``; ``pause`` returns only
  once the process has actually stopped, which ``waitid(WSTOPPED)``
  reports (with ``WNOWAIT``, so the exit status stays the reaper's).

Stdout is pumped line-by-line into registered sinks, matching the sim
backend's interface, so the StdioRelay works identically on both.
"""

from __future__ import annotations

import os
import signal
import subprocess
import threading
from typing import Callable

from repro import errors
from repro.tdp.process import ProcessBackend, ProcessInfo
from repro.tdp.wellknown import CreateMode, ProcStatus
from repro.util.log import get_logger
from repro.util.threads import spawn

_log = get_logger("osproc.backend")


class _Managed:
    """Backend-side record for one real child process."""

    def __init__(self, popen: subprocess.Popen, executable: str, paused: bool):
        self.popen = popen
        self.executable = executable
        # tdp-guard: ever_continued -> volatile
        # (monotonic latch set by continue_process; status snapshots
        # read it racily and tolerate the pre-continue answer)
        self.ever_continued = not paused
        self.tracer: str | None = None
        self.exit_listeners: list[Callable[[ProcessInfo], None]] = []
        self.stdout_sinks: list[Callable[[str], None]] = []
        self.lock = threading.Lock()
        self.exited = threading.Event()


def _stopped(pid: int, *, block: bool) -> bool:
    """Is the child ``pid`` stopped?  With ``block``, wait until it stops or exits.
    ``WNOWAIT`` leaves the exit status to the reaper: a plain ``waitpid(WUNTRACED)``
    would reap a child that exited, and ``Popen.wait`` would then read 0."""
    options = os.WSTOPPED | os.WNOWAIT | (os.WEXITED if block else os.WNOHANG)
    try:
        return os.waitid(os.P_PID, pid, options) is not None
    except ChildProcessError:
        return False  # already reaped: exited


class PosixBackend(ProcessBackend):
    """ProcessBackend over real POSIX children of this Python process.

    Only processes created through this backend can be fully managed
    (``wait`` requires parenthood); ``attach`` accepts any pid the user
    may signal, but exit observation is then best-effort polling.
    """

    def __init__(self, hostname: str = "localhost"):
        self._hostname = hostname
        self._managed: dict[int, _Managed] = {}
        self._lock = threading.Lock()

    @property
    def hostname(self) -> str:
        return self._hostname

    # -- creation ------------------------------------------------------------

    def create(
        self,
        executable: str,
        argv: list[str],
        *,
        env: dict[str, str] | None = None,
        mode: CreateMode = CreateMode.RUN,
    ) -> ProcessInfo:
        paused = mode is CreateMode.PAUSED
        if paused:
            # A pre-exec SIGSTOP would deadlock CPython's Popen (it waits
            # for the child's exec to close the error pipe), so we stop
            # via a shell trampoline: the shell execs (Popen returns),
            # stops itself, and on SIGCONT execs the real program in the
            # SAME pid — i.e. stopped "just after the exec call" and
            # before any application code, the paper's exact window.
            command: list[str] = [
                "/bin/sh",
                "-c",
                'kill -STOP $$; exec "$0" "$@"',
                executable,
                *argv,
            ]
        else:
            command = [executable, *argv]
        if paused and not os.path.exists(executable) and "/" in executable:
            raise errors.ExecutableNotFoundError(executable)
        try:
            popen = subprocess.Popen(
                command,
                env={**os.environ, **(env or {})},
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                stdin=subprocess.PIPE,
                text=True,
                bufsize=1,
            )
        except FileNotFoundError as e:
            raise errors.ExecutableNotFoundError(str(e)) from e
        managed = _Managed(popen, executable, paused)
        with self._lock:
            self._managed[popen.pid] = managed
        spawn(self._pump_stdout, args=(managed,), name=f"osproc-stdout-{popen.pid}")
        spawn(self._reap, args=(managed,), name=f"osproc-reap-{popen.pid}")
        if paused:
            _stopped(popen.pid, block=True)
        return self.status(popen.pid)

    def _pump_stdout(self, managed: _Managed) -> None:
        assert managed.popen.stdout is not None
        for line in managed.popen.stdout:
            line = line.rstrip("\n")
            with managed.lock:
                sinks = list(managed.stdout_sinks)
            for sink in sinks:
                sink(line)

    def _reap(self, managed: _Managed) -> None:
        managed.popen.wait()
        managed.exited.set()
        info = self._info(managed)
        with managed.lock:
            listeners = list(managed.exit_listeners)
            managed.exit_listeners.clear()
        for listener in listeners:
            listener(info)

    # -- helpers --------------------------------------------------------------

    def _get(self, pid: int) -> _Managed:
        with self._lock:
            managed = self._managed.get(pid)
        if managed is None:
            raise errors.NoSuchProcessError(pid, self._hostname)
        return managed

    def _info(self, managed: _Managed) -> ProcessInfo:
        pid = managed.popen.pid
        returncode = managed.popen.poll()
        code = None if returncode is None else returncode if returncode >= 0 else 128 - returncode
        if code is not None:
            status = ProcStatus.exited(code)
        elif _stopped(pid, block=False):
            status = ProcStatus.STOPPED if managed.ever_continued else ProcStatus.CREATED
        else:
            status = ProcStatus.RUNNING
        return ProcessInfo(
            pid=pid,
            host=self._hostname,
            executable=managed.executable,
            status=status,
            exit_code=code,
        )

    # -- control ----------------------------------------------------------------

    def attach(self, pid: int, tracer: str) -> ProcessInfo:
        managed = self._get(pid)
        with managed.lock:
            if managed.tracer is not None:
                raise errors.AttachError(
                    f"pid {pid} already traced by {managed.tracer!r}"
                )
            managed.tracer = tracer
        try:
            os.kill(pid, signal.SIGSTOP)
        except ProcessLookupError:
            raise errors.AttachError(f"cannot attach to exited pid {pid}") from None
        _stopped(pid, block=True)
        return self.status(pid)

    def detach(self, pid: int, *, resume: bool = True) -> None:
        managed = self._get(pid)
        with managed.lock:
            if managed.tracer is None:
                raise errors.AttachError(f"pid {pid} has no tracer")
            managed.tracer = None
        if resume:
            self.continue_process(pid)

    def continue_process(self, pid: int) -> None:
        managed = self._get(pid)
        try:
            os.kill(pid, signal.SIGCONT)
        except ProcessLookupError:
            raise errors.InvalidProcessStateError(f"pid {pid} has exited") from None
        managed.ever_continued = True

    def pause(self, pid: int) -> None:
        self._get(pid)
        try:
            os.kill(pid, signal.SIGSTOP)
        except ProcessLookupError:
            raise errors.InvalidProcessStateError(f"pid {pid} has exited") from None
        _stopped(pid, block=True)

    def kill(self, pid: int, sig: int = 15) -> None:
        managed = self._get(pid)
        try:
            os.kill(pid, sig)
            # A stopped process does not act on SIGTERM until continued.
            os.kill(pid, signal.SIGCONT)
        except ProcessLookupError:
            pass
        managed.popen.stdin and managed.popen.stdin.close()

    def status(self, pid: int) -> ProcessInfo:
        return self._info(self._get(pid))

    def wait_exit(self, pid: int, timeout: float | None = None) -> int:
        managed = self._get(pid)
        if not managed.exited.wait(timeout):
            raise errors.GetTimeoutError(f"pid {pid} did not exit within {timeout}s")
        info = self._info(managed)
        assert info.exit_code is not None
        return info.exit_code

    def on_exit(self, pid: int, listener: Callable[[ProcessInfo], None]) -> None:
        managed = self._get(pid)
        with managed.lock:
            if not managed.exited.is_set():
                managed.exit_listeners.append(listener)
                return
        listener(self._info(managed))

    # -- stdio glue (same surface the sim backend offers) ---------------------------

    def add_stdout_sink(self, pid: int, sink: Callable[[str], None]) -> None:
        managed = self._get(pid)
        with managed.lock:
            managed.stdout_sinks.append(sink)

    def feed_stdin(self, pid: int, line: str) -> None:
        managed = self._get(pid)
        stdin = managed.popen.stdin
        if stdin is None or stdin.closed:
            raise errors.ProcessError(f"pid {pid} stdin unavailable")
        stdin.write(line + "\n")
        stdin.flush()

    def close_stdin(self, pid: int) -> None:
        managed = self._get(pid)
        if managed.popen.stdin is not None and not managed.popen.stdin.closed:
            managed.popen.stdin.close()
