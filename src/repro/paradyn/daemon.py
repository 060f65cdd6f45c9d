"""paradynd: the Paradyn tool daemon (the pilot's RT back-end).

One paradynd runs per application process.  Under TDP (the ``-a%pid``
argument marks it, Section 4.3) its launch sequence is exactly Figure 6
steps 3–4:

1. ``tdp_init`` against the host's LASS, in the job's context;
2. blocking ``tdp_get("pid")`` — parked until the starter's ``tdp_put``;
3. ``tdp_subscribe`` to its status, ``tdp_attach`` (via the RM, which owns control);
4. initialization while the application is stopped pre-``main``: "load"
   the runtime library, parse the executable's symbols, insert base
   instrumentation, connect to the front-end;
5. ``tdp_continue_process`` — run the application to the start of
   ``main`` (a breakpoint), report, then (on the user's run command, or
   immediately with ``auto_run``) continue for real;
6. sample enabled metrics periodically and stream them to the
   front-end until the application exits.

Its presence (``presence.paradynd/<job>``, ephemeral) rides in the
batch that reads the launch record, before the attach: the RM learns of
paradynd's death when the server removes it with the session.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro import errors
from repro.attrspace.notify import Notification
from repro.condor.tools import ThreadToolHandle, ToolLaunchContext
from repro.net.address import Endpoint, parse_endpoint
from repro.paradyn.dyninst import DyninstEngine
from repro.paradyn.metrics import Metric, MetricCollector
from repro.tdp.api import (
    tdp_attach,
    tdp_continue_process,
    tdp_exit,
    tdp_get,
    tdp_init,
    tdp_kill,
    tdp_subscribe,
)
from repro.tdp.handle import Role, TdpHandle
from repro.tdp.proxycfg import frontend_endpoint
from repro.tdp.wellknown import Attr, ProcStatus
from repro.transport.base import Channel
from repro.transport.proxy import connect_maybe_proxied
from repro.util.log import get_logger, record_event

_log = get_logger("paradyn.daemon")


@dataclass
class ParadyndArgs:
    """Parsed paradynd command line (the Fig. 5B argument set)."""

    flavor: str = "unix"          # -z<flavor>
    log_level: int = 0            # -l<n>
    frontend_host: str | None = None  # -m<host>
    port1: int | None = None      # -p<port>
    port2: int | None = None      # -P<port>
    app_ref: str | None = None    # -a<pid or %pid>
    extras: list[str] = field(default_factory=list)

    @property
    def tdp_mode(self) -> bool:
        """``-a%pid`` means: the pid comes from the attribute space."""
        return self.app_ref is not None and self.app_ref.startswith("%")

    @property
    def frontend_endpoint(self) -> Endpoint | None:
        if self.frontend_host and self.port1:
            return Endpoint(self.frontend_host, self.port1)
        return None


def parse_paradynd_args(args: list[str]) -> ParadyndArgs:
    """Parse the pilot's paradynd argument conventions."""
    parsed = ParadyndArgs()
    for arg in args:
        if arg.startswith("-z"):
            parsed.flavor = arg[2:]
        elif arg.startswith("-l"):
            try:
                parsed.log_level = int(arg[2:])
            except ValueError:
                raise errors.ToolError(f"bad log level argument {arg!r}") from None
        elif arg.startswith("-m"):
            parsed.frontend_host = arg[2:]
        elif arg.startswith("-p"):
            parsed.port1 = int(arg[2:])
        elif arg.startswith("-P"):
            parsed.port2 = int(arg[2:])
        elif arg.startswith("-a"):
            parsed.app_ref = arg[2:]
        else:
            parsed.extras.append(arg)
    return parsed


class ParadynDaemon:
    """One paradynd instance (runs on a tool-registry thread)."""

    SAMPLE_INTERVAL = 0.01  # wall seconds between sample batches
    #: tries at the final continue before it is reported lost
    CONTINUE_ATTEMPTS = 3
    #: how long a refused continue waits for the published status to
    #: read stopped before it is tried again
    CONTINUE_RETRY_WAIT = 1.0

    def __init__(
        self,
        ctx: ToolLaunchContext,
        *,
        auto_run: bool = True,
        base_metrics: tuple[Metric, ...] = (
            Metric.PROC_CPU,
            Metric.PROC_WALL,
            Metric.CPU_UTILIZATION,
        ),
    ):
        self.ctx = ctx
        self.args = parse_paradynd_args(ctx.args)
        self.auto_run = auto_run
        self.base_metrics = base_metrics
        # Startup-sequenced publishes: the tool main thread writes each
        # once during initialization; the front end's commands are only
        # delivered after frontend/handle/app_pid are in place.
        # tdp-guard: handle -> volatile
        self.handle: TdpHandle | None = None
        self.engine: DyninstEngine | None = None
        self.collector: MetricCollector | None = None
        # tdp-guard: frontend -> volatile
        self.frontend: Channel | None = None
        # tdp-guard: app_pid -> volatile
        self.app_pid: int | None = None
        self.symbols: list[str] = []
        # tdp-guard: _status -> volatile
        # (proc.<pid>.status as last notified, on the tool thread that reads it)
        self._status = ProcStatus.RUNNING
        self.run_command = threading.Event()
        self._enable_requests: list[tuple[Metric, str | None]] = []
        self._kill_requested = False
        self._req_lock = threading.Lock()
        self.samples_sent = 0

    # -- trace/report helpers ---------------------------------------------------

    def _record(self, action: str, **details) -> None:
        record_event(self.ctx.trace, "paradynd", action, **details)
        self.ctx.output_sink(f"{action} {details}" if details else action)

    def _send_frontend(self, message: dict) -> None:
        if self.frontend is None:
            return
        try:
            self.frontend.send(message)
        except errors.TdpError:
            self.frontend = None

    # -- the main flow -------------------------------------------------------------

    def run(self, stop_event: threading.Event) -> None:
        ctx = self.ctx
        if not self.args.tdp_mode:
            raise errors.ToolError(
                "paradynd launched without -a%pid: no application reference "
                "and no TDP framework to find one in"
            )
        # Step 3 (Fig. 6): join the TDP framework and block for the pid.
        self._record("tdp_init", context=ctx.context)
        handle = tdp_init(
            ctx.transport,
            ctx.lass_endpoint,
            member=f"paradynd/{ctx.job_id}",
            role=Role.RT,
            context=ctx.context,
            src_host=ctx.host,
        )
        self.handle = handle
        try:
            self._run_inner(handle, stop_event)
        finally:
            if self.collector is not None:
                try:
                    self.collector.disable_all()
                except errors.TdpError:
                    pass
            if self.frontend is not None:
                self._send_frontend({"op": "bye"})
                self.frontend.close()
            self._record("tdp_exit")
            tdp_exit(handle)

    def _run_inner(self, handle: TdpHandle, stop_event: threading.Event) -> None:
        ctx = self.ctx
        self._record("tdp_get", attribute=Attr.PID, blocking=True)
        pid = int(tdp_get(handle, Attr.PID, timeout=60.0))
        self.app_pid = pid
        self._record("tdp_get_returned", attribute=Attr.PID, value=pid)
        executable, proxy = self._announce(handle)
        # From the attach on, the RM's word on the process is pushed to us.
        tdp_subscribe(handle, Attr.proc_status(pid), self._on_status)

        # Step 3 continued: attach (the RM performs the stop).
        self._record("tdp_attach", pid=pid)
        tdp_attach(handle, pid)

        # Initialization while the application is stopped (Section 4.2):
        self._record("load_runtime_library", pid=pid)
        host = ctx.extras.get("sim_host")
        if host is None:
            raise errors.ToolError("paradynd needs the sim host for instrumentation")
        registry = host.cluster.registry
        try:
            self.symbols = registry.symbols(executable)
        except KeyError:
            self.symbols = ["main"]
        self._record("parse_symbols", executable=executable, functions=len(self.symbols))

        process = host.get_process(pid)
        self.engine = DyninstEngine(process)
        self.collector = MetricCollector(self.engine, ctx.host)
        for metric in self.base_metrics:
            self.collector.enable(metric)
        # Create mode: the application is stopped pre-main, so we can run
        # it *to* main and stop there (Figure 3A).  Attach mode: it was
        # already executing — "stopped at some unknown point" (Figure
        # 3B) — so there is no pre-main window and no run-to-main step.
        attached_mid_run = process.started
        main_bp = (
            None if attached_mid_run
            else self.engine.insert_breakpoint("main", "entry")
        )

        # Connect to the front-end (args endpoint, else attribute space).
        self._connect_frontend(handle, proxy)
        self._send_frontend(
            {
                "op": "hello",
                "job": ctx.job_id,
                "host": ctx.host,
                "pid": pid,
                "executable": executable,
                "functions": self.symbols,
            }
        )

        # Step 3 end: run the application until the beginning of main
        # (create mode); in attach mode it resumes from the attach stop.
        if main_bp is not None:
            self._record("tdp_continue_process", pid=pid, until="main")
            tdp_continue_process(handle, pid)
            main_bp.wait_hit(timeout=30.0)
            self.engine.remove(main_bp)
            self._send_frontend({"op": "app_state", "state": "at_main"})
        else:
            self._record("attached_mid_run", pid=pid, cpu=process.cpu_time)
            self._send_frontend({"op": "app_state", "state": "attached_running"})

        # Step 4: the user (front-end) is in control; honor the run command.
        if not self.auto_run:
            # The pilot's interactive window: the application is stopped
            # at main; the front-end may set up instrumentation before
            # issuing the run command.  A stop or a kill ends the window
            # as well; the kill is carried out here, and the continue
            # after it is refused.
            self.run_command.wait()
            if stop_event.is_set():
                return
            self._apply_commands()
        self._record("tdp_continue_process", pid=pid, until="completion")
        self._continue_to_completion(handle, pid, stop_event)
        self._sample_until_exit(handle, stop_event)

    def _sample_until_exit(self, handle: TdpHandle, stop_event: threading.Event) -> None:
        """Sample each period, servicing events between, until the exit."""
        while not stop_event.is_set():
            handle.service_events()
            self._apply_commands()
            self._emit_samples()
            if ProcStatus.is_exited(self._status):
                code = ProcStatus.exit_code(self._status)
                self._emit_samples(final=True)
                self._send_frontend({"op": "app_exited", "code": code})
                self._record("app_exited", code=code)
                self._write_trace_file()
                return
            if not handle.poll(self.SAMPLE_INTERVAL) and handle.attrs.events.closed:
                return  # the space is gone: no exit will be published

    def _announce(self, handle: TdpHandle) -> tuple[str, Endpoint | None]:
        """Put this daemon's presence and read the executable's name and
        the RM's proxy (if it has one), in one frame: an RM publishes
        both no later than the ``pid`` that woke us."""
        reads = []
        try:
            with handle.attrs.batch() as batch:
                batch.put(
                    Attr.presence(f"paradynd/{self.ctx.job_id}"), self.ctx.host,
                    ephemeral=True,
                )
                reads = [
                    batch.try_get(Attr.EXECUTABLE_NAME),
                    batch.try_get(Attr.RM_PROXY),
                ]
        except errors.NoSuchAttributeError:
            pass  # the batch raises its first miss; the hits are resolved
        name, proxy = reads
        return (
            # an RM that publishes the pid ahead of its companions
            name.value if name.ok
            else tdp_get(handle, Attr.EXECUTABLE_NAME, timeout=10.0),
            parse_endpoint(proxy.value) if proxy.ok else None,
        )

    def _continue_to_completion(
        self, handle: TdpHandle, pid: int, stop_event: threading.Event
    ) -> None:
        """The final continue, with a defined outcome when the RM refuses.

        A continue can be refused because the application exited (or was
        killed) under us — the sampling loop reports that — or because a
        stop is still landing, and then nobody else will resume the
        process: wait for the published status to read stopped and ask
        again.  Still refused after ``CONTINUE_ATTEMPTS``, the front-end
        is told so instead of being told ``running``.
        """
        error = ""
        for _ in range(self.CONTINUE_ATTEMPTS):
            try:
                tdp_continue_process(handle, pid)
            except errors.ProcessError as e:
                error = str(e)
                self._record("continue_refused", pid=pid, error=error)
            else:
                self._send_frontend({"op": "app_state", "state": "running"})
                return
            if not self._await_stopped(handle, stop_event):
                return
        self._record("continue_lost", pid=pid, error=error)
        _log.warning(
            "paradynd %s: continue of pid %s lost: %s", self.ctx.job_id, pid, error
        )
        self._send_frontend(
            {"op": "error", "error": f"continue of pid {pid} refused: {error}"}
        )

    def _await_stopped(self, handle: TdpHandle, stop_event: threading.Event) -> bool:
        """Wait, at most ``CONTINUE_RETRY_WAIT``, for the published status
        to read stopped.  False when there is nothing left to continue:
        the application exited, the space is gone, or we are stopping."""
        deadline = time.monotonic() + self.CONTINUE_RETRY_WAIT
        while True:
            handle.service_events()
            if ProcStatus.is_exited(self._status) or stop_event.is_set():
                return False
            if self._status in (ProcStatus.STOPPED, ProcStatus.CREATED):
                return True
            if not handle.poll(deadline - time.monotonic()):
                return not handle.attrs.events.closed

    def wake(self) -> None:
        """On a stop, end the at-main window, which waits for ``run_command``."""
        self.run_command.set()

    def _on_status(self, notification: Notification, _arg) -> None:
        """Keep the latest status; an exit stays if a late ``running`` lands on it."""
        if notification.value is not None and not ProcStatus.is_exited(self._status):
            self._status = notification.value

    # -- front-end link ---------------------------------------------------------------

    def _connect_frontend(self, handle: TdpHandle, proxy: Endpoint | None) -> None:
        ctx = self.ctx
        try:
            # The args endpoint, else the one the attribute space names.
            endpoint = self.args.frontend_endpoint or frontend_endpoint(
                handle, timeout=5.0
            )
            self.frontend = connect_maybe_proxied(
                ctx.transport, ctx.host, endpoint, proxy, timeout=10.0
            )
        except errors.TdpError as e:
            # Standalone operation: keep measuring even without a front-end.
            _log.warning("paradynd %s: no front-end (%s)", self.ctx.job_id, e)
            self.frontend = None
            return
        self._record("frontend_connected", endpoint=str(self.frontend.remote_host))
        self.frontend.deliver(
            self._on_command, lambda: None, name=f"paradynd-cmd-{self.ctx.job_id}"
        )

    def _on_command(self, message: dict) -> None:
        """The front end's channel sink, on the front end's sending
        thread: it only records the command.  A kill needs an RPC, so
        the sample loop (or the end of the at-main window) carries it out."""
        op = message.get("op")
        if op == "cmd_run":
            self.run_command.set()
        elif op == "cmd_enable_metric":
            try:
                metric = Metric(str(message.get("metric")))
            except ValueError:
                return  # never raise into the sender
            with self._req_lock:
                self._enable_requests.append((metric, message.get("function")))
        elif op == "cmd_kill":
            with self._req_lock:
                self._kill_requested = True
            self.run_command.set()  # a kill ends the at-main window too
            if self.handle is not None:
                self.handle.attrs.wake()  # the sample loop's poll

    def _apply_commands(self) -> None:
        with self._req_lock:
            requests, self._enable_requests = self._enable_requests, []
            kill, self._kill_requested = self._kill_requested, False
        if kill and self.handle is not None and self.app_pid is not None:
            try:
                tdp_kill(self.handle, self.app_pid)
            except errors.TdpError as e:
                self._send_frontend({"op": "error", "error": str(e)})
        assert self.collector is not None
        for metric, function in requests:
            try:
                self.collector.enable(metric, function)
                self._record("enable_metric", metric=metric.value, function=function)
            except errors.TdpError as e:
                self._send_frontend({"op": "error", "error": str(e)})

    def _emit_samples(self, final: bool = False) -> None:
        assert self.collector is not None
        samples = self.collector.sample_all()
        for sample in samples:
            self.samples_sent += 1
            self._send_frontend(
                {
                    "op": "sample",
                    "metric": sample.metric,
                    "focus": sample.focus,
                    "value": sample.value,
                    "time": sample.time,
                    "final": final,
                }
            )
        # Publish the whole sampling pass to the attribute space in one
        # batched frame, so other TDP participants see live data without
        # per-sample RPCs.
        if self.handle is None:
            return
        items: list[tuple[str, str, bool]] = [
            (Attr.metric_sample(s.metric, s.focus), f"{s.value:.6f}", True)
            for s in samples
        ]
        try:
            self.handle.attrs.put_many(items)
        except errors.TdpError:
            pass  # space gone: its closed event queue ends the loop

    def _write_trace_file(self) -> None:
        """Leave a summary data file behind for TDP's stage-out path."""
        host = self.ctx.extras.get("sim_host")
        if host is None or self.collector is None:
            return
        lines = [
            f"{s.metric} {s.focus} {s.value:.6f}"
            for s in self.collector.sample_all()
        ]
        host.filesystem[f"paradyn.{self.ctx.job_id}.trace"] = "\n".join(lines) + "\n"


def launch_paradynd(ctx: ToolLaunchContext, **daemon_kwargs) -> ThreadToolHandle:
    """ToolRegistry launcher for ``paradynd`` (register under that name)."""
    return ThreadToolHandle(f"paradynd-{ctx.job_id}", ParadynDaemon(ctx, **daemon_kwargs))
