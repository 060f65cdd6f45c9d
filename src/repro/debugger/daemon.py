"""tdb: a batch debugger daemon speaking TDP.

Arguments (gdb-batch-flavored):

* ``-a%pid`` — TDP mode marker (required, as for paradynd);
* ``-b<function>`` — set a breakpoint (repeatable);
* ``-x<n>`` — resume after at most n hits per breakpoint (default 1).

At each breakpoint hit the daemon records the stop site and the
application's current stack (what a user would inspect), then continues
— a scriptable debugging session under the batch system, which is
exactly the kind of tool the paper wants deployable "in each RM
environment that supports TDP" without porting work.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro import errors
from repro.condor.tools import ThreadToolHandle, ToolLaunchContext, ToolRegistry
from repro.paradyn.dyninst import DyninstEngine
from repro.sim.process import ProcessState
from repro.tdp.api import (
    tdp_attach,
    tdp_continue_process,
    tdp_exit,
    tdp_get,
    tdp_init,
    tdp_wait_exit,
)
from repro.tdp.handle import Role, TdpHandle
from repro.tdp.wellknown import Attr
from repro.util.log import get_logger, record_event

_log = get_logger("debugger.daemon")


@dataclass
class BreakpointReport:
    """One observed stop at a user breakpoint."""

    function: str
    hit_number: int
    stack: list[str]
    cpu_time: float


@dataclass
class TdbArgs:
    breakpoints: list[str] = field(default_factory=list)
    max_hits: int = 1
    app_ref: str | None = None

    @property
    def tdp_mode(self) -> bool:
        return self.app_ref is not None and self.app_ref.startswith("%")


def parse_tdb_args(args: list[str]) -> TdbArgs:
    parsed = TdbArgs()
    for arg in args:
        if arg.startswith("-b"):
            parsed.breakpoints.append(arg[2:])
        elif arg.startswith("-x"):
            try:
                parsed.max_hits = int(arg[2:])
            except ValueError:
                raise errors.ToolError(f"bad -x argument {arg!r}") from None
        elif arg.startswith("-a"):
            parsed.app_ref = arg[2:]
        else:
            raise errors.ToolError(f"tdb: unknown argument {arg!r}")
    if parsed.max_hits < 1:
        raise errors.ToolError("-x must be >= 1")
    return parsed


class DebuggerDaemon:
    """One tdb instance debugging one application process."""

    def __init__(self, ctx: ToolLaunchContext):
        self.ctx = ctx
        self.args = parse_tdb_args(ctx.args)
        self.reports: list[BreakpointReport] = []
        self.app_exit_code: int | None = None
        # tdp-guard: handle -> volatile
        self.handle: TdpHandle | None = None

    def _log_line(self, text: str) -> None:
        self.ctx.output_sink(text)
        record_event(self.ctx.trace, "tdb", "log", text=text)

    def run(self, stop_event: threading.Event) -> None:
        ctx = self.ctx
        if not self.args.tdp_mode:
            raise errors.ToolError("tdb requires -a%pid (TDP mode)")
        handle = tdp_init(
            ctx.transport,
            ctx.lass_endpoint,
            member=f"tdb/{ctx.job_id}",
            role=Role.RT,
            context=ctx.context,
            src_host=ctx.host,
        )
        self.handle = handle
        try:
            self._debug_session(handle, stop_event)
        finally:
            tdp_exit(handle)

    def wake(self) -> None:
        """On a stop, close the session: that ends tdb's wait for the exit."""
        if self.handle is not None:
            self.handle.close()

    def _debug_session(self, handle, stop_event: threading.Event) -> None:
        ctx = self.ctx
        pid = int(tdp_get(handle, Attr.PID, timeout=60.0))
        executable = tdp_get(handle, Attr.EXECUTABLE_NAME, timeout=10.0)
        self._log_line(f"tdb: attached target {executable} pid {pid}")
        tdp_attach(handle, pid)

        host = ctx.extras.get("sim_host")
        if host is None:
            raise errors.ToolError("tdb needs the sim host for breakpoints")
        process = host.get_process(pid)
        engine = DyninstEngine(process)

        # Set user breakpoints while the target is stopped.
        active = {}
        for function in self.args.breakpoints:
            active[function] = {
                "bp": engine.insert_breakpoint(function, "entry"),
                "hits": 0,
            }
            self._log_line(f"tdb: breakpoint at {function}")

        tdp_continue_process(handle, pid)

        # The debug loop: wait for stops, report, continue.
        while active and not stop_event.is_set():
            try:
                state = process.wait_for_state(
                    ProcessState.STOPPED, ProcessState.EXITED, timeout=30.0
                )
            except errors.TdpError:
                break
            if state is ProcessState.EXITED:
                break
            # Which breakpoint fired?  The innermost frame tells us.
            stack = process.stack()
            site = stack[-1] if stack else "?"
            entry = active.get(site)
            if entry is None:
                # Stopped for some other reason (e.g. RM pause): step over.
                tdp_continue_process(handle, pid)
                continue
            entry["hits"] += 1
            report = BreakpointReport(
                function=site,
                hit_number=entry["hits"],
                stack=list(stack),
                cpu_time=process.cpu_time,
            )
            self.reports.append(report)
            self._log_line(
                f"tdb: hit #{report.hit_number} at {site} "
                f"stack={'>'.join(report.stack)} cpu={report.cpu_time:.4f}"
            )
            if entry["hits"] >= self.args.max_hits:
                engine.remove(entry["bp"])
                del active[site]
                self._log_line(f"tdb: breakpoint at {site} cleared")
            tdp_continue_process(handle, pid)

        # Let the target run out; the RM publishes its exit code with its exit.
        try:
            self.app_exit_code = tdp_wait_exit(handle, pid)
        except errors.TdpError:
            return
        self._log_line(f"tdb: target exited with code {self.app_exit_code}")


def launch_tdb(ctx: ToolLaunchContext) -> ThreadToolHandle:
    """ToolRegistry launcher for tdb."""
    return ThreadToolHandle(f"tdb-{ctx.job_id}", DebuggerDaemon(ctx))


def register_tdb(registry: ToolRegistry, *, name: str = "tdb") -> ToolRegistry:
    """Register the debugger under its command name."""
    registry.register(name, launch_tdb)
    return registry
