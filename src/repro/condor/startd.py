"""condor_startd: represents one execution machine in the pool.

"The condor_startd runs on each machine … on which you wish to be able
to execute jobs.  When the condor_startd is ready to execute a Condor
job, it spawns the condor_starter" (Section 4.1).

The startd also starts the host's LASS at boot — the paper assigns LASS
startup to the RM ("The LASS's are started by the RM", Section 2.1) and
the startd is the RM's per-host presence.

Wire protocol (schedd -> startd):

* ``claim_request {claim_id, job_ad}`` — the claiming protocol; the
  startd re-verifies willingness and may refuse.
* ``activate_claim {claim_id, job, rank, shadow, stdio, disseminate}`` —
  spawn the starter of the job's ``rank`` on this machine, answered once
  the starter has named its rank to the shadow;
  ``disseminate`` holds the pool-global attributes the schedd read from
  its CASS, for the rank's launch record.
* ``kill_job {claim_id}`` — kill the claim's rank; a kill that comes
  before the activation is kept, and the starter then creates nothing.
* ``release_claim {claim_id}`` — the claim's starter ends with it.
"""

from __future__ import annotations

from typing import Callable

from repro import errors
from repro.attrspace.server import AttributeSpaceServer, ServerRole
from repro.condor.classad import ClassAd, matches
from repro.condor.starter import Starter
from repro.condor.submit import SubmitDescription, ToolDaemonSpec
from repro.condor.tools import ToolRegistry
from repro.net.address import Endpoint, parse_endpoint
from repro.sim.host import SimHost
from repro.transport.base import Channel, Transport
from repro.util.log import TraceRecorder, get_logger, record_event
from repro.util.sync import tracked_lock

_log = get_logger("condor.startd")


def default_machine_ad(host: SimHost, *, memory: int = 1024, cpus: int = 1) -> ClassAd:
    """The machine ad a startd advertises (the resource offer)."""
    return ClassAd(
        kind="machine",
        attrs={
            "Name": host.name,
            "Machine": host.name,
            "Memory": memory,
            "Cpus": cpus,
            "Arch": "X86_64",
            "OpSys": "LINUX",
            "State": "Unclaimed",
        },
    )


class Startd:
    """One startd daemon on one simulated host."""

    def __init__(
        self,
        transport: Transport,
        host: SimHost,
        tool_registry: ToolRegistry,
        *,
        machine_ad: ClassAd | None = None,
        trace: TraceRecorder | None = None,
        proxy: Endpoint | None = None,
    ):
        self._transport = transport
        self.host = host
        self._tools = tool_registry
        self._trace = trace
        self._proxy = proxy
        self.ad = machine_ad if machine_ad is not None else default_machine_ad(host)
        # The RM starts the LASS on each execution host (Section 2.1).
        # Like the schedd and the CASS it runs on wall time: a tool's
        # blocking-get timeout measures real patience, and the virtual
        # clock, which advances only with the simulated processes, is
        # the application's.
        self.lass = AttributeSpaceServer(
            transport, host.name, role=ServerRole.LASS,
            name=f"lass@{host.name}", local_only=True,
        )
        self._listener = transport.listen(host.name)
        self._claims: dict[str, dict] = {}  # claim_id -> {"job_ad", "starter", "killed"}
        self._lock = tracked_lock("condor.startd.Startd._lock")
        # tdp-guard: _stopped -> volatile
        # (monotonic stop latch: set by the first stop() under _lock,
        # where on_exit reads it)
        self._stopped = False
        #: called once, at the first stop(): the master's exit notice
        self._exit_callbacks: list[Callable[[], None]] = []
        self._loop = self._listener.serve_loop(
            on_channel=lambda channel: channel,
            on_message=self._serve,
            on_closed=lambda channel: None,
            name=f"startd-{host.name}",
        )

    @property
    def endpoint(self) -> Endpoint:
        return self._listener.endpoint

    def stop(self) -> None:
        with self._lock:
            self._stopped = True
            callbacks, self._exit_callbacks = self._exit_callbacks, []
        self._loop.stop()  # closes the schedd connections it serves
        self._listener.close()
        self.lass.stop()
        for callback in callbacks:
            callback()

    def on_exit(self, callback: Callable[[], None]) -> None:
        """Call ``callback()`` once this daemon has stopped (at once if it
        has): the exit notice a daemon's parent gets."""
        with self._lock:
            if not self._stopped:
                self._exit_callbacks.append(callback)
                return
        callback()

    def _record(self, action: str, **details) -> None:
        record_event(self._trace, f"startd@{self.host.name}", action, **details)

    @property
    def claimed(self) -> bool:
        with self._lock:
            return bool(self._claims)

    def starters(self) -> list[Starter]:
        """The starters of the live claims: a starter leaves with its claim."""
        with self._lock:
            return [
                claim["starter"]
                for claim in self._claims.values()
                if claim["starter"] is not None
            ]

    # -- RPC server -------------------------------------------------------------

    def _serve(self, channel: Channel, request: dict) -> None:
        """One request, answered on the serving thread.

        Suspend, resume, kill and attach wait on the host's LASS (the
        starter's control service publishes the new process state
        there), an activation on its starter's dial to the shadow;
        neither ever calls this startd, so the wait cannot close a
        cycle.  Nobody starves behind it either: the startd's one peer
        is the schedd, whose ``_PeerChannel`` sends it one request at a
        time anyway.
        """
        op = request.get("op")
        try:
            if op == "claim_request":
                reply = self._claim_request(request)
            elif op == "activate_claim":
                reply = self._activate_claim(request)
            elif op == "release_claim":
                reply = self._release_claim(request)
            elif op == "suspend_job":
                reply = self._suspend_resume(request, suspend=True)
            elif op == "resume_job":
                reply = self._suspend_resume(request, suspend=False)
            elif op == "kill_job":
                reply = self._kill_job(request)
            elif op == "attach_tool":
                reply = self._attach_tool(request)
            else:
                reply = {"ok": False, "error": f"unknown op {op!r}"}
            channel.send(reply)
        except errors.TdpError:
            channel.close()  # as if the connection was lost: the schedd re-dials

    # -- claiming protocol ---------------------------------------------------------

    def _claim_request(self, request: dict) -> dict:
        claim_id = str(request.get("claim_id"))
        job_ad = ClassAd(kind="job", attrs=dict(request.get("job_ad", {})))
        # "either party may decide not to complete the allocation": the
        # startd re-verifies the match before accepting.
        if not matches(job_ad, self.ad):
            self._record("claim_refused", claim=claim_id)
            return {"ok": False, "error": "requirements no longer satisfied"}
        with self._lock:
            if self._claims:
                self._record("claim_refused", claim=claim_id, reason="busy")
                return {"ok": False, "error": "machine already claimed"}
            self._claims[claim_id] = {"job_ad": job_ad, "starter": None, "killed": False}
        self.ad.attrs["State"] = "Claimed"
        self._record("claim_accepted", claim=claim_id, job=job_ad.get("JobId"))
        return {"ok": True}

    def _activate_claim(self, request: dict) -> dict:
        claim_id = str(request.get("claim_id"))
        with self._lock:
            claim = self._claims.get(claim_id)
        if claim is None:
            return {"ok": False, "error": f"no such claim {claim_id!r}"}
        try:
            description = _description_from_wire(dict(request.get("job", {})))
            shadow = parse_endpoint(str(request["shadow"]))
            stdio = (
                parse_endpoint(str(request["stdio"]))
                if request.get("stdio")
                else None
            )
        except (KeyError, errors.TdpError) as e:
            return {"ok": False, "error": f"malformed activation: {e}"}
        starter = Starter(
            transport=self._transport,
            host=self.host,
            lass_endpoint=self.lass.endpoint,
            job_id=str(request.get("job_id", claim_id)),
            description=description,
            shadow_endpoint=shadow,
            stdio_endpoint=stdio,
            tool_registry=self._tools,
            trace=self._trace,
            proxy=self._proxy,
            submit_host=str(request.get("submit_host", "")) or None,
            rank=int(request.get("rank", 0)),
            disseminated=_pairs(request.get("disseminate")),
        )
        # Requests are served one at a time: no kill comes in between.
        if claim["killed"]:
            starter.kill_job()
        try:
            starter.start()
        except errors.TdpError as e:
            return {"ok": False, "error": str(e)}
        with self._lock:
            claim["starter"] = starter
        self._record("spawn_starter", claim=claim_id, job=request.get("job_id"))
        return {"ok": True}

    def _suspend_resume(self, request: dict, *, suspend: bool) -> dict:
        claim_id = str(request.get("claim_id"))
        with self._lock:
            claim = self._claims.get(claim_id)
        starter = claim.get("starter") if claim else None
        if starter is None:
            return {"ok": False, "error": f"no active starter for {claim_id!r}"}
        ok = starter.suspend_job() if suspend else starter.resume_job()
        if not ok:
            return {"ok": False, "error": "job not in a controllable state"}
        return {"ok": True}

    def _attach_tool(self, request: dict) -> dict:
        claim_id = str(request.get("claim_id"))
        with self._lock:
            claim = self._claims.get(claim_id)
        starter = claim.get("starter") if claim else None
        if starter is None:
            return {"ok": False, "error": f"no active starter for {claim_id!r}"}
        ok = starter.attach_tool(
            str(request.get("cmd", "")),
            str(request.get("args", "")),
            request.get("output"),
            _pairs(request.get("disseminate")),
        )
        if not ok:
            return {"ok": False, "error": "could not attach tool (already monitored?)"}
        return {"ok": True}

    def _kill_job(self, request: dict) -> dict:
        claim_id = str(request.get("claim_id"))
        with self._lock:
            claim = self._claims.get(claim_id)
            if claim is None:
                return {"ok": False, "error": f"no such claim {claim_id!r}"}
            claim["killed"] = True
            starter = claim["starter"]
        if starter is not None:
            starter.kill_job()
        self._record("job_killed", claim=claim_id)
        return {"ok": True}

    def _release_claim(self, request: dict) -> dict:
        claim_id = str(request.get("claim_id"))
        with self._lock:
            claim = self._claims.pop(claim_id, None)
            busy = bool(self._claims)
        if claim is not None and claim["starter"] is not None:
            claim["starter"].kill_job()  # the starter ends with its claim
        if not busy:
            self.ad.attrs["State"] = "Unclaimed"
        self._record("claim_released", claim=claim_id)
        return {"ok": True}


def _pairs(wire) -> list[tuple[str, str]]:
    """Disseminated attributes from their wire form, ``[[name, value], ...]``."""
    return [(str(name), str(value)) for name, value in wire or []]


def _description_from_wire(wire: dict) -> SubmitDescription:
    """Rebuild a SubmitDescription from its activation-message form."""
    tool = None
    if wire.get("tool_daemon"):
        t = wire["tool_daemon"]
        tool = ToolDaemonSpec(
            cmd=str(t["cmd"]),
            args_template=str(t.get("args_template", "")),
            output=t.get("output"),
            error=t.get("error"),
            input=t.get("input"),
            transfer_input=list(t.get("transfer_input", [])),
        )
    return SubmitDescription(
        universe=str(wire.get("universe", "vanilla")),
        executable=str(wire["executable"]),
        arguments=list(wire.get("arguments", [])),
        input=wire.get("input"),
        output=wire.get("output"),
        error=wire.get("error"),
        environment=dict(wire.get("environment", {})),
        machine_count=int(wire.get("machine_count", 1)),
        transfer_input_files=list(wire.get("transfer_input_files", [])),
        transfer_output_files=list(wire.get("transfer_output_files", [])),
        suspend_job_at_exec=bool(wire.get("suspend_job_at_exec", False)),
        tool_daemon=tool,
    )


def description_to_wire(desc: SubmitDescription) -> dict:
    """Serialize a SubmitDescription for the activation message."""
    wire: dict = {
        "universe": desc.universe,
        "executable": desc.executable,
        "arguments": desc.arguments,
        "input": desc.input,
        "output": desc.output,
        "error": desc.error,
        "environment": desc.environment,
        "machine_count": desc.machine_count,
        "transfer_input_files": desc.transfer_input_files,
        "transfer_output_files": desc.transfer_output_files,
        "suspend_job_at_exec": desc.suspend_job_at_exec,
    }
    if desc.tool_daemon is not None:
        t = desc.tool_daemon
        wire["tool_daemon"] = {
            "cmd": t.cmd,
            "args_template": t.args_template,
            "output": t.output,
            "error": t.error,
            "input": t.input,
            "transfer_input": t.transfer_input,
        }
    return wire
