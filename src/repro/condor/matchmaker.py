"""The matchmaker: pairs resource requests with resource offers.

Figure 4's ``match_maker``.  Startds advertise machine ads; schedds send
negotiation requests for idle jobs.  A match reserves the machine(s)
provisionally; the claiming protocol (schedd -> startd) then either
completes the allocation or releases the reservation — "either party may
decide not to complete the allocation" (Section 4.1).

Runs as a small RPC server on the transport so the daemon interaction
trace of Figure 4 is observable on the wire.
"""

from __future__ import annotations

import threading

from repro import errors
from repro.condor.classad import ClassAd, matches, rank
from repro.net.address import Endpoint
from repro.transport.base import Channel, Transport
from repro.util.log import TraceRecorder, get_logger, record_event

_log = get_logger("condor.matchmaker")


class Matchmaker:
    """Central matchmaking daemon (one per pool)."""

    def __init__(
        self,
        transport: Transport,
        host: str,
        *,
        trace: TraceRecorder | None = None,
    ):
        self._transport = transport
        self.host = host
        self._trace = trace
        self._machines: dict[str, dict] = {}  # name -> {ad, startd, reserved}
        self._lock = threading.Lock()
        self._listener = transport.listen(host)
        self._loop = self._listener.serve_loop(
            on_channel=lambda channel: channel,
            on_message=self._serve,
            on_closed=lambda channel: None,
            name=f"matchmaker-{host}",
        )

    @property
    def endpoint(self) -> Endpoint:
        return self._listener.endpoint

    def stop(self) -> None:
        self._loop.stop()
        self._listener.close()

    def _record(self, action: str, **details) -> None:
        record_event(self._trace, "matchmaker", action, **details)

    # -- RPC server ----------------------------------------------------------

    def _serve(self, channel: Channel, request: dict) -> None:
        """One request, answered on the serving thread: every operation
        is a table update under ``_lock``, nothing waits on a peer."""
        op = request.get("op")
        try:
            if op == "advertise_machine":
                reply = self._advertise(request)
            elif op == "negotiate":
                reply = self._negotiate(request)
            elif op == "release":
                reply = self._release(request)
            elif op == "invalidate":
                reply = self._invalidate(request)
            else:
                reply = {"ok": False, "error": f"unknown op {op!r}"}
        except errors.MatchmakingError as e:  # e.g. a job ad's bad Requirements
            reply = {"ok": False, "error": str(e)}
        try:
            channel.send(reply)
        except errors.TdpError:
            channel.close()  # the peer is gone

    # -- operations -------------------------------------------------------------

    def _advertise(self, request: dict) -> dict:
        ad = ClassAd(kind="machine", attrs=dict(request.get("ad", {})))
        name = str(ad.get("Name"))
        startd = str(request.get("startd"))
        if not name or name == "None":
            return {"ok": False, "error": "machine ad missing Name"}
        with self._lock:
            self._machines[name] = {"ad": ad, "startd": startd, "reserved": False}
        self._record("advertise_machine", machine=name)
        return {"ok": True}

    def _invalidate(self, request: dict) -> dict:
        name = str(request.get("machine"))
        with self._lock:
            existed = self._machines.pop(name, None) is not None
        return {"ok": True, "existed": existed}

    def _negotiate(self, request: dict) -> dict:
        """Find the best N unreserved machines for a job ad."""
        job = ClassAd(kind="job", attrs=dict(request.get("job_ad", {})))
        wanted = int(request.get("count", 1))
        self._record("negotiate", job=job.get("JobId"), count=wanted)
        with self._lock:
            candidates = [
                (name, entry)
                for name, entry in self._machines.items()
                if not entry["reserved"] and matches(job, entry["ad"])
            ]
            # Order by the job's Rank of the machine, then by name for
            # determinism.
            candidates.sort(key=lambda item: (-rank(job, item[1]["ad"]), item[0]))
            if len(candidates) < wanted:
                self._record(
                    "negotiate_failed", job=job.get("JobId"),
                    available=len(candidates), wanted=wanted,
                )
                return {
                    "ok": False,
                    "error": (
                        f"only {len(candidates)} matching machines "
                        f"(need {wanted})"
                    ),
                }
            chosen = candidates[:wanted]
            for _name, entry in chosen:
                entry["reserved"] = True
        result = [
            {"machine": name, "startd": entry["startd"]}
            for name, entry in chosen
        ]
        self._record(
            "match_found",
            job=job.get("JobId"),
            machines=",".join(name for name, _ in chosen),
        )
        return {"ok": True, "matches": result}

    def _release(self, request: dict) -> dict:
        """Release a reservation (claim declined or job finished)."""
        name = str(request.get("machine"))
        with self._lock:
            entry = self._machines.get(name)
            if entry is not None:
                entry["reserved"] = False
        self._record("release", machine=name)
        return {"ok": True}

    # -- introspection -----------------------------------------------------------

    def machine_names(self) -> list[str]:
        with self._lock:
            return sorted(self._machines)

    def reserved_count(self) -> int:
        with self._lock:
            return sum(1 for e in self._machines.values() if e["reserved"])
