"""The seven workloads: what each drives, times, and checks.

Load shape, all of them: closed loop, one generator thread, at most two
connections active inside a timed interval.  TDP daemons are callers
that wait for a reply, so the next operation is issued only after the
previous one completed.  Attribute-space workloads drive raw
``Channel.send/recv`` on ``TcpTransport`` (negotiated ``tdpb1`` codec),
not ``AttributeSpaceClient``: the client's reader thread would add a
third runnable thread and the numbers would measure the scheduler; the
client's cost is a per-layer metric instead (``layers.py``).

A workload is built once per subprocess (servers, pool, population);
each trial gets fresh connections where the workload has any.  Every
operation is checked — values read back equal what was put, notify
frames name the expected attribute in order, job exit codes are 0 —
and has a timeout; an operation that is wrong or late counts as failed.

The seed reaches a workload only as generated inputs (key order and
value bytes); the program under test never sees it.
"""

from __future__ import annotations

import collections
import random
import resource
import sys

from measure import clock

# Deep simulated call chains (see tests/conftest.py).
sys.setrecursionlimit(100_000)

from repro import errors  # noqa: E402
from repro.attrspace.lass import LassServer  # noqa: E402
from repro.attrspace.server import (  # noqa: E402
    OUTBOUND_QUEUE_LIMIT,
    AttributeSpaceServer,
    ServerRole,
)
from repro.condor.job import JobStatus  # noqa: E402
from repro.parador.run import ParadorScenario, monitored_submit_text  # noqa: E402
from repro.sim.process import ProcessState, StopReason  # noqa: E402
from repro.transport.tcp import TcpTransport  # noqa: E402

CONTEXT = "bench"
RPC_TIMEOUT = 5.0
PILOT_TIMEOUT = 10.0
GANG_TIMEOUT = 30.0

KEYS = 1024
VALUE_POOL = 4096
INF = float("inf")


class OpFailed(Exception):
    """An operation answered wrongly, was refused, or ran out of time."""


class Inputs:
    """Everything the seed decides: key order and value bytes."""

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.keys = [f"k{i:04d}" for i in range(KEYS)]
        rng.shuffle(self.keys)
        # 32-byte values; a pool, so the timed loop indexes and never
        # calls the generator
        self.values = [f"{rng.getrandbits(128):032x}" for _ in range(VALUE_POOL)]


class Trial:
    """Raw outcome of one trial; nothing is summarised here."""

    def __init__(self) -> None:
        self.samples_ms: list[float] = []
        self.ops = 0
        self.failed = 0
        self.elapsed = 0.0
        self.error: str | None = None

    def to_json(self) -> dict:
        return {
            "samples_ms": self.samples_ms,
            "ops": self.ops,
            "failed": self.failed,
            "elapsed_s": self.elapsed,
            "error": self.error,
        }


def attach(channel, member: str) -> None:
    reply = channel.request(
        {"op": "attach", "req": 0, "context": CONTEXT, "member": member},
        timeout=RPC_TIMEOUT,
    )
    if not reply.get("ok"):
        raise RuntimeError(f"attach failed: {reply}")
    if channel.codec != "tdpb1":
        raise RuntimeError(f"codec not negotiated: {channel.codec}")


def expect_ok(reply: dict, req: int) -> dict:
    if reply.get("reply_to") != req or not reply.get("ok"):
        raise OpFailed(f"request {req}: {reply}")
    return reply


class Workload:
    """Closed-loop base: ``op`` runs one timed operation and returns its
    latency in seconds, appending boundary stamps when tracing."""

    name = ""
    #: child span names between consecutive stamps of one traced op
    children: tuple[str, ...] = ()
    #: what one sample/operation is, for the record
    operation = ""
    #: operations in the discarded warm-up trial: about two seconds of
    #: load here, and a count (not a time) so that peak memory is read
    #: after the same work on every run
    warmup_ops = 0

    def __init__(self, inputs: Inputs, tiny: bool):
        self.inputs = inputs
        self.tiny = tiny
        self.req = 100
        self.count = 0

    def build(self) -> None: ...

    def open_trial(self) -> None: ...

    def close_trial(self) -> None: ...

    def teardown(self) -> None: ...

    def op(self, stamps: list[float] | None) -> float:
        raise NotImplementedError

    def run_trial(self, seconds: float, recorder, max_ops: float = INF) -> Trial:
        """Operations until ``seconds`` have passed or ``max_ops`` ran."""
        trial = Trial()
        samples = trial.samples_ms
        start = clock()
        deadline = start + seconds
        while clock() < deadline and trial.ops < max_ops:
            stamps = [] if recorder is not None else None
            trial.ops += 1
            try:
                samples.append(self.op(stamps) * 1e3)
            except (OpFailed, errors.TdpError) as e:
                # a late reply would answer the next request: end the
                # trial, the next one starts on fresh connections
                trial.failed += 1
                trial.error = f"{type(e).__name__}: {e}"
                break
            if stamps is not None:
                recorder.op(self.name + ".op", self.children, self.count, stamps)
            self.count += 1
        trial.elapsed = clock() - start
        return trial


# ---------------------------------------------------------------------------
# 1–2: the paper's launch paths (inmem transport, threaded serving core)
# ---------------------------------------------------------------------------


def fig5b_text(scenario, inputs: Inputs) -> str:
    """The paper's Figure 5B submit file for ``foo 3 0.05``."""
    return monitored_submit_text(
        "foo", "3 0.05", frontend_host=scenario.submit_host,
        port1=scenario.port1, port2=scenario.port2,
        output="out." + inputs.values[0][:8],
    )


class PilotLaunch(Workload):
    """FIG3/FIG6: submit a monitored job, time until the AP runs under
    tool control; the whole condor/tdp/sim/paradyn stack does the work
    and the codec almost none."""

    name = "pilot_launch"
    operation = "pool.submit_file(FIG5B) -> session.wait_state(running|exited)"
    children = ("condor.submit_file", "paradyn.wait_for_daemons",
                "paradyn.wait_state")
    hosts = ["node1", "node2"]
    warmup_ops = 150

    def build(self) -> None:
        self.scenario = ParadorScenario(execute_hosts=self.hosts)
        self.text = self.submit_text()

    def submit_text(self) -> str:
        return fig5b_text(self.scenario, self.inputs)

    def teardown(self) -> None:
        self.scenario.stop()

    def op(self, stamps):
        frontend = self.scenario.frontend
        seen = len(frontend.daemons())
        t0 = clock()
        if stamps is not None:
            stamps.append(t0)
        job = self.scenario.pool.submit_file(self.text)[0]
        if stamps is not None:
            stamps.append(clock())
        session = frontend.wait_for_daemons(seen + 1, timeout=PILOT_TIMEOUT)[-1]
        if stamps is not None:
            stamps.append(clock())
        session.wait_state("running", "exited", timeout=PILOT_TIMEOUT)
        t1 = clock()
        if stamps is not None:
            stamps.append(t1)
        # untimed: the job must finish cleanly and the tool must see it
        session.wait_state("exited", timeout=PILOT_TIMEOUT)
        status = job.wait_terminal(timeout=PILOT_TIMEOUT)
        if (status is not JobStatus.COMPLETED or job.exit_code != 0
                or session.exit_code != 0):
            raise OpFailed(f"job {job.job_id}: {status} exit={job.exit_code} "
                           f"tool saw {session.exit_code}")
        return t1 - t0


class MpiGang8(PilotLaunch):
    """§4.3: an 8-rank MPI-universe launch with a paradynd per rank;
    serial per-rank create + daemon boot dominates."""

    name = "mpi_gang8"
    operation = "submit MPI mpi_ring x8 -> frontend.wait_for_daemons(all 8)"
    children = ("condor.submit_file", "paradyn.wait_for_daemons")
    ranks = 8
    hosts = [f"node{i}" for i in range(ranks)]
    warmup_ops = 12
    #: launches whose job needed a lost continue re-issued
    lost_continues = 0

    def submit_text(self) -> str:
        s = self.scenario
        return (
            f"universe = MPI\nexecutable = mpi_ring\narguments = 1\n"
            f"machine_count = {self.ranks}\n"
            f"output = out.{self.inputs.values[0][:8]}\n"
            f"+SuspendJobAtExec = True\n"
            f'+ToolDaemonCmd = "paradynd"\n'
            f'+ToolDaemonArgs = "-zunix -l3 -m{s.submit_host} '
            f'-p{s.port1} -P{s.port2} -a%pid"\n'
            f"queue\n"
        )

    def op(self, stamps):
        frontend = self.scenario.frontend
        seen = len(frontend.daemons())
        t0 = clock()
        if stamps is not None:
            stamps.append(t0)
        job = self.scenario.pool.submit_file(self.text)[0]
        if stamps is not None:
            stamps.append(clock())
        sessions = frontend.wait_for_daemons(
            seen + self.ranks, timeout=GANG_TIMEOUT)[seen:]
        t1 = clock()
        if stamps is not None:
            stamps.append(t1)
        status = self.wait_finished(job, sessions)
        for session in sessions:
            session.wait_state("exited", timeout=GANG_TIMEOUT)
        if (status is not JobStatus.COMPLETED or job.exit_code != 0
                or len({(s.host, s.pid) for s in sessions}) != self.ranks
                or any(s.exit_code != 0 for s in sessions)):
            raise OpFailed(f"gang {job.job_id}: {status} exit={job.exit_code}")
        return t1 - t0

    def wait_finished(self, job, sessions):
        """Wait for the job to end, re-issuing a lost continue.

        About one launch in a hundred leaves a rank stopped at its
        ``main`` breakpoint for good: the breakpoint action signals the
        hit before it requests the stop (``paradyn/dyninst.py``), so a
        paradynd can issue its continue while the rank is still
        runnable, have it refused, and swallow the refusal
        (``paradyn/daemon.py``).  The ring then waits on that rank and
        the pool's eight machines stay claimed.  The launch that was
        timed did complete — all eight daemons attached — so the rank
        is resumed from here, the launch is counted in
        ``lost_continues``, and the run goes on; the bug is the
        program's to fix.
        """
        deadline = clock() + GANG_TIMEOUT
        nudged = False
        while True:
            try:
                status = job.wait_terminal(timeout=0.5)
                break
            except errors.GetTimeoutError:
                if clock() > deadline:
                    raise
            for session in sessions:
                proc = self.scenario.cluster.host(session.host).get_process(
                    session.pid)
                if (proc.state is ProcessState.STOPPED
                        and proc.stop_reason is StopReason.BREAKPOINT):
                    try:
                        proc.continue_process()
                    except errors.ProcessError:
                        continue  # its own daemon got there first
                    nudged = True
        self.lost_continues += nudged
        return status


# ---------------------------------------------------------------------------
# 3–4: one CASS on the selectors loop, raw channels
# ---------------------------------------------------------------------------


class RpcClosedTcp(Workload):
    """Smallest message, one round trip at a time: per-message cost
    (framing, loop hop, dispatch) is everything."""

    name = "rpc_closed_tcp"
    operation = "one put or hit-get round trip, alternating, 32 B values"
    children = ("tcp.channel_send", "tcp.channel_recv")
    warmup_ops = 30_000

    def build(self) -> None:
        self.transport = TcpTransport()
        self.server = AttributeSpaceServer(
            self.transport, "hub", role=ServerRole.CASS)
        # the context outlives every trial's connection
        self.keeper = self.transport.connect(
            "bench", self.server.endpoint, timeout=RPC_TIMEOUT)
        attach(self.keeper, "keeper")
        self.current: dict[str, str] = {}
        keys, values = self.inputs.keys, self.inputs.values
        for i in range(0, KEYS, 64):
            ops = [{"op": "put", "attribute": k, "value": values[i + j]}
                   for j, k in enumerate(keys[i:i + 64])]
            self.req += 1
            reply = self.keeper.request(
                {"op": "batch", "req": self.req, "context": CONTEXT, "ops": ops},
                timeout=RPC_TIMEOUT)
            if not all(r.get("ok") for r in expect_ok(reply, self.req)["replies"]):
                raise RuntimeError(f"population failed: {reply}")
            self.current.update((o["attribute"], o["value"]) for o in ops)

    def open_trial(self) -> None:
        self.channel = self.transport.connect(
            "bench", self.server.endpoint, timeout=RPC_TIMEOUT)
        attach(self.channel, "generator")

    def close_trial(self) -> None:
        self.channel.close()

    def teardown(self) -> None:
        self.keeper.close()
        self.server.stop()

    def op(self, stamps):
        i = self.count
        key = self.inputs.keys[(i >> 1) % KEYS]
        self.req = req = self.req + 1
        if i & 1:
            message = {"op": "get", "req": req, "context": CONTEXT,
                       "attribute": key, "block": False}
        else:
            value = self.inputs.values[(i >> 1) % VALUE_POOL]
            message = {"op": "put", "req": req, "context": CONTEXT,
                       "attribute": key, "value": value}
        channel = self.channel
        t0 = clock()
        channel.send(message)
        if stamps is not None:
            stamps.append(t0)
            stamps.append(clock())
        reply = channel.recv(RPC_TIMEOUT)
        t1 = clock()
        if stamps is not None:
            stamps.append(t1)
        expect_ok(reply, req)
        if i & 1:
            if reply.get("value") != self.current[key]:
                raise OpFailed(f"get {key}: {reply.get('value')!r} != "
                               f"{self.current[key]!r}")
        else:
            self.current[key] = value
        return t1 - t0


class RpcPipelinedTcp(RpcClosedTcp):
    """Same server, a full window of single-op puts in flight: CPU-bound,
    so codec/store/flush-coalescing gains show here and not in the
    closed loop, and a batching change that adds latency shows there."""

    name = "rpc_pipelined_tcp"
    operation = f"single-op put, window {OUTBOUND_QUEUE_LIMIT} in flight"
    window = OUTBOUND_QUEUE_LIMIT
    warmup_ops = 70_000

    def run_trial(self, seconds: float, recorder, max_ops: float = INF) -> Trial:
        trial = Trial()
        first = self.req + 1
        start = clock()
        try:
            self.stream(trial, start + seconds, recorder, first + max_ops)
            trial.elapsed = clock() - start
            self.read_back(first)
        except (OpFailed, errors.TdpError) as e:
            # everything unanswered, or the whole trial if it read back wrong
            trial.failed = (trial.ops - len(trial.samples_ms)) or trial.ops
            trial.error = f"{type(e).__name__}: {e}"
            trial.elapsed = trial.elapsed or clock() - start
        return trial

    def stream(self, trial: Trial, deadline: float, recorder, last: float) -> None:
        samples = trial.samples_ms
        keys, values = self.inputs.keys, self.inputs.values
        send, recv = self.channel.send, self.channel.recv
        stamps: collections.deque[float] = collections.deque()
        window = self.window
        first = done = req = self.req + 1
        sending = True
        try:
            while sending or done < req:
                while sending and req - done < window:
                    key = keys[req % KEYS]
                    value = values[req % VALUE_POOL]
                    t0 = clock()
                    send({"op": "put", "req": req, "context": CONTEXT,
                          "attribute": key, "value": value})
                    if recorder is not None:
                        recorder.add("tcp.channel_send", req, t0, clock())
                    stamps.append(t0)
                    self.current[key] = value
                    req += 1
                    sending = t0 < deadline and req < last
                r0 = clock() if recorder is not None else 0.0
                # no subscribers on this context: replies are the only
                # inbound frames and arrive in request order
                reply = recv(RPC_TIMEOUT)
                t1 = clock()
                expect_ok(reply, done)
                t0 = stamps.popleft()
                samples.append((t1 - t0) * 1e3)
                if recorder is not None:
                    root = recorder.add(self.name + ".op", done, t0, t1)
                    recorder.add("tcp.channel_recv", done, r0, t1, root)
                done += 1
        finally:
            self.req = req
            trial.ops = req - first

    def read_back(self, first: int) -> None:
        """Untimed: the last value put under a key is what is stored."""
        for probe in range(8):
            key = self.inputs.keys[(first + probe * 131) % KEYS]
            self.req += 1
            reply = self.channel.request(
                {"op": "get", "req": self.req, "context": CONTEXT,
                 "attribute": key, "block": False}, timeout=RPC_TIMEOUT)
            if expect_ok(reply, self.req).get("value") != self.current[key]:
                raise OpFailed(f"read-back of {key} differs")


# ---------------------------------------------------------------------------
# 5–7: the federated tier, LASS -> CASS -> LASS on TCP
# ---------------------------------------------------------------------------


class XhostNotify(Workload):
    """The federation write path: a put on host A's LASS reaches a
    subscriber on host B's LASS through one CASS (write-through forward,
    aggregated subscription, local re-fan)."""

    name = "xhost_notify"
    operation = "put at LASS A -> notify frame at a subscriber of LASS B"
    children = ("tcp.channel_send", "federation.notify_recv")
    lass_hosts = ["hostA", "hostB"]
    warmup_ops = 6000

    def build(self) -> None:
        self.transport = TcpTransport()
        self.cass = AttributeSpaceServer(
            self.transport, "hub", role=ServerRole.CASS)
        self.lasses = [
            LassServer(self.transport, host, upstream=self.cass.endpoint)
            for host in self.lass_hosts
        ]
        # keep the context alive on every server across trials
        self.keepers = [self.dial(server, "keeper")
                        for server in [self.cass, *self.lasses]]

    def dial(self, server, member: str):
        channel = self.transport.connect(
            server.host, server.endpoint, timeout=RPC_TIMEOUT)
        attach(channel, member)
        return channel

    def open_trial(self) -> None:
        self.writer = self.dial(self.lasses[0], "writer")
        self.reader = self.dial(self.lasses[1], "subscriber")
        self.req += 1
        expect_ok(self.reader.request(
            {"op": "subscribe", "req": self.req, "context": CONTEXT,
             "pattern": "xn.*"}, timeout=RPC_TIMEOUT), self.req)
        # the aggregated subscription must be parked at the CASS before
        # the first timed put
        self.lasses[1].federation.settle(timeout=RPC_TIMEOUT)

    def close_trial(self) -> None:
        self.writer.close()
        self.reader.close()

    def teardown(self) -> None:
        for channel in self.keepers:
            channel.close()
        for lass in self.lasses:
            lass.stop()
        self.cass.stop()

    def op(self, stamps):
        i = self.count
        key = "xn." + self.inputs.keys[i % KEYS]
        value = self.inputs.values[i % VALUE_POOL]
        self.req = req = self.req + 1
        t0 = clock()
        self.writer.send({"op": "put", "req": req, "context": CONTEXT,
                          "attribute": key, "value": value})
        if stamps is not None:
            stamps.append(t0)
            stamps.append(clock())
        frame = self.reader.recv(RPC_TIMEOUT)
        t1 = clock()
        if stamps is not None:
            stamps.append(t1)
        expect_ok(self.writer.recv(RPC_TIMEOUT), req)
        if (frame.get("op") != "notify" or frame.get("attribute") != key
                or frame.get("value") != value):
            raise OpFailed(f"expected notify of {key}, got {frame}")
        return t1 - t0


class XhostMissGet(XhostNotify):
    """The federation read path beside the write path: a get on host B
    for a key only the CASS holds is forwarded upstream and filled."""

    name = "xhost_miss_get"
    operation = "get at LASS B of a key only the CASS holds (miss -> fill)"
    children = ("tcp.channel_send", "federation.miss_recv")
    warmup_ops = 8000

    def open_trial(self) -> None:
        self.writer = self.dial(self.cass, "writer")
        self.reader = self.dial(self.lasses[1], "reader")

    def op(self, stamps):
        i = self.count
        key = f"mg.{i}"  # fresh every time: never cached at the LASS
        value = self.inputs.values[i % VALUE_POOL]
        self.req = req = self.req + 1
        expect_ok(self.writer.request(
            {"op": "put", "req": req, "context": CONTEXT,
             "attribute": key, "value": value}, timeout=RPC_TIMEOUT), req)
        t0 = clock()
        self.reader.send({"op": "get", "req": req, "context": CONTEXT,
                          "attribute": key, "block": True,
                          "timeout": RPC_TIMEOUT})
        if stamps is not None:
            stamps.append(t0)
            stamps.append(clock())
        reply = self.reader.recv(RPC_TIMEOUT + 1.0)
        t1 = clock()
        if stamps is not None:
            stamps.append(t1)
        if expect_ok(reply, req).get("value") != value:
            raise OpFailed(f"get {key}: {reply.get('value')!r} != {value!r}")
        return t1 - t0


class FanoutStorm(XhostNotify):
    """``notify`` fan-out and per-connection state: a parked population
    spread over four LASS hosts, rounds of CASS puts drained by the one
    generator thread.  A sample is one subscriber's wait from the first
    put of a round until its last event arrived."""

    name = "fanout_storm"
    operation = "one notify delivery (rounds of 5 CASS puts x population)"
    lass_hosts = [f"storm-n{i}" for i in range(4)]
    events = 5
    warmup_ops = 6 * events * 2000
    #: fds beyond two per subscriber: listeners, upstream sessions, stdio
    fd_headroom = 160

    def build(self) -> None:
        self.population = 40 if self.tiny else 2000
        need = 2 * self.population + self.fd_headroom
        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        if soft < need:
            if hard != resource.RLIM_INFINITY and hard < need:
                # fail rather than shrink: a smaller population is
                # another workload
                raise RuntimeError(
                    f"RLIMIT_NOFILE {soft}/{hard} cannot hold "
                    f"{self.population} subscribers (need {need} fds)")
            resource.setrlimit(resource.RLIMIT_NOFILE, (need, hard))
        super().build()
        self.channels = []
        for i in range(self.population):
            lass = self.lasses[i % len(self.lasses)]
            channel = self.transport.connect(
                lass.host, lass.endpoint, timeout=RPC_TIMEOUT)
            channel.send_many([
                {"op": "attach", "req": 0, "context": CONTEXT,
                 "member": f"storm-{i}"},
                {"op": "subscribe", "req": 1, "context": CONTEXT,
                 "pattern": "storm.*"},
            ])
            self.channels.append(channel)
        for channel in self.channels:
            for req in (0, 1):
                expect_ok(channel.recv(30.0), req)
        for lass in self.lasses:
            lass.federation.settle(timeout=30.0)
        if len(self.cass.store.subscriptions) != len(self.lasses):
            raise RuntimeError("aggregated subscriptions did not reach the CASS")
        self.writer = self.keepers[0]

    def open_trial(self) -> None: ...

    def close_trial(self) -> None: ...

    def teardown(self) -> None:
        for channel in self.channels:
            channel.close()
        super().teardown()

    def run_trial(self, seconds: float, recorder, max_ops: float = INF) -> Trial:
        trial = Trial()
        start = clock()
        deadline = start + seconds
        while clock() < deadline and trial.ops < max_ops:
            try:
                self.round(trial, recorder)
            except (OpFailed, errors.TdpError) as e:
                trial.error = f"{type(e).__name__}: {e}"
                break
        trial.elapsed = clock() - start
        return trial

    def round(self, trial: Trial, recorder) -> None:
        events, channels = self.events, self.channels
        base = self.count * events
        values = [self.inputs.values[(base + k) % VALUE_POOL]
                  for k in range(events)]
        names = [f"storm.{k}" for k in range(events)]
        self.count += 1
        egress_before = self.cass.stats["notifications"].value
        trial.ops += events * len(channels)
        delivered = 0
        complete = False
        t0 = clock()
        try:
            for name, value in zip(names, values):
                self.req = req = self.req + 1
                expect_ok(self.writer.request(
                    {"op": "put", "req": req, "context": CONTEXT,
                     "attribute": name, "value": value},
                    timeout=RPC_TIMEOUT), req)
            t_put = clock()
            for index, channel in enumerate(channels):
                recv = channel.recv
                r0 = clock() if recorder is not None else 0.0
                for name, value in zip(names, values):
                    frame = recv(RPC_TIMEOUT)
                    if (frame.get("op") != "notify"
                            or frame.get("attribute") != name
                            or frame.get("value") != value):
                        raise OpFailed(f"subscriber {index}: expected "
                                       f"{name}, got {frame}")
                    delivered += 1
                t1 = clock()
                trial.samples_ms.append((t1 - t0) * 1e3)
                if recorder is not None:
                    recorder.add("notify.drain_subscriber", base + index, r0, t1)
            if recorder is not None:
                recorder.add("server.cass_puts", base, t0, t_put)
            egress = self.cass.stats["notifications"].value - egress_before
            if egress != events * len(self.lasses):
                raise OpFailed(f"CASS egress {egress} frames != events x hosts "
                               f"{events * len(self.lasses)}")
            complete = True
        finally:
            if not complete:
                trial.failed += max(1, events * len(channels) - delivered)


WORKLOADS = {
    cls.name: cls
    for cls in (PilotLaunch, MpiGang8, RpcClosedTcp, RpcPipelinedTcp,
                XhostNotify, XhostMissGet, FanoutStorm)
}
