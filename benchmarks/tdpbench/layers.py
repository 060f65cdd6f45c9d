"""Per-layer metrics, measured from outside.

Each layer is timed by calling its public functions from here; a span
(name, start, end) is recorded around every call and the metric is the
median span.  Layer = module name.  Nothing inside ``src/`` is touched:
in-program spans are a later change (ROADMAP item 5).

Counts: micro-operations are medians of ``CALLS`` calls; operations that
create a process or a session are medians of ``HEAVY`` calls, because
each leaves a thread or a simulated process behind.
"""

from __future__ import annotations

import gc
import statistics
import time

from measure import HostProbe, clock, speed_factor, status_kb
from workloads import (
    CONTEXT,
    RPC_TIMEOUT,
    Inputs,
    MpiGang8,
    OpFailed,
    PilotLaunch,
    attach,
    expect_ok,
    fig5b_text,
)

from repro.attrspace import bincodec, protocol
from repro.attrspace.client import AttributeSpaceClient
from repro.attrspace.federation import ShardMap
from repro.attrspace.lass import LassServer
from repro.attrspace.notify import Notification, SubscriptionRegistry
from repro.attrspace.server import AttributeSpaceServer, ServerRole
from repro.attrspace.store import AttributeStore
from repro.condor.job import JobStatus
from repro.condor.submit import parse_submit_file
from repro.net.topology import flat_network
from repro.parador.run import ParadorScenario
from repro.sim.cluster import SimCluster
from repro.tdp.api import (
    tdp_async_get,
    tdp_attach,
    tdp_continue_process,
    tdp_create_process,
    tdp_exit,
    tdp_get,
    tdp_init,
    tdp_poll,
    tdp_put,
    tdp_service_events,
    tdp_wait_exit,
)
from repro.tdp.handle import Role
from repro.tdp.process import SimHostBackend
from repro.tdp.wellknown import CreateMode
from repro.transport import framing
from repro.transport.inmem import InMemoryTransport
from repro.transport.tcp import TcpTransport
from repro.util.clock import WallClock
from repro.util.log import TraceRecorder

US = 1e6
MS = 1e3

#: the pilot's wall-clock steps; consecutive, from the submit call to the
#: front-end seeing the application run
PILOT_STEPS = ("submit_to_starter", "starter_init_to_ap_created",
               "daemon_boot", "rendezvous", "attach", "continue")

#: every launch's steps must cover the launch within this share, else a
#: hop is missing from the budget
PILOT_BUDGET_TOLERANCE = 0.05


class PerfClock(WallClock):
    """``TraceRecorder`` timebase on the benchmark's own clock, so the
    pilot's step log and the benchmark's stamps share an epoch."""

    def now(self) -> float:
        return clock()


class Layers:
    def __init__(self, recorder, seed: int, tiny: bool):
        self.recorder = recorder
        self.probe = HostProbe()
        self.inputs = Inputs(seed)
        self.tiny = tiny
        self.calls = 50 if tiny else 2000
        self.heavy = 10 if tiny else 150
        self.metrics: dict[str, float] = {}
        self.notes: dict[str, object] = {}
        value = self.inputs.values[0]
        self.put_frame = {"op": "put", "req": 123456, "context": CONTEXT,
                          "attribute": "k0001", "value": value}
        self.ping_frame = {"op": "ping", "req": 123456}

    # -- timing --------------------------------------------------------------

    def timed(self, name: str, fn, calls: int | None = None) -> float:
        """Median duration in seconds of ``fn()``, one span per call,
        stated at the reference host speed (spans stay as measured)."""
        add = self.recorder.add
        durations = []
        probe = self.probe()
        for i in range(calls if calls is not None else self.calls):
            t0 = clock()
            fn()
            t1 = clock()
            add(name, i, t0, t1)
            durations.append(t1 - t0)
        return statistics.median(durations) * self.factor(probe)

    def factor(self, probe_before) -> float:
        """Scale for times measured since ``probe_before`` was taken."""
        return speed_factor(probe_before, self.probe())

    def put_message(self, i: int, prefix: str = "") -> dict:
        return {"op": "put", "req": i, "context": CONTEXT,
                "attribute": prefix + self.inputs.keys[i % 1024],
                "value": self.inputs.values[i % 4096]}

    def rtt(self, name: str, channel, make, calls: int | None = None) -> float:
        """Median round trip of ``make(i)`` on a raw channel, checked."""
        counter = iter(range(1000, 10**9))

        def call():
            i = next(counter)
            expect_ok(channel.request(make(i), timeout=RPC_TIMEOUT), i)

        for _ in range(20):
            call()
        return self.timed(name, call, calls)

    # -- codec, framing -------------------------------------------------------

    def codec_and_framing(self) -> None:
        m, msg = self.metrics, self.put_frame
        binary = bincodec.encode(msg)
        text = protocol.encode_body(msg)
        if bincodec.decode(binary) != msg or protocol.decode_body(text) != msg:
            raise OpFailed("codec does not round-trip the put frame")
        m["bincodec.encode_us"] = US * self.timed(
            "bincodec.encode", lambda: bincodec.encode(msg))
        m["bincodec.decode_us"] = US * self.timed(
            "bincodec.decode", lambda: bincodec.decode(binary))
        m["protocol.json_encode_us"] = US * self.timed(
            "protocol.encode_body", lambda: protocol.encode_body(msg))
        m["protocol.json_decode_us"] = US * self.timed(
            "protocol.decode_body", lambda: protocol.decode_body(text))
        frame = framing.encode_frame(msg, protocol.CODEC_BINARY)
        m["bincodec.put_frame_bytes"] = len(frame)
        m["protocol.put_frame_bytes"] = len(framing.encode_frame(msg))
        m["framing.encode_frame_us"] = US * self.timed(
            "framing.encode_frame",
            lambda: framing.encode_frame(msg, protocol.CODEC_BINARY))
        burst = frame * 64
        reader = framing.FrameReader()
        if reader.feed(burst) != [msg] * 64:
            raise OpFailed("FrameReader does not return the coalesced frames")
        m["framing.feed_us_per_frame"] = US / 64 * self.timed(
            "framing.feed_64", lambda: reader.feed(burst))
        # the ping frame's share of the loop-hop metric, for the budget
        ping = framing.encode_frame(self.ping_frame, protocol.CODEC_BINARY)
        self.notes["ping_framing_us"] = US * (
            self.timed("framing.encode_frame_ping", lambda: framing.encode_frame(
                self.ping_frame, protocol.CODEC_BINARY))
            + self.timed("framing.feed_ping", lambda: reader.feed(ping)))
        self.notes["put_framing_us"] = (
            m["framing.encode_frame_us"]
            + US * self.timed("framing.feed_put", lambda: reader.feed(frame)))

    # -- store, notify ---------------------------------------------------------

    def store_and_notify(self) -> None:
        m = self.metrics
        keys, values = self.inputs.keys, self.inputs.values
        store = AttributeStore()
        store.attach(CONTEXT, "bench")
        counter = iter(range(10**9))

        def put():
            i = next(counter)
            store.put(keys[i % 1024], values[i % 4096], context=CONTEXT)

        m["store.put_us"] = US * self.timed("store.put", put)
        for key in keys:
            store.put(key, values[0], context=CONTEXT)

        def try_get():
            if store.try_get(keys[next(counter) % 1024], context=CONTEXT) != values[0]:
                raise OpFailed("store.try_get returned another value")

        m["store.try_get_us"] = US * self.timed("store.try_get", try_get)
        woken = []

        def rendezvous():
            key = f"rv.{next(counter)}"
            store.add_waiter(key, woken.append, context=CONTEXT)
            store.put(key, values[1], context=CONTEXT)

        m["store.rendezvous_us"] = US * self.timed("store.rendezvous", rendezvous)
        if woken != [values[1]] * self.calls:
            raise OpFailed("a parked waiter was not woken with the put value")
        batch = [{"op": "put", "attribute": keys[j], "value": values[j]}
                 for j in range(50)]

        def apply_batch():
            results = store.apply_batch(batch, default_context=CONTEXT)
            if any(isinstance(r, Exception) for r in results):
                raise OpFailed(f"apply_batch: {results}")

        m["store.apply_batch_us_per_op"] = US / 50 * self.timed(
            "store.apply_batch_50", apply_batch, max(20, self.calls // 4))

        subscribers = 1000
        for metric, pattern in (("notify.publish_us_per_sub", "hot.*"),
                                ("notify.nomatch_us_per_sub", "cold.*")):
            registry = SubscriptionRegistry()
            delivered = []
            for _ in range(subscribers):
                registry.subscribe(CONTEXT, pattern,
                                   lambda sub, n: delivered.append(sub))
            event = Notification(context=CONTEXT, attribute="hot.x",
                                 value=values[0], kind="put")
            calls = max(20, self.calls // 2)
            m[metric] = US / subscribers * self.timed(
                metric.rsplit("_us", 1)[0], lambda: registry.publish(event), calls)
            expected = subscribers * calls if pattern == "hot.*" else 0
            if len(delivered) != expected:
                raise OpFailed(f"{metric}: {len(delivered)} deliveries, "
                               f"expected {expected}")

    # -- transports, serving cores, client --------------------------------------

    def inmem(self) -> None:
        m = self.metrics
        transport = InMemoryTransport(flat_network(["hub", "bench"]))
        listener = transport.listen("hub")
        near = transport.connect("bench", listener.endpoint, timeout=RPC_TIMEOUT)
        far = listener.accept(timeout=RPC_TIMEOUT)
        msg = self.put_frame

        def hop():
            near.send(msg)
            if far.recv(RPC_TIMEOUT) != msg:
                raise OpFailed("inmem hop altered the frame")

        m["inmem.hop_us"] = US * self.timed("inmem.hop", hop)
        near.close()
        listener.close()

        server = AttributeSpaceServer(transport, "hub", role=ServerRole.CASS)
        raw = transport.connect("bench", server.endpoint, timeout=RPC_TIMEOUT)
        reply = raw.request({"op": "attach", "req": 0, "context": CONTEXT,
                             "member": "raw"}, timeout=RPC_TIMEOUT)
        expect_ok(reply, 0)
        m["server.inmem_put_rtt_us"] = US * self.rtt(
            "server.inmem_put_rtt", raw, self.put_message)
        client = AttributeSpaceClient(
            transport.connect("bench", server.endpoint, timeout=RPC_TIMEOUT),
            context=CONTEXT, member="client")
        m["client.put_us_inmem"] = US * self.client_put("client.put_inmem", client)
        m["client.overhead_us"] = (
            m["client.put_us_inmem"] - m["server.inmem_put_rtt_us"])
        m["client.service_events_us_per_cb"] = US * self.service_events(client)
        client.close()
        raw.close()
        server.stop()

    def client_put(self, name: str, client) -> float:
        keys, values = self.inputs.keys, self.inputs.values
        counter = iter(range(10**9))

        def put():
            i = next(counter)
            client.put(keys[i % 1024], values[i % 4096])

        for _ in range(20):
            put()
        seconds = self.timed(name, put)
        if client.get(keys[0], timeout=RPC_TIMEOUT) not in values:
            raise OpFailed("client read back a value that was never put")
        return seconds

    def service_events(self, client) -> float:
        """Callbacks run at the caller's safe point: seconds per callback
        of ``service_events`` over a queue of 100 notifications."""
        seen = []
        client.subscribe("ev.*", lambda notification, arg: seen.append(notification))
        per_callback = []
        burst = 100
        probe = self.probe()
        for round_index in range(max(5, self.calls // 100)):
            client.put_many([(f"ev.{j}", self.inputs.values[j]) for j in range(burst)])
            deadline = clock() + RPC_TIMEOUT
            while len(client.events) < burst:
                if clock() > deadline:
                    raise OpFailed("notifications did not reach the client")
                time.sleep(0.0005)
            t0 = clock()
            count = client.service_events()
            t1 = clock()
            self.recorder.add("client.service_events", round_index, t0, t1)
            per_callback.append((t1 - t0) / count)
        if [n.attribute for n in seen[:burst]] != [f"ev.{j}" for j in range(burst)]:
            raise OpFailed("callbacks ran out of put order")
        return statistics.median(per_callback) * self.factor(probe)

    def tcp(self) -> None:
        m = self.metrics
        transport = TcpTransport()
        server = AttributeSpaceServer(transport, "hub", role=ServerRole.CASS)

        def connect_hello():
            channel = transport.connect("bench", server.endpoint, timeout=RPC_TIMEOUT)
            # the first reply carries the codec ack behind it
            expect_ok(channel.request(dict(self.ping_frame), timeout=RPC_TIMEOUT),
                      self.ping_frame["req"])
            opened.append(channel)

        opened: list = []
        m["tcp.connect_hello_ms"] = MS * self.timed(
            "tcp.connect_hello", connect_hello, self.heavy * 2)
        for channel in opened:
            channel.close()

        raw = transport.connect("bench", server.endpoint, timeout=RPC_TIMEOUT)
        attach(raw, "raw")
        m["eventloop.ping_rtt_us"] = US * self.rtt(
            "eventloop.ping_rtt", raw, lambda i: {"op": "ping", "req": i})
        m["server.tcp_put_rtt_us"] = US * self.rtt(
            "server.tcp_put_rtt", raw, self.put_message)
        ops = [{"op": "put", "attribute": self.inputs.keys[j],
                "value": self.inputs.values[j]} for j in range(50)]
        m["server.batch50_rtt_us"] = US * self.rtt(
            "server.batch50_rtt", raw,
            lambda i: {"op": "batch", "req": i, "context": CONTEXT, "ops": ops},
            max(20, self.calls // 4))
        client = AttributeSpaceClient(
            transport.connect("bench", server.endpoint, timeout=RPC_TIMEOUT),
            context=CONTEXT, member="client")
        m["client.put_us_tcp"] = US * self.client_put("client.put_tcp", client)
        client.close()

        # resident memory per parked connection, both ends in this process
        population = 50 if self.tiny else 500
        gc.collect()
        before = status_kb("VmRSS")
        parked = []
        for i in range(population):
            channel = transport.connect("bench", server.endpoint, timeout=RPC_TIMEOUT)
            attach(channel, f"idle-{i}")
            parked.append(channel)
        m["tcp.conn_rss_kb"] = (status_kb("VmRSS") - before) / population
        for channel in parked:
            channel.close()
        raw.close()
        server.stop()

    def dispatch_residual(self) -> None:
        """What a put costs the server beyond a ping: the round trips
        differ by the store call, the larger frames, and dispatch."""
        m, notes = self.metrics, self.notes
        extra_framing = 2 * (notes["put_framing_us"] - notes["ping_framing_us"])
        m["server.dispatch_residual_us"] = (
            m["server.tcp_put_rtt_us"] - m["eventloop.ping_rtt_us"]
            - m["store.put_us"] - extra_framing)

    # -- federated tier -----------------------------------------------------------

    def federation(self) -> None:
        m = self.metrics
        transport = TcpTransport()
        cass = AttributeSpaceServer(transport, "hub", role=ServerRole.CASS)
        lass = LassServer(transport, "hostA", upstream=cass.endpoint)
        local = transport.connect("hostA", lass.endpoint, timeout=RPC_TIMEOUT)
        attach(local, "local")
        m["lass.local_put_rtt_us"] = US * self.rtt(
            "lass.local_put_rtt", local, self.put_message)
        lass.federation.settle(timeout=RPC_TIMEOUT)
        m["lass.local_hit_get_rtt_us"] = US * self.rtt(
            "lass.local_hit_get_rtt", local,
            lambda i: {"op": "get", "req": i, "context": CONTEXT,
                       "attribute": self.inputs.keys[i % 1024], "block": False})

        central = transport.connect("hub", cass.endpoint, timeout=RPC_TIMEOUT)
        attach(central, "central")
        expect_ok(central.request(
            {"op": "subscribe", "req": 1, "context": CONTEXT, "pattern": "fw.*"},
            timeout=RPC_TIMEOUT), 1)
        counter = iter(range(1000, 10**9))

        def forward_put():
            i = next(counter)
            message = self.put_message(i, "fw.")
            local.send(message)
            frame = central.recv(RPC_TIMEOUT)
            if (frame.get("op") != "notify"
                    or frame.get("attribute") != message["attribute"]
                    or frame.get("value") != message["value"]):
                raise OpFailed(f"forwarded put arrived as {frame}")
            pending.append(i)

        def drain_replies():
            while pending:
                expect_ok(local.recv(RPC_TIMEOUT), pending.pop(0))

        pending: list[int] = []
        for _ in range(20):
            forward_put()
            drain_replies()
        durations = []
        probe = self.probe()
        for i in range(self.calls):
            t0 = clock()
            forward_put()
            t1 = clock()
            drain_replies()
            self.recorder.add("federation.forward_put", i, t0, t1)
            durations.append(t1 - t0)
        m["federation.forward_put_ms"] = (
            MS * statistics.median(durations) * self.factor(probe))
        local.close()
        central.close()
        lass.stop()
        cass.stop()

        shard_map = ShardMap(1, [f"shard{i}:7000" for i in range(4)])
        m["federation.shard_owner_us"] = US * self.timed(
            "federation.shard_owner",
            lambda: shard_map.owner(CONTEXT, f"proc.{next(counter)}.pid"))

    # -- tdp library, simulator, condor ----------------------------------------------

    def tdp_and_sim(self) -> None:
        m = self.metrics
        values = self.inputs.values
        with SimCluster.flat(["node1"]) as cluster:
            host = cluster.host("node1")
            lass = AttributeSpaceServer(
                cluster.transport, "node1", role=ServerRole.LASS)
            counter = iter(range(10**9))
            handles = []

            def init():
                handles.append(tdp_init(
                    cluster.transport, lass.endpoint, member="probe",
                    role=Role.RT, context=f"init{next(counter)}", src_host="node1"))

            m["tdp.init_ms"] = MS * self.timed("tdp.init", init, self.heavy)
            for handle in handles:
                tdp_exit(handle)

            rm = tdp_init(cluster.transport, lass.endpoint, member="rm",
                          role=Role.RM, context="tdp", backend=SimHostBackend(host))
            rt = tdp_init(cluster.transport, lass.endpoint, member="rt",
                          role=Role.RT, context="tdp", src_host="node1")
            rm.control.serve_tool_requests()
            rm.start_service_loop()
            m["tdp.put_us"] = US * self.timed(
                "tdp.put", lambda: tdp_put(rm, "hot", values[next(counter) % 4096]))
            m["tdp.get_us"] = US * self.timed(
                "tdp.get", lambda: tdp_get(rt, "hot", timeout=RPC_TIMEOUT))

            arrived = []
            rendezvous = []
            probe = self.probe()
            for i in range(self.calls // 4):
                key = f"rv.{i}"
                tdp_async_get(rt, key, lambda value, error, arg: arrived.append(value))
                t0 = clock()
                tdp_put(rm, key, values[i % 4096])
                tdp_poll(rt, timeout=RPC_TIMEOUT)
                tdp_service_events(rt)
                t1 = clock()
                self.recorder.add("tdp.rendezvous", i, t0, t1)
                rendezvous.append(t1 - t0)
            if arrived != [values[i % 4096] for i in range(self.calls // 4)]:
                raise OpFailed("async gets completed with other values")
            m["tdp.rendezvous_us"] = (
                US * statistics.median(rendezvous) * self.factor(probe))

            create, attach_, resume = [], [], []
            probe = self.probe()
            for i in range(self.heavy):
                t0 = clock()
                info = tdp_create_process(rm, "hello", ["x"], mode=CreateMode.PAUSED)
                t1 = clock()
                tdp_attach(rt, info.pid)
                t2 = clock()
                tdp_continue_process(rt, info.pid)
                t3 = clock()
                if tdp_wait_exit(rt, info.pid, timeout=RPC_TIMEOUT) != 0:
                    raise OpFailed(f"pid {info.pid} exited non-zero")
                root = self.recorder.add("tdp.create_attach_continue", i, t0, t3)
                for name, a, b, into in (("tdp.create_paused", t0, t1, create),
                                         ("tdp.attach", t1, t2, attach_),
                                         ("tdp.continue", t2, t3, resume)):
                    self.recorder.add(name, i, a, b, root)
                    into.append(b - a)
            scale = US * self.factor(probe)
            m["tdp.create_paused_us"] = scale * statistics.median(create)
            m["tdp.attach_us"] = scale * statistics.median(attach_)
            m["tdp.continue_us"] = scale * statistics.median(resume)
            rm.stop_service_loop()
            tdp_exit(rt)
            tdp_exit(rm)
            lass.stop()

            create, resume = [], []
            probe = self.probe()
            for i in range(self.heavy):
                t0 = clock()
                proc = host.create_process("hello", ["x"], paused=True)
                t1 = clock()
                proc.continue_process()
                t2 = clock()
                if proc.wait_for_exit(timeout=RPC_TIMEOUT) != 0:
                    raise OpFailed(f"pid {proc.pid} exited non-zero")
                self.recorder.add("sim.create_process", i, t0, t1)
                self.recorder.add("sim.continue", i, t1, t2)
                create.append(t1 - t0)
                resume.append(t2 - t1)
            scale = US * self.factor(probe)
            m["sim.create_process_us"] = scale * statistics.median(create)
            m["sim.continue_us"] = scale * statistics.median(resume)

    def condor(self) -> None:
        m = self.metrics
        with ParadorScenario(execute_hosts=["node1", "node2"]) as scenario:
            text = fig5b_text(scenario, self.inputs)

            def parse():
                if not parse_submit_file(text)[0].monitored:
                    raise OpFailed("FIG5B text did not parse as monitored")

            m["condor.submit_parse_us"] = US * self.timed("condor.submit_parse", parse)
            durations = []
            probe = self.probe()
            for i in range(-5, self.heavy):
                t0 = clock()
                job = scenario.submit_unmonitored("hello")
                job.wait_for(JobStatus.RUNNING, JobStatus.COMPLETED,
                             JobStatus.FAILED, timeout=RPC_TIMEOUT)
                t1 = clock()
                if job.wait_terminal(timeout=RPC_TIMEOUT) is not JobStatus.COMPLETED:
                    raise OpFailed(f"unmonitored job ended {job.status}")
                if i >= 0:
                    self.recorder.add("condor.submit_to_running", i, t0, t1)
                    durations.append(t1 - t0)
            m["condor.submit_to_running_ms"] = (
                MS * statistics.median(durations) * self.factor(probe))

    # -- the pilot's own step log, on wall time ---------------------------------------

    def pilot(self) -> None:
        m = self.metrics
        trace = TraceRecorder(clock=PerfClock())
        workload = PilotLaunch(self.inputs, False)
        workload.scenario = scenario = ParadorScenario(
            execute_hosts=workload.hosts, trace=trace)
        workload.text = workload.submit_text()
        servers = [s.lass for s in scenario.pool.startds.values()]
        servers.append(scenario.pool.schedd.cass)

        def rpcs() -> int:
            return sum(s.stats["puts"].value + s.stats["gets"].value
                       for s in servers)

        steps = {name: [] for name in PILOT_STEPS}
        launches, turnarounds = [], []
        try:
            for i in range(-10, self.heavy):
                if i == 0:
                    rpcs_before = rpcs()
                    probe = self.probe()
                mark = len(trace)
                stamps: list[float] = []
                workload.op(stamps)
                done = clock()
                if i < 0:
                    continue
                t0, t1 = stamps[0], stamps[-1]
                cuts = [t0, *self.step_times(trace.events()[mark:]), t1]
                # a step out of order would be booked negative and hide
                # the time a missing hop took
                covered = sum(max(0.0, b - a) for a, b in zip(cuts, cuts[1:]))
                if abs(covered - (t1 - t0)) > PILOT_BUDGET_TOLERANCE * (t1 - t0):
                    raise OpFailed(
                        f"the budget is missing a hop: launch {i} took "
                        f"{(t1 - t0) * MS:.3f} ms, its steps {covered * MS:.3f} ms "
                        f"(boundaries {cuts})")
                root = self.recorder.add("pilot.launch", i, t0, t1)
                for name, a, b in zip(PILOT_STEPS, cuts, cuts[1:]):
                    self.recorder.add("pilot." + name, i, a, b, root)
                    steps[name].append(b - a)
                launches.append(t1 - t0)
                turnarounds.append(done - t0)
            scale = MS * self.factor(probe)
            rpc_count = (rpcs() - rpcs_before) / self.heavy
        finally:
            scenario.stop()
        for name in PILOT_STEPS:
            m[f"pilot.{name}_ms"] = scale * statistics.median(steps[name])
        m["pilot.turnaround_ms_p50"] = scale * statistics.median(turnarounds)
        m["pilot.attrspace_rpcs_per_launch"] = rpc_count
        launch_ms = scale * statistics.median(launches)
        m["pilot.attrspace_share"] = (
            rpc_count * m["client.put_us_inmem"] / 1e3 / launch_ms)
        budget = sum(m[f"pilot.{name}_ms"] for name in PILOT_STEPS)
        gap = (launch_ms - budget) / launch_ms
        self.notes["pilot_budget"] = {
            "steps_sum_ms": budget,
            "traced_launch_ms_p50": launch_ms,
            "gap_share": gap,
            "launches": len(launches),
        }

    @staticmethod
    def step_times(events) -> list[float]:
        """Wall times of the five boundaries between the six steps."""
        wanted = (
            ("starter", "tdp_init", None),
            ("starter", "tdp_create_process", "AP"),
            ("paradynd", "tdp_init", None),
            ("paradynd", "tdp_get_returned", None),
            ("paradynd", "tdp_continue_process", None),
        )
        times = []
        for actor, action, target in wanted:
            for event in events:
                if (event.actor == actor and event.action == action
                        and (target is None
                             or event.details.get("target") == target)):
                    times.append(event.time)
                    break
            else:
                raise OpFailed(f"the budget is missing a hop: no "
                               f"{actor}/{action} in the step log")
        return times

    def gang(self) -> None:
        workload = MpiGang8(self.inputs, False)
        workload.build()
        durations = []
        try:
            for i in range(-2, 3 if self.tiny else 8):
                if i == 0:
                    probe = self.probe()
                stamps: list[float] = []
                workload.op(stamps)
                if i >= 0:
                    self.recorder.op("gang.launch", workload.children, i, stamps)
                    durations.append(stamps[-1] - stamps[0])
            scale = MS * self.factor(probe)
        finally:
            workload.teardown()
        self.metrics["gang.per_rank_ms"] = (
            scale * statistics.median(durations) / workload.ranks)


def measure_all(recorder, seed: int, tiny: bool):
    layers = Layers(recorder, seed, tiny)
    for part in (layers.codec_and_framing, layers.store_and_notify,
                 layers.inmem, layers.tcp, layers.dispatch_residual,
                 layers.federation, layers.tdp_and_sim, layers.condor,
                 layers.pilot, layers.gang):
        gc.collect()
        part()
    return layers.metrics, layers.notes
