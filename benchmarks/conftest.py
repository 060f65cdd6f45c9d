"""Benchmark-suite configuration and shared reporting helpers.

Every bench regenerates one paper artifact (figure/claim) and prints the
same rows/series the paper reports, so `pytest benchmarks/
--benchmark-only -s` reproduces the evaluation narrative end to end.

On session finish the suite additionally emits ``BENCH_attrspace.json``
at the repo root: put/get/put_many ops/sec plus latency percentiles
taken from the ``repro.obs`` RPC histograms, a pipelined single-op
series over a real TCP socket with the negotiated binary codec, and an
idle-subscriber population series (connection-setup rate + resident
memory) against the event-loop server — one stable record per run to
seed the performance trajectory.  Before overwriting, the committed
record is compared against the fresh one: any shared ops/sec series
that regressed by more than 30% fails the session.
"""

import gc
import json
import sys
import time
import traceback

sys.setrecursionlimit(100_000)  # see tests/conftest.py

#: operations per primitive in the emission microbench (kept small — it
#: runs after *every* bench session, including single-file ones)
BENCH_ROUNDS = 400

#: sub-ops per OP_BATCH frame in the put_many series — one round trip
#: amortized over this many puts
BENCH_BATCH_SIZE = 50

#: a fresh ops/sec series below this fraction of the committed record
#: is a regression and fails the bench session
REGRESSION_FLOOR = 0.70

#: in-flight request window for the pipelined single-op TCP series —
#: at most this many replies sit unread, which matches the server's
#: OUTBOUND_QUEUE_LIMIT exactly; a larger window trips the
#: slow-subscriber disconnect
BENCH_TCP_WINDOW = 512

#: measured operations per trial in the single-op TCP series (after a
#: warm pass)
BENCH_TCP_OPS = 12_000

#: fresh-connection trials in the single-op TCP series; the recorded
#: series is the best trial.  The client/loop thread rhythm (and with
#: it the read-burst coalescing efficiency) settles per connection, so
#: single-connection runs are bimodal — best-of-N measures the
#: transport's capability rather than one connection's scheduling luck
BENCH_TCP_TRIALS = 3

#: idle-subscriber population target; capped to the process fd limit
#: (each in-process subscriber costs two fds: client + accepted socket)
BENCH_IDLE_SUBSCRIBERS = 10_000

#: fds left free for the test harness, listener, and stdio when capping
BENCH_FD_HEADROOM = 96

#: notification-storm population target (spread across the LASS tier)
BENCH_STORM_SUBSCRIBERS = 10_000

#: LASS hosts in the storm's federated tier (acceptance floor: ≥ 8)
BENCH_STORM_HOSTS = 8

#: storm events (puts at the CASS) fanned to the whole population
BENCH_STORM_EVENTS = 5

#: fds the federated tier itself consumes (listeners, upstream
#: sessions, the writer) — reserved on top of BENCH_FD_HEADROOM
BENCH_STORM_TIER_FDS = 64


def pytest_sessionfinish(session, exitstatus):
    if getattr(session.config.option, "collectonly", False):
        return
    # Park the session's accumulated object graphs (collected items,
    # fixtures, prior-bench leftovers) in the GC permanent generation:
    # cyclic collections walking them mid-measurement cost the TCP
    # series ~20% throughput.
    gc.collect()
    gc.freeze()
    try:
        payload = _attrspace_microbench()
        # The TCP series run outside the obs-enabled window above so the
        # counter increments on the socket hot path don't tax them.
        payload["single_op_tcp"] = _single_op_tcp_bench()
        payload["idle_subscribers"] = _idle_subscriber_bench()
        payload["notify_storm_10k"] = _notify_storm_bench()
    except Exception:  # a broken bench is a failed run, not a skipped one
        print("\n[bench] BENCH_attrspace.json emission FAILED:")
        traceback.print_exc()
        session.exitstatus = 1
        return
    finally:
        gc.unfreeze()
    out = session.config.rootpath / "BENCH_attrspace.json"
    committed = _load_committed(out)
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\n[bench] wrote {out}")
    regressions = _find_regressions(committed, payload)
    if regressions:
        for line in regressions:
            print(f"[bench] REGRESSION: {line}")
        session.exitstatus = 1


def _load_committed(path):
    """The previously committed record, or None when absent/unreadable."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def _find_regressions(committed: dict | None, fresh: dict) -> list[str]:
    """ops/sec series present in both records that fell below the floor."""
    if not isinstance(committed, dict):
        return []
    problems = []
    for key, old_series in committed.items():
        if not isinstance(old_series, dict) or "ops_per_sec" not in old_series:
            continue
        new_series = fresh.get(key)
        if not isinstance(new_series, dict) or "ops_per_sec" not in new_series:
            continue
        old_ops = old_series["ops_per_sec"]
        new_ops = new_series["ops_per_sec"]
        if old_ops > 0 and new_ops < REGRESSION_FLOOR * old_ops:
            problems.append(
                f"{key}.ops_per_sec {new_ops:.1f} < "
                f"{REGRESSION_FLOOR:.0%} of committed {old_ops:.1f}"
            )
    return problems


def _ms(value):
    return None if value is None else round(value * 1000.0, 4)


def _attrspace_microbench(rounds: int = BENCH_ROUNDS) -> dict:
    """Timed put/get loops against one LASS; percentiles from obs."""
    from repro import obs
    from repro.attrspace.client import AttributeSpaceClient
    from repro.attrspace.server import AttributeSpaceServer, ServerRole
    from repro.sim.cluster import SimCluster

    was_enabled = obs.enabled()
    obs.set_enabled(True)
    obs.reset()  # fresh default-registry histograms for this measurement
    try:
        with SimCluster.flat(["node1"]) as cluster:
            lass = AttributeSpaceServer(
                cluster.transport, "node1", role=ServerRole.LASS
            )
            channel = cluster.transport.connect("node1", lass.endpoint)
            client = AttributeSpaceClient(channel, member="bench-emit")
            t0 = time.perf_counter()
            for i in range(rounds):
                client.put(f"bench.k{i % 64}", "v")
            put_elapsed = time.perf_counter() - t0
            t0 = time.perf_counter()
            for i in range(rounds):
                client.get(f"bench.k{i % 64}", timeout=5.0)
            get_elapsed = time.perf_counter() - t0
            t0 = time.perf_counter()
            for start in range(0, rounds, BENCH_BATCH_SIZE):
                client.put_many(
                    [
                        (f"bench.b{(start + j) % 64}", "v")
                        for j in range(BENCH_BATCH_SIZE)
                    ]
                )
            put_many_elapsed = time.perf_counter() - t0
            client.close()
            lass.stop()

        def series(op: str, elapsed: float) -> dict:
            summary = obs.registry().histogram(
                f"attrspace.client.rpc.{op}"
            ).summary()
            return {
                "ops_per_sec": round(rounds / elapsed, 1),
                "count": summary["count"],
                "p50_ms": _ms(summary["p50"]),
                "p95_ms": _ms(summary["p95"]),
                "p99_ms": _ms(summary["p99"]),
            }

        put_many = series("batch", put_many_elapsed)
        put_many["batch_size"] = BENCH_BATCH_SIZE
        return {
            "suite": "attrspace",
            "transport": "inmem",
            "rounds": rounds,
            "put": series("put", put_elapsed),
            "get": series("get", get_elapsed),
            # ops_per_sec counts sub-op puts; the percentiles are whole
            # OP_BATCH round trips (count = rounds / batch_size frames)
            "put_many": put_many,
        }
    finally:
        obs.set_enabled(was_enabled)


def _single_op_tcp_bench(ops: int = BENCH_TCP_OPS,
                         window: int = BENCH_TCP_WINDOW,
                         trials: int = BENCH_TCP_TRIALS) -> dict:
    """Pipelined single-op puts over one negotiated-binary TCP channel.

    Keeps ``window`` requests in flight and receives one reply at a
    time, so the throughput reflects event-loop dispatch and codec cost
    rather than one-at-a-time round-trip latency.  The percentiles are
    per-op send-to-reply times of the pipelined stream — at window W
    the expected per-op latency is roughly W / throughput.  Runs
    ``trials`` fresh connections and keeps the fastest (see
    BENCH_TCP_TRIALS for why).
    """
    import collections

    from repro.attrspace.server import AttributeSpaceServer, ServerRole
    from repro.transport.tcp import TcpTransport

    transport = TcpTransport()
    server = AttributeSpaceServer(transport, "bench-node", role=ServerRole.CASS)

    def trial():
        channel = transport.connect("bench", server.endpoint, timeout=5.0)
        try:
            reply = channel.request(
                {"op": "attach", "req": 0, "context": "bench",
                 "member": "tcp-bench"},
                timeout=5.0,
            )
            if not reply.get("ok"):
                raise RuntimeError(f"attach failed: {reply}")

            def run(n: int):
                send, recv = channel.send, channel.recv
                clock = time.perf_counter
                stamps: collections.deque[float] = collections.deque()
                latencies = []
                req, done, inflight = 10, 0, 0
                last = 10 + n
                start = clock()
                while done < n:
                    while inflight < window and req < last:
                        stamps.append(clock())
                        send({"op": "put", "req": req, "context": "bench",
                              "attribute": f"k{req % 64}", "value": "v"})
                        inflight += 1
                        req += 1
                    recv(timeout=10.0)
                    # No subscribers on this context, so replies are the
                    # only inbound frames and arrive in request order.
                    latencies.append(clock() - stamps.popleft())
                    inflight -= 1
                    done += 1
                return n / (clock() - start), latencies

            run(min(2000, ops))  # warm the codec and loop paths
            rate, latencies = run(ops)
            return rate, latencies, channel.codec
        finally:
            channel.close()

    try:
        rate, latencies, codec = max(
            (trial() for _ in range(trials)), key=lambda t: t[0]
        )
    finally:
        server.stop()

    latencies.sort()

    def pct(q: float) -> float:
        return latencies[min(len(latencies) - 1, int(q * len(latencies)))]

    return {
        "ops_per_sec": round(rate, 1),
        "count": ops,
        "p50_ms": _ms(pct(0.50)),
        "p95_ms": _ms(pct(0.95)),
        "p99_ms": _ms(pct(0.99)),
        "transport": "tcp",
        "codec": codec,
        "window": window,
        "trials": trials,
    }


def _idle_subscriber_bench(target: int = BENCH_IDLE_SUBSCRIBERS) -> dict:
    """Connection-setup rate and resident memory for a population of
    idle subscribers parked on the event-loop server.

    The population is capped to fit the process fd limit; the record
    keeps both the requested and the actual count so a capped run never
    reads as full coverage.  ``ops_per_sec`` is connection setups per
    second (attach + subscribe acknowledged).
    """
    import resource
    import threading

    from repro.attrspace.server import AttributeSpaceServer, ServerRole
    from repro.transport.tcp import TcpTransport

    soft, _hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    count = max(0, min(target, (soft - BENCH_FD_HEADROOM) // 2))
    if count < target:
        print(f"\n[bench] idle_subscribers capped at {count} of {target} "
              f"requested (RLIMIT_NOFILE soft limit {soft})")

    transport = TcpTransport()
    server = AttributeSpaceServer(transport, "bench-node", role=ServerRole.CASS)
    channels = []
    rss_before = _rss_kb()
    start = time.perf_counter()
    try:
        for i in range(count):
            ch = transport.connect("bench", server.endpoint, timeout=5.0)
            ch.send_many([
                {"op": "attach", "req": 0, "context": "bench",
                 "member": f"idle-{i}"},
                {"op": "subscribe", "req": 1, "context": "bench",
                 "pattern": "hot"},
            ])
            channels.append(ch)
        for ch in channels:
            for _ in range(2):
                reply = ch.recv(timeout=30.0)
                if not reply.get("ok"):
                    raise RuntimeError(f"subscriber setup failed: {reply}")
        elapsed = time.perf_counter() - start
        rss_after = _rss_kb()
        threads = threading.active_count()
    finally:
        server.stop()
        for ch in channels:
            ch.close()

    rss_delta = (
        None if rss_before is None or rss_after is None
        else round((rss_after - rss_before) / 1024.0, 1)
    )
    return {
        "ops_per_sec": round(count / elapsed, 1) if count else 0.0,
        "count": count,
        "requested": target,
        "rss_delta_mb": rss_delta,
        "threads": threads,
        "transport": "tcp",
    }


def _notify_storm_bench(target: int = BENCH_STORM_SUBSCRIBERS,
                        hosts: int = BENCH_STORM_HOSTS,
                        events: int = BENCH_STORM_EVENTS) -> dict:
    """Fan-out economics of the federated tier: a notification storm to
    ~10k subscribers spread over ``hosts`` LASSes behind one CASS.

    Each subscriber is a raw channel parked on its host's LASS with a
    ``storm.*`` subscription; the LASSes aggregate those into ONE
    upstream subscription per host.  A writer attached directly at the
    CASS puts ``events`` attributes; the CASS emits exactly one frame
    per event per host (asserted from its obs counters — the O(hosts)
    egress claim), and each LASS re-fans locally.  ``ops_per_sec`` is
    end-to-end deliveries per second: events × population / elapsed,
    clocked from the first put to the last subscriber drained.
    """
    import resource

    from repro.attrspace.client import AttributeSpaceClient
    from repro.attrspace.lass import LassServer
    from repro.attrspace.server import AttributeSpaceServer, ServerRole
    from repro.transport.tcp import TcpTransport

    soft, _hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    budget = (soft - BENCH_FD_HEADROOM - BENCH_STORM_TIER_FDS) // 2
    count = max(hosts, min(target, budget))
    if count < target:
        print(f"\n[bench] notify_storm_10k capped at {count} of {target} "
              f"requested (RLIMIT_NOFILE soft limit {soft})")

    transport = TcpTransport()
    cass = AttributeSpaceServer(transport, "storm-hub", role=ServerRole.CASS)
    lasses = [
        LassServer(transport, f"storm-n{i}", upstream=cass.endpoint)
        for i in range(hosts)
    ]
    channels = []
    writer = None
    try:
        for i in range(count):
            lass = lasses[i % hosts]
            ch = transport.connect("storm", lass.endpoint, timeout=5.0)
            ch.send_many([
                {"op": "attach", "req": 0, "context": "bench",
                 "member": f"storm-{i}"},
                {"op": "subscribe", "req": 1, "context": "bench",
                 "pattern": "storm.*"},
            ])
            channels.append(ch)
        for ch in channels:
            for _ in range(2):
                reply = ch.recv(timeout=30.0)
                if not reply.get("ok"):
                    raise RuntimeError(f"storm subscriber setup failed: {reply}")
        # every host's aggregate must be parked upstream before the storm
        deadline = time.perf_counter() + 30.0
        while len(cass.store.subscriptions) < hosts:
            if time.perf_counter() > deadline:
                raise RuntimeError(
                    f"only {len(cass.store.subscriptions)} of {hosts} "
                    "aggregated subscriptions reached the CASS"
                )
            time.sleep(0.01)
        egress_before = cass.stats["notifications"].value

        writer = AttributeSpaceClient.connect(
            transport, "storm", cass.endpoint,
            context="bench", member="storm-writer",
        )
        start = time.perf_counter()
        for k in range(events):
            writer.put(f"storm.{k}", str(k))
        for ch in channels:
            for _ in range(events):
                frame = ch.recv(timeout=60.0)
                if frame.get("op") != "notify":
                    raise RuntimeError(f"unexpected storm frame: {frame}")
        elapsed = time.perf_counter() - start

        egress = cass.stats["notifications"].value - egress_before
        if egress != events * hosts:
            raise RuntimeError(
                f"CASS egress {egress} frames != events×hosts "
                f"{events * hosts}: fan-out is not O(hosts)"
            )
    finally:
        if writer is not None:
            writer.close()
        for ch in channels:
            ch.close()
        for lass in lasses:
            lass.stop()
        cass.stop()

    deliveries = events * count
    return {
        "ops_per_sec": round(deliveries / elapsed, 1),
        "count": deliveries,
        "subscribers": count,
        "requested": target,
        "hosts": hosts,
        "events": events,
        "cass_egress_frames": egress,
        "transport": "tcp",
    }


def _rss_kb():
    """Resident set size in kB from /proc, or None off-Linux."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return None


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    """Uniform fixed-width table output for bench reports."""
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    print()
    print(title)
    print("-" * len(title))
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
