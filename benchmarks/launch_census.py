"""SENDER, COPY — what one warm launch costs in threads, hand-offs, codec
and memory.

Builds a tdpbench launch workload in this process, runs its warm-up, then
counts over ``N`` measured launches: the attribute-space frames routed per
launch and on which kind of thread (an ``attr-client-*`` receive thread,
or the sender's own), the in-memory channels' messages by codec path
(flat copy, JSON pass, pre-encoded decode, or a checkout's framed round
trip through bytes) with the thread CPU spent in them, thread starts by
name, voluntary and involuntary context switches, process CPU, the peak
of live threads and the process's peak RSS, and at the end a breakdown of
resident memory by mapping kind (Linux ``/proc/self/smaps``).

    taskset -c 0 python benchmarks/launch_census.py [CHECKOUT] [WORKLOAD] [N]

``CHECKOUT`` (default: this one) names the tree whose ``src`` and
``benchmarks/tdpbench`` are imported, so two checkouts are compared with
the same code; ``WORKLOAD`` is ``mpi_gang8`` (default) or
``pilot_launch``; ``N`` defaults to 30.
"""

import os
import resource
import sys
import threading
import time
from collections import Counter

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PREFIXES = ("attr-client-", "paradynd-cmd-", "mpi-rank-", "starter-",
            "paradynd-", "shadow-", "stdio-")


def smaps_mb() -> dict:
    """Resident MB and mapping count per kind of mapping."""
    rss, maps = Counter(), Counter()
    name, size = "anon", 0
    with open("/proc/self/smaps") as f:
        for line in f:
            head = line.split()
            if head[0] == "Size:":
                size = int(head[1])
            elif head[0] == "Rss:":
                if name == "[heap]":
                    kind = "main heap"
                elif name != "anon":
                    kind = "file-backed"
                elif 8000 <= size <= 8200:
                    kind = "thread stacks"  # 8 MB default stack mappings
                else:
                    kind = "other anonymous"
                rss[kind] += int(head[1])
                maps[kind] += 1
            elif not head[0].endswith(":"):  # a mapping's header line
                name = head[5] if len(head) > 5 else "anon"
    return {kind: (maps[kind], round(rss[kind] / 1024, 2)) for kind in sorted(rss)}


def tap_inmem_codec(recording):
    """Count what ``_InMemChannel.offer`` asks of the codec, by path, and
    the thread CPU ns it spends there, while ``recording()`` is true.  A
    checkout without ``framing.copy_frame`` frames every message: its
    ``encode_frame`` then ``decode_frame`` is one framed round trip."""
    from repro.transport import framing

    paths, spent, framed = Counter(), [0], threading.local()

    def tap(name, classify):
        real = getattr(framing, name)

        def tapped(*args):
            if not recording() or sys._getframe(1).f_globals.get(
                    "__name__") != "repro.transport.inmem":
                return real(*args)
            start = time.thread_time_ns()
            result = real(*args)
            spent[0] += time.thread_time_ns() - start
            path = classify(result)
            if path:
                paths[path] += 1
            return result

        setattr(framing, name, tapped)

    def encoded(_frame):
        framed.pending = True

    def decoded(_message):
        if getattr(framed, "pending", False):
            framed.pending = False
            return "framed round trip"
        return "pre-encoded decode"

    if hasattr(framing, "copy_frame"):
        tap("copy_frame", lambda r: "flat copy" if r[1] is None else "JSON pass")
    else:
        tap("encode_frame", encoded)
    tap("decode_frame", decoded)
    return paths, spent


def main() -> None:
    checkout = os.path.abspath(sys.argv[1]) if len(sys.argv) > 1 else REPO
    workload = sys.argv[2] if len(sys.argv) > 2 else "mpi_gang8"
    n = int(sys.argv[3]) if len(sys.argv) > 3 else 30
    sys.path[:0] = [os.path.join(checkout, "benchmarks", "tdpbench"),
                    os.path.join(checkout, "src")]
    import workloads
    from repro.attrspace.client import _Session

    on = False
    routes, starts = Counter(), Counter()
    peak_threads = 0
    route, start = _Session._route, threading.Thread.start

    def counted_route(self, message):
        if on:
            where = ("attr-client thread"
                     if threading.current_thread().name.startswith("attr-client-")
                     else "sender's thread")
            routes[where, "notify" if message.get("op") == "notify" else "reply"] += 1
        return route(self, message)

    def counted_start(self):
        nonlocal peak_threads
        result = start(self)
        if on:
            starts[next((p for p in PREFIXES if self.name.startswith(p)), self.name)] += 1
            peak_threads = max(peak_threads, threading.active_count())
        return result

    _Session._route = counted_route
    threading.Thread.start = counted_start
    paths, codec_ns = tap_inmem_codec(lambda: on)
    cls = workloads.WORKLOADS[workload]
    launch = cls(workloads.Inputs(1), False)
    launch.build()
    for _ in range(cls.warmup_ops):
        launch.op(None)
    before, cpu = resource.getrusage(resource.RUSAGE_SELF), time.process_time()
    on = True
    latencies = sorted(launch.op(None) * 1e3 for _ in range(n))
    on = False
    cpu = time.process_time() - cpu
    after = resource.getrusage(resource.RUSAGE_SELF)
    memory = smaps_mb()
    launch.teardown()
    print(f"{workload}: {n} warm launches, p50 {latencies[n // 2]:.2f} ms")
    print("frames routed per launch:",
          {f"{k[1]} on {k[0]}": round(v / n, 1) for k, v in sorted(routes.items())})
    frames = sum(paths.values())
    print("in-memory messages per launch by codec path:",
          {k: round(v / n, 1) for k, v in sorted(paths.items())},
          f"codec CPU per launch {codec_ns[0] / n / 1e3:.0f} us"
          f" ({codec_ns[0] / max(frames, 1) / 1e3:.2f} us per message)")
    print(f"thread starts per launch: {sum(starts.values()) / n:.2f}",
          {k: round(v / n, 2) for k, v in sorted(starts.items())})
    print(f"context switches per launch: voluntary "
          f"{(after.ru_nvcsw - before.ru_nvcsw) / n:.0f}, involuntary "
          f"{(after.ru_nivcsw - before.ru_nivcsw) / n:.0f}")
    print(f"process CPU per launch: {cpu / n * 1e3:.1f} ms")
    print(f"peak live threads {peak_threads}, peak RSS {after.ru_maxrss / 1024:.2f} MB")
    print("resident by mapping kind (maps, MB):", memory)


if __name__ == "__main__":
    main()
