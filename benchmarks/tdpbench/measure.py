"""Shared measuring tools: percentiles, the span recorder, process facts.

Everything here is the benchmark's own; nothing is imported from the
program under test, so the runner can use it in a checkout where
``src/`` is absent (and fail there for the right reason).
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import socket
import statistics
import sys
import threading
import time

clock = time.perf_counter

#: spans of one name written to trace.json; the recorder keeps every
#: span in memory for the medians, the file keeps a readable prefix
SPANS_WRITTEN_PER_NAME = 200


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (q in 0..1)."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def spread_share(values: list[float]) -> float:
    """Interquartile distance as a share of the median — the contract's
    run-to-run spread (``statistics.quantiles(values, n=4)``)."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def status_kb(field: str) -> int:
    """A kB figure of this process from ``/proc/self/status``:
    ``VmHWM`` is the peak resident set, ``VmRSS`` the current one."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"no {field} in /proc/self/status")


def peak_rss_mb() -> float:
    return status_kb("VmHWM") / 1024.0


def environment() -> dict:
    """Facts a reader needs to judge two records comparable."""
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    try:
        load = os.getloadavg()[0]
    except OSError:
        load = None
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "rlimit_nofile": [soft, hard],
        "loadavg_1m": load,
        "platform": sys.platform,
    }


def pin_to_cpu(cpu: int) -> int | None:
    """Pin this process (and its future threads) to one CPU.

    On a 2-vCPU guest a thread hand-off costs ~7 µs while both threads
    share a CPU and ~40 µs once the scheduler spreads them (the wake-up
    becomes an inter-processor interrupt to a halted vCPU).  The kernel
    migrates after a second or two of load, so an unpinned run is fast,
    then slow, then drifts — the "3x spread" of EXPERIMENTS.md.  The
    program is one GIL-bound process either way; pinning removes the
    bistability without removing any parallelism it had.  The runner
    keeps itself off the chosen CPU.
    """
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        return None
    return cpu


#: the host speed every time is reported at: a host on which each half
#: of ``HostProbe`` takes one millisecond (this sandbox, undisturbed,
#: takes about 1.05 ms and 0.75 ms)
REFERENCE_PROBE_S = 1.0e-3


class HostProbe:
    """How fast the host runs right now, by a job that is not the program.

    The sandbox is a 2-vCPU guest.  Pinned to an otherwise idle vCPU, a
    fixed loop of pure computation takes 1.3 to 2 times longer for
    seconds or minutes at a time, with no steal time booked — the cause
    is on the host (a busy hyper-thread sibling, most likely) — and the
    program under test slows down in proportion.  At other times the
    loop runs at full speed while everything that enters the kernel
    (wake-ups, context switches, sockets) takes 1.5 times longer.  So
    the probe has two halves: the loop, and a byte bounced off an echo
    thread over a socket pair.  ``()`` returns the seconds each takes,
    best of three (an interrupt inside one attempt is not the host's
    speed).  Times measured between two probes are scaled by
    ``speed_factor`` to a host where each half takes
    ``REFERENCE_PROBE_S``.
    """

    LOOP = 20_000
    BOUNCES = 120

    def __init__(self) -> None:
        self.near, self.far = socket.socketpair()
        threading.Thread(target=self._echo, daemon=True,
                         name="tdpbench-host-probe").start()

    def _echo(self) -> None:
        recv, send = self.far.recv, self.far.send
        while True:
            data = recv(16)
            if not data:
                return
            send(data)

    def __call__(self) -> tuple[float, float]:
        loop = bounce = float("inf")
        send, recv = self.near.send, self.near.recv
        for _ in range(3):
            total = 0
            t0 = clock()
            for i in range(self.LOOP):
                total += i * i
            t1 = clock()
            for _i in range(self.BOUNCES):
                send(b"x")
                recv(16)
            t2 = clock()
            loop = min(loop, t1 - t0)
            bounce = min(bounce, t2 - t1)
        return loop, bounce


def speed_factor(before: tuple[float, float], after: tuple[float, float]) -> float:
    """What to multiply a time by to state it at the reference speed:
    the geometric mean of the two halves' slow-downs, each the mean of
    the probes on either side of the measurement."""
    loop = (before[0] + after[0]) / 2 / REFERENCE_PROBE_S
    bounce = (before[1] + after[1]) / 2 / REFERENCE_PROBE_S
    return 1.0 / math.sqrt(loop * bounce)


class SpanRecorder:
    """In-memory spans, written out once at exit.

    A span is ``(name, request id, parent index or -1, start, end)``;
    spans of one operation share its request id.  ``layer`` is the part
    of the name before the first dot.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, float, float]] = []

    def add(self, name: str, req: int, start: float, end: float,
            parent: int = -1) -> int:
        self.spans.append((name, req, parent, start, end))
        return len(self.spans) - 1

    def op(self, root: str, children: tuple[str, ...], req: int,
           stamps: list[float]) -> None:
        """One operation from its boundary stamps: ``stamps[0]`` and
        ``stamps[-1]`` bound the root, consecutive pairs the children."""
        parent = self.add(root, req, stamps[0], stamps[-1])
        for i, name in enumerate(children):
            self.add(name, req, stamps[i], stamps[i + 1], parent)

    def to_json(self) -> dict:
        written: dict[str, int] = {}
        kept: dict[int, int] = {}
        out = []
        for index, (name, req, parent, start, end) in enumerate(self.spans):
            # children follow their root, so a kept root decides for them
            if parent >= 0:
                if parent not in kept:
                    continue
            else:
                written[name] = written.get(name, 0) + 1
                if written[name] > SPANS_WRITTEN_PER_NAME:
                    continue
            kept[index] = len(out)
            out.append({
                "id": len(out),
                "parent": kept[parent] if parent >= 0 else None,
                "req": req,
                "layer": name.split(".", 1)[0],
                "name": name,
                "start_us": round(start * 1e6, 3),
                "end_us": round(end * 1e6, 3),
            })
        return {"recorded": len(self.spans), "written": len(out), "spans": out}


def write_json(path: str, payload) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")
    os.replace(tmp, path)
