"""HANDOFF — what one cross-thread hand-off costs on the in-memory path.

Times the two primitives every in-memory frame, reply and event crosses:
a ``WaitableQueue`` ping-pong hop (one thread puts, the other is parked
in ``get``), the same hop on ``queue.SimpleQueue`` as the C-level floor,
and a ``Latch`` per RPC (create, open, wait) on one thread and across
two.  Reports the median of ``ROUNDS`` rounds, in microseconds.

    PYTHONPATH=src taskset -c 0 python benchmarks/handoff_micro.py

Point ``PYTHONPATH`` at another checkout's ``src`` to time its
primitives with the same code.
"""

import queue
import statistics
import threading
import time

from repro.util.sync import Latch, WaitableQueue

ROUNDS = 9
HOPS = 20_000
LATCHES = 50_000


def hop_us(make) -> float:
    """One-way hop: main puts on ``a`` and parks on ``b``; a peer echoes."""
    a, b = make(), make()

    def echo():
        for _ in range(HOPS):
            b.put(a.get())

    peer = threading.Thread(target=echo)
    peer.start()
    t0 = time.perf_counter()
    for i in range(HOPS):
        a.put(i)
        b.get()
    elapsed = time.perf_counter() - t0
    peer.join()
    return elapsed / (2 * HOPS) * 1e6


def latch_us() -> float:
    """Create, open and wait one latch (an RPC's reply gate, uncontended)."""
    t0 = time.perf_counter()
    for i in range(LATCHES):
        latch = Latch()
        latch.open(i)
        latch.wait(30.0)
    return (time.perf_counter() - t0) / LATCHES * 1e6


def cross_latch_us() -> float:
    """A latch opened by another thread while the waiter is parked."""
    n = HOPS // 2
    asks, answers = [Latch() for _ in range(n)], [Latch() for _ in range(n)]

    def opener():
        for i in range(n):
            asks[i].wait()
            answers[i].open(i)

    peer = threading.Thread(target=opener)
    peer.start()
    t0 = time.perf_counter()
    for i in range(n):
        asks[i].open(None)
        answers[i].wait()
    elapsed = time.perf_counter() - t0
    peer.join()
    return elapsed / (2 * n) * 1e6


def main() -> None:
    cases = {
        "WaitableQueue hop": lambda: hop_us(WaitableQueue),
        "SimpleQueue hop": lambda: hop_us(queue.SimpleQueue),
        "Latch create/open/wait": latch_us,
        "Latch cross-thread": cross_latch_us,
    }
    samples: dict[str, list[float]] = {name: [] for name in cases}
    for _ in range(ROUNDS):  # interleaved, so drift hits every case alike
        for name, case in cases.items():
            samples[name].append(case())
    for name, values in samples.items():
        q1, _, q3 = statistics.quantiles(values, n=4)
        print(f"{name:24s} {statistics.median(values):6.2f} us  [IQR {q3 - q1:.2f}]")


if __name__ == "__main__":
    main()
