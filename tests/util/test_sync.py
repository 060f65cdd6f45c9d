"""Unit tests for synchronization primitives."""

import importlib
import os
import random
import sys
import threading
import time

import pytest

from repro.errors import ChannelClosedError, GetTimeoutError
from repro.util.sync import (
    AtomicCounter,
    Latch,
    WaitableQueue,
    arm_guard_witness,
    join_all,
    sanitize_enabled,
    set_sanitize,
    uninstall_guard_witness,
)


def await_parked(q, getters=0, peekers=0, timeout=5.0):
    """Block until ``q`` has exactly this many readers parked on gates."""
    deadline = time.monotonic() + timeout
    while (len(q._getters), len(q._peekers)) != (getters, peekers):
        assert time.monotonic() < deadline, "readers did not park"
        time.sleep(0.001)


class TestLatch:
    def test_open_then_wait(self):
        latch: Latch[int] = Latch()
        assert latch.open(42)
        assert latch.wait(timeout=1.0) == 42

    def test_first_open_wins(self):
        latch: Latch[str] = Latch()
        assert latch.open("first")
        assert not latch.open("second")
        assert latch.wait(timeout=1.0) == "first"

    def test_wait_timeout(self):
        latch: Latch[int] = Latch()
        with pytest.raises(GetTimeoutError):
            latch.wait(timeout=0.01)

    def test_peek(self):
        latch: Latch[int] = Latch()
        assert latch.peek() is None
        latch.open(7)
        assert latch.peek() == 7

    def test_cross_thread_release(self):
        latch: Latch[str] = Latch()
        t = threading.Thread(target=lambda: latch.open("hello"))
        t.start()
        assert latch.wait(timeout=2.0) == "hello"
        t.join()

    def test_every_waiter_is_released(self):
        latch: Latch[str] = Latch()
        got: list[str] = []
        waiters = [
            threading.Thread(target=lambda: got.append(latch.wait(timeout=5.0)))
            for _ in range(4)
        ]
        for t in waiters:
            t.start()
        latch.open("go")
        join_all(waiters, timeout=5.0)
        assert got == ["go"] * 4
        assert latch.wait(timeout=0) == "go"  # the gate is still open

    def test_is_open(self):
        latch: Latch[int] = Latch()
        assert not latch.is_open()
        latch.open(0)
        assert latch.is_open()

    def test_negative_timeout_does_not_wait(self):
        # Clamped to zero, as threading's waits treat it.
        with pytest.raises(GetTimeoutError):
            Latch().wait(-0.001)
        latch: Latch[int] = Latch()
        latch.open(5)
        assert latch.wait(0) == 5
        assert latch.wait(-1) == 5


class TestWaitableQueue:
    def test_fifo_order(self):
        q: WaitableQueue[int] = WaitableQueue()
        for i in range(5):
            q.put(i)
        assert [q.get(timeout=1.0) for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_get_timeout(self):
        q: WaitableQueue[int] = WaitableQueue()
        with pytest.raises(GetTimeoutError):
            q.get(timeout=0.01)

    def test_close_wakes_blocked_reader(self):
        q: WaitableQueue[int] = WaitableQueue()
        errors: list[Exception] = []

        def reader():
            try:
                q.get(timeout=5.0)
            except Exception as e:  # noqa: BLE001
                errors.append(e)

        t = threading.Thread(target=reader)
        t.start()
        q.close()
        t.join(timeout=2.0)
        assert not t.is_alive()
        assert len(errors) == 1 and isinstance(errors[0], ChannelClosedError)

    def test_graceful_drain_after_close(self):
        q: WaitableQueue[int] = WaitableQueue()
        q.put(1)
        q.put(2)
        q.close()
        assert q.get(timeout=1.0) == 1
        assert q.get(timeout=1.0) == 2
        with pytest.raises(ChannelClosedError):
            q.get(timeout=1.0)

    def test_put_after_close_raises(self):
        q: WaitableQueue[int] = WaitableQueue()
        q.close()
        with pytest.raises(ChannelClosedError):
            q.put(1)

    def test_get_nowait(self):
        q: WaitableQueue[int] = WaitableQueue()
        with pytest.raises(IndexError):
            q.get_nowait()
        q.put(9)
        assert q.get_nowait() == 9

    def test_drain(self):
        q: WaitableQueue[int] = WaitableQueue()
        q.extend([1, 2, 3])
        assert q.drain() == [1, 2, 3]
        assert len(q) == 0

    def test_offer_bound_is_exact(self):
        q: WaitableQueue[int] = WaitableQueue()
        assert q.offer(1, 2) and q.offer(2, 2)
        assert not q.offer(3, 2)
        assert q.offer(3, None)
        assert q.drain() == [1, 2, 3]
        q.close()
        with pytest.raises(ChannelClosedError):
            q.offer(4, 2)

    def test_wait_nonempty_does_not_consume(self):
        q: WaitableQueue[int] = WaitableQueue()
        assert not q.wait_nonempty(timeout=0.01)
        q.put(1)
        assert q.wait_nonempty(timeout=1.0)
        assert len(q) == 1 and q.get_nowait() == 1
        q.close()
        assert not q.wait_nonempty(timeout=1.0)  # closed empty

    def test_put_wakes_a_getter_parked_behind_a_peeker(self):
        """A peeker parked first must not absorb the wakeup the getter
        needs: the put reaches the getter at once, not at its timeout."""
        q: WaitableQueue[int] = WaitableQueue()
        peeker = threading.Thread(target=q.wait_nonempty, args=(5.0,))
        peeker.start()
        await_parked(q, peekers=1)
        got: list[tuple[int, float]] = []
        getter = threading.Thread(
            target=lambda: got.append((q.get(timeout=3.0), time.monotonic()))
        )
        getter.start()
        await_parked(q, getters=1, peekers=1)
        put_at = time.monotonic()
        q.put(7)
        join_all([getter], timeout=5.0)
        (item, got_at), = got
        assert item == 7
        assert got_at - put_at < 0.1
        q.close()  # the item went to the getter: the peeker still waits
        join_all([peeker], timeout=5.0)

    def test_extend_wakes_every_parked_reader(self):
        q: WaitableQueue[int] = WaitableQueue()
        got: list[int] = []
        readers = [
            threading.Thread(target=lambda: got.append(q.get(timeout=5.0)))
            for _ in range(3)
        ]
        for t in readers:
            t.start()
        await_parked(q, getters=3)
        q.extend([1, 2, 3])
        join_all(readers, timeout=5.0)
        assert sorted(got) == [1, 2, 3]

    def test_close_wakes_every_parked_reader(self):
        """Every reader parked when close() lands is woken with
        ChannelClosedError, and no gate is left behind."""
        q: WaitableQueue[int] = WaitableQueue()
        errors: list[Exception] = []

        def reader():
            try:
                q.get()
            except ChannelClosedError as e:
                errors.append(e)

        readers = [threading.Thread(target=reader) for _ in range(2)]
        for t in readers:
            t.start()
        await_parked(q, getters=2)
        q.close()
        join_all(readers, timeout=5.0)
        assert len(errors) == 2
        assert (len(q._getters), len(q._peekers)) == (0, 0)

    def test_timed_out_reader_leaves_no_gate(self):
        q: WaitableQueue[int] = WaitableQueue()
        with pytest.raises(GetTimeoutError):
            q.get(timeout=0.01)
        assert not q.wait_nonempty(timeout=0.01)
        assert (len(q._getters), len(q._peekers)) == (0, 0)

    def test_negative_timeouts_do_not_wait(self):
        q: WaitableQueue[int] = WaitableQueue()
        with pytest.raises(GetTimeoutError):
            q.get(timeout=-1)
        assert q.wait_nonempty(-1) is False
        q.put(3)
        assert q.get(timeout=-1) == 3


@pytest.fixture(params=["plain", "sanitized"])
def sanitizer_mode(request):
    """Run a test with the lockset witness off, then on (``TDP_SANITIZE=1``
    in-process: tracked locks, blocking checks, guarded-field witness),
    with a short switch interval so the threads interleave finely."""
    previous = sanitize_enabled()
    interval = sys.getswitchinterval()
    armed: list[str] = []
    set_sanitize(request.param == "sanitized")
    if request.param == "sanitized":
        armed = arm_guard_witness()
    sys.setswitchinterval(1e-5)
    try:
        yield request.param
    finally:
        sys.setswitchinterval(interval)
        for owner in armed:
            modname, _, clsname = owner.rpartition(".")
            module = importlib.import_module(f"repro.{modname}")
            uninstall_guard_witness(getattr(module, clsname))
        set_sanitize(previous)


class TestStress:
    """Seeded races over the rebuilt primitives."""

    PRODUCERS = CONSUMERS = 4
    PER_PRODUCER = 1000
    MAXSIZE = 8

    def test_queue_under_mixed_readers(self, sanitizer_mode):
        q: WaitableQueue[tuple[int, int]] = WaitableQueue()
        received: list[list[tuple[int, int]]] = [[] for _ in range(self.CONSUMERS)]
        ends: list[tuple[str, int]] = []  # (how a consumer ended, len at the end)
        overfull: list[int] = []

        def produce(p: int) -> None:
            for seq in range(self.PER_PRODUCER):
                while not q.offer((p, seq), self.MAXSIZE):
                    os.sched_yield()  # full: let a consumer run

        def consume(c: int) -> None:
            rng = random.Random(1000 + c)
            mine = received[c]
            try:
                while True:
                    size = len(q)
                    if size > self.MAXSIZE:
                        overfull.append(size)
                    op = rng.randrange(4)
                    try:
                        if op == 0:
                            mine.append(q.get())
                        elif op == 1:
                            mine.append(q.get(timeout=rng.choice([0, 0.001, 0.01])))
                        elif op == 2:
                            mine.append(q.get_nowait())
                        elif q.wait_nonempty(timeout=0.01):
                            mine.append(q.get_nowait())
                    except (GetTimeoutError, IndexError):
                        continue
            except ChannelClosedError:
                ends.append(("closed", len(q)))

        consumers = [threading.Thread(target=consume, args=(c,)) for c in range(self.CONSUMERS)]
        producers = [threading.Thread(target=produce, args=(p,)) for p in range(self.PRODUCERS)]
        for t in consumers + producers:
            t.start()
        join_all(producers, timeout=30.0)
        q.close()
        join_all(consumers, timeout=30.0)

        assert ends == [("closed", 0)] * self.CONSUMERS
        assert overfull == []
        everything = [item for mine in received for item in mine]
        assert sorted(everything) == [
            (p, seq) for p in range(self.PRODUCERS) for seq in range(self.PER_PRODUCER)
        ]  # each item arrived exactly once
        for mine in received:  # and each consumer saw each producer in order
            for p in range(self.PRODUCERS):
                seqs = [seq for producer, seq in mine if producer == p]
                assert seqs == sorted(seqs)
        assert (len(q._getters), len(q._peekers)) == (0, 0)

    def test_latch_racing_openers_and_waiters(self, sanitizer_mode):
        for round_ in range(20):
            latch: Latch[int] = Latch()
            start = threading.Barrier(16)
            won: list[int] = []
            seen: list[int] = []

            def opener(i: int) -> None:
                start.wait()
                if latch.open(i):
                    won.append(i)

            def waiter() -> None:
                start.wait()
                seen.append(latch.wait(timeout=10.0))

            threads = [threading.Thread(target=opener, args=(i,)) for i in range(8)]
            threads += [threading.Thread(target=waiter) for _ in range(8)]
            for t in threads:
                t.start()
            join_all(threads, timeout=10.0)
            assert len(won) == 1, round_
            assert seen == won * 8, round_


class TestJoinAll:
    def test_joins_finished_threads(self):
        threads = [threading.Thread(target=lambda: None) for _ in range(3)]
        for t in threads:
            t.start()
        join_all(threads, timeout=2.0)

    def test_raises_on_stuck_thread(self):
        gate = threading.Event()
        t = threading.Thread(target=gate.wait, daemon=True)
        t.start()
        with pytest.raises(RuntimeError, match="did not exit"):
            join_all([t], timeout=0.05)
        gate.set()
        t.join(timeout=2.0)


class TestAtomicCounter:
    def test_concurrent_increments(self):
        c = AtomicCounter()
        threads = [
            threading.Thread(target=lambda: [c.increment() for _ in range(1000)])
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 4000
