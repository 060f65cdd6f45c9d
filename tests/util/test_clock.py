"""Unit tests for clock abstractions."""

import sys
import threading
import time
import weakref

import pytest

from repro.util import clock as clock_module
from repro.util.clock import Stopwatch, VirtualClock, WallClock


def test_wall_clock_monotonic():
    c = WallClock()
    t0 = c.now()
    t1 = c.now()
    assert t1 >= t0


def test_virtual_clock_starts_at_zero():
    assert VirtualClock().now() == 0.0


def test_virtual_clock_advance():
    c = VirtualClock()
    assert c.advance(1.5) == 1.5
    assert c.advance(0.5) == 2.0
    assert c.now() == 2.0


def test_virtual_clock_advance_to_only_forward():
    c = VirtualClock(start=10.0)
    assert c.advance_to(5.0) == 10.0  # no travel back
    assert c.advance_to(12.0) == 12.0


def test_virtual_clock_rejects_negative_delta():
    with pytest.raises(ValueError):
        VirtualClock().advance(-1.0)


def test_elapsed_since():
    c = VirtualClock()
    t0 = c.now()
    c.advance(3.0)
    assert c.elapsed_since(t0) == 3.0


def test_stopwatch_virtual():
    c = VirtualClock()
    with Stopwatch(c) as sw:
        c.advance(2.0)
    assert sw.seconds == 2.0


def test_stopwatch_wall_default():
    with Stopwatch() as sw:
        pass
    assert sw.seconds >= 0.0


class TestCallLater:
    def test_wall_timer_fires(self):
        fired = threading.Event()
        WallClock().call_later(0.01, fired.set)
        assert fired.wait(timeout=5.0)

    def test_wall_timer_cancel(self):
        fired = threading.Event()
        handle = WallClock().call_later(5.0, fired.set)
        assert handle.cancel() is True
        assert handle.cancel() is False  # idempotent
        assert not fired.wait(timeout=0.05)

    def test_virtual_timer_fires_on_advance(self):
        c = VirtualClock()
        fired = threading.Event()
        c.call_later(10.0, fired.set)
        c.advance(5.0)
        assert not fired.wait(timeout=0.05), "fired before its deadline"
        c.advance(5.0)
        assert fired.wait(timeout=5.0)

    def test_virtual_timer_never_fires_without_advance(self):
        c = VirtualClock()
        fired = threading.Event()
        c.call_later(0.001, fired.set)
        # Wall time passing is irrelevant to a virtual deadline.
        assert not fired.wait(timeout=0.1)

    def test_virtual_timer_cancel(self):
        c = VirtualClock()
        fired = threading.Event()
        handle = c.call_later(1.0, fired.set)
        assert handle.cancel() is True
        c.advance(2.0)
        assert not fired.wait(timeout=0.05)

    def test_virtual_timers_fire_in_deadline_order(self):
        c = VirtualClock()
        order: list[str] = []
        done = threading.Event()
        c.call_later(2.0, lambda: (order.append("late"), done.set()))
        c.call_later(1.0, lambda: order.append("early"))
        c.advance(3.0)
        assert done.wait(timeout=5.0)
        assert order == ["early", "late"]

    def test_virtual_callback_runs_off_advancing_thread(self):
        c = VirtualClock()
        seen: list[threading.Thread] = []
        done = threading.Event()
        c.call_later(1.0, lambda: (seen.append(threading.current_thread()), done.set()))
        c.advance(1.0)
        assert done.wait(timeout=5.0)
        assert seen[0] is not threading.current_thread()

    def test_zero_delay_virtual_timer_needs_any_advance(self):
        c = VirtualClock()
        fired = threading.Event()
        c.call_later(0.0, fired.set)
        c.advance(0.0)
        assert fired.wait(timeout=5.0)


class TestWallTimerHeap:
    """Every WallClock shares one deadline heap served by one thread."""

    @staticmethod
    def heap_size() -> int:
        timers = clock_module._WALL_TIMERS
        with timers._cond:
            return len(timers._heap)

    def test_many_wall_timers_share_one_thread(self):
        threads_before = threading.active_count()
        handles = [WallClock().call_later(60.0, lambda: None) for _ in range(1000)]
        try:
            assert threading.active_count() - threads_before <= 1
        finally:
            for handle in handles:
                handle.cancel()

    def test_wall_timers_fire_in_deadline_order(self):
        order: list[str] = []
        done = threading.Event()
        c = WallClock()
        c.call_later(0.06, lambda: (order.append("late"), done.set()))
        c.call_later(0.02, lambda: order.append("early"))
        c.call_later(0.04, lambda: order.append("middle"))
        assert done.wait(timeout=5.0)
        assert order == ["early", "middle", "late"]

    def test_cancelled_timers_leave_the_heap_and_free_their_callbacks(self):
        class Callback:
            def __call__(self):
                raise AssertionError("a cancelled timer fired")

        before = self.heap_size()
        first = Callback()
        freed = weakref.ref(first)
        handle = WallClock().call_later(60.0, first)
        assert handle.cancel() is True
        del first
        assert freed() is None  # the cancel dropped the callback at once

        c = WallClock()
        for _ in range(100_000):
            c.call_later(60.0, Callback()).cancel()
        # Cancelled entries are purged once they outnumber live ones.
        assert self.heap_size() < 2 * before + 100

    def test_fired_timer_keeps_nothing_alive(self):
        fired = threading.Event()

        class Callback:
            def __call__(self):
                fired.set()

        callback = Callback()
        freed = weakref.ref(callback)
        WallClock().call_later(0.0, callback)
        del callback
        assert fired.wait(timeout=5.0)
        deadline = time.monotonic() + 5.0
        while freed() is not None and time.monotonic() < deadline:
            time.sleep(0.001)
        assert freed() is None

    def test_concurrent_arms_and_cancels_keep_the_heap_consistent(self):
        fired: list[tuple[int, int]] = []
        refused: list[int] = []
        workers, per_worker = 8, 400
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def arm(worker):
                c = WallClock()
                for i in range(per_worker):
                    if i % 2:
                        if not c.call_later(60.0, lambda: None).cancel():
                            refused.append(i)
                    else:
                        c.call_later(0.001, lambda i=i: fired.append((worker, i)))

            threads = [
                threading.Thread(target=arm, args=(w,)) for w in range(workers)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(previous)
        expected = sorted(
            (w, i) for w in range(workers) for i in range(0, per_worker, 2)
        )
        deadline = time.monotonic() + 10.0
        while len(fired) < len(expected) and time.monotonic() < deadline:
            time.sleep(0.005)
        assert sorted(fired) == expected  # each kept timer fired once
        assert refused == []
        timers = clock_module._WALL_TIMERS
        with timers._cond:
            assert timers._cancelled == sum(
                1 for entry in timers._heap if entry.callback is None
            )

    def test_failing_callback_does_not_stop_the_service(self):
        fired = threading.Event()

        def boom():
            raise RuntimeError("callback bug")

        WallClock().call_later(0.0, boom)
        WallClock().call_later(0.01, fired.set)
        assert fired.wait(timeout=5.0)
