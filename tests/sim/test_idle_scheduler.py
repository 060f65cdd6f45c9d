"""An idle scheduler waits untimed: whoever makes a process runnable
tells it.

The scheduler parks on its wake event with no timeout once nothing is
runnable and no virtual sleeper is due.  So an idle cluster costs no
loop passes, and each way a blocked or stopped process becomes runnable
from outside the scheduler has to notify, or that process never runs.
The counting event below records every idle wait and whether it timed
out; with no timer, none may.
"""

import threading
import time

import pytest

from repro.sim import syscalls as sc
from repro.sim.cluster import SimCluster
from repro.sim.process import ProcessState


class CountingWake(threading.Event):
    """The scheduler's wake event, counting its waits and timeouts."""

    def __init__(self):
        super().__init__()
        self.waits = 0
        self.timeouts = 0

    def wait(self, timeout=None):
        woke = super().wait(timeout)
        self.waits += 1
        self.timeouts += not woke
        return woke


@pytest.fixture
def counted():
    cluster = SimCluster.flat(["node1"])
    wake = cluster.scheduler._wake = CountingWake()
    with cluster:
        yield cluster.host("node1"), wake


def settle(wake):
    """Let the scheduler reach its idle wait (it starts with one pass)."""
    deadline = time.monotonic() + 5.0
    while not wake.waits and time.monotonic() < deadline:
        time.sleep(0.005)


def test_idle_scheduler_makes_at_most_one_pass(counted):
    _host, wake = counted
    settle(wake)
    before = wake.waits
    time.sleep(0.2)
    assert wake.waits - before <= 1
    assert wake.timeouts == 0


def test_register_runs_a_new_process(counted):
    host, wake = counted
    settle(wake)
    proc = host.create_process("hello")
    assert proc.wait_for_exit(timeout=5.0) == 0
    assert wake.timeouts == 0


def test_continue_runs_a_paused_process(counted):
    host, wake = counted
    proc = host.create_process("hello", paused=True)
    settle(wake)
    proc.continue_process()
    assert proc.wait_for_exit(timeout=5.0) == 0
    assert wake.timeouts == 0


def test_sigcont_runs_a_stopped_process(counted):
    host, wake = counted
    proc = host.create_process("hello", paused=True)
    settle(wake)
    proc.deliver_signal(18)
    assert proc.wait_for_exit(timeout=5.0) == 0
    assert wake.timeouts == 0


def test_deliver_message_runs_a_blocked_receiver(counted):
    host, wake = counted
    proc = host.create_process("server_loop")
    proc.wait_for_state(ProcessState.BLOCKED, timeout=5.0)
    settle(wake)
    proc.deliver_message(sc.MsgRecord("node1", 0, "shutdown", None))
    assert proc.wait_for_exit(timeout=5.0) == 0
    assert proc.stdout_lines == ["served 0 requests"]
    assert wake.timeouts == 0


def test_stdin_runs_a_blocked_reader(counted):
    host, wake = counted
    proc = host.create_process("echo_stdin")
    proc.wait_for_state(ProcessState.BLOCKED, timeout=5.0)
    settle(wake)
    proc.feed_stdin("one")
    proc.wait_for_state(ProcessState.BLOCKED, timeout=5.0)
    assert proc.stdout_lines == ["echo: one"]
    proc.close_stdin()
    assert proc.wait_for_exit(timeout=5.0) == 0
    assert wake.timeouts == 0
