"""Dyninst engine tests: run-time probe insertion/removal."""

import time

import pytest

from repro.errors import InstrumentationError
from repro.paradyn.dyninst import DyninstEngine
from repro.sim.cluster import SimCluster
from repro.sim.process import ProcessState, StopReason


@pytest.fixture
def cluster():
    with SimCluster.flat(["node1"]) as c:
        yield c


@pytest.fixture
def paused_phases(cluster):
    return cluster.host("node1").create_process("phases", ["5", "0.1"], paused=True)


class TestCounters:
    def test_entry_counter_counts_calls(self, cluster, paused_phases):
        engine = DyninstEngine(paused_phases)
        counter = engine.insert_counter("compute_b")
        paused_phases.continue_process()
        paused_phases.wait_for_exit(timeout=20.0)
        assert counter.count == 5

    def test_exit_counter(self, cluster, paused_phases):
        engine = DyninstEngine(paused_phases)
        counter = engine.insert_counter("write_output", where="exit")
        paused_phases.continue_process()
        paused_phases.wait_for_exit(timeout=20.0)
        assert counter.count == 5

    def test_bad_location_rejected(self, paused_phases):
        engine = DyninstEngine(paused_phases)
        with pytest.raises(InstrumentationError):
            engine.insert_counter("main", where="middle")


class TestTimers:
    def test_timer_measures_inclusive_cpu(self, cluster, paused_phases):
        engine = DyninstEngine(paused_phases)
        timer = engine.insert_timer("compute_b")
        paused_phases.continue_process()
        paused_phases.wait_for_exit(timeout=20.0)
        # compute_b burns 80% of each 0.1s round, 5 rounds = 0.4s.
        assert timer.inclusive_cpu == pytest.approx(0.4, rel=0.1)
        assert timer.calls == 5

    def test_main_timer_covers_everything(self, cluster, paused_phases):
        engine = DyninstEngine(paused_phases)
        timer = engine.insert_timer("main")
        paused_phases.continue_process()
        paused_phases.wait_for_exit(timeout=20.0)
        assert timer.inclusive_cpu == pytest.approx(paused_phases.cpu_time, rel=0.05)

    def test_mid_run_insertion(self, cluster):
        """The Dyninst headline: instrument a process that is already
        running, observing only the remaining calls."""
        proc = cluster.host("node1").create_process("phases", ["50", "0.05"], paused=True)
        engine = DyninstEngine(proc)
        # Stop after ~10 rounds via a counter-triggered breakpoint.
        rounds = {"n": 0}

        def maybe_stop(p, f, w):
            rounds["n"] += 1
            if rounds["n"] == 10:
                p.request_stop()

        from repro.sim.process import ProbePoint

        proc.insert_probe(ProbePoint(999, "write_output", "exit", maybe_stop))
        proc.continue_process()
        proc.wait_for_state(ProcessState.STOPPED, timeout=20.0)
        counter = engine.insert_counter("compute_b")  # inserted mid-run
        proc.remove_probe(999)
        proc.continue_process()
        proc.wait_for_exit(timeout=30.0)
        assert counter.count == 40  # only the remaining rounds

    def test_timer_attached_mid_call_ignores_unmatched_exit(self, cluster):
        proc = cluster.host("node1").create_process("phases", ["3"], paused=True)
        engine = DyninstEngine(proc)
        bp = engine.insert_breakpoint("compute_b", "entry")
        proc.continue_process()
        assert bp.wait_hit(timeout=20.0)
        proc.wait_for_state(ProcessState.STOPPED, timeout=5.0)
        engine.remove(bp)
        # We are INSIDE compute_b; a timer inserted now sees an exit
        # without a matching entry for the current call.
        timer = engine.insert_timer("compute_b")
        proc.continue_process()
        proc.wait_for_exit(timeout=20.0)
        assert timer.calls == 2  # the two subsequent complete calls


class TestBreakpoints:
    def test_breakpoint_at_main(self, cluster, paused_phases):
        engine = DyninstEngine(paused_phases)
        bp = engine.insert_breakpoint("main")
        paused_phases.continue_process()
        assert bp.wait_hit(timeout=10.0)
        paused_phases.wait_for_state(ProcessState.STOPPED, timeout=5.0)
        assert paused_phases.stack() == ["main"]
        engine.remove(bp)
        paused_phases.continue_process()
        assert paused_phases.wait_for_exit(timeout=20.0) == 0

    def test_process_killed_short_of_the_breakpoint_releases_the_waiter(
            self, cluster, paused_phases):
        """A rank killed between the tool's continue and ``main`` used to
        hold its paradynd in wait_hit for the whole 30 s timeout."""
        engine = DyninstEngine(paused_phases)
        bp = engine.insert_breakpoint("main")
        paused_phases.terminate()
        started = time.monotonic()
        assert bp.wait_hit(timeout=10.0)
        assert time.monotonic() - started < 1.0
        assert bp.hits == 0 and paused_phases.state is ProcessState.EXITED

    def test_hit_to_continue_handoff_never_loses_the_continue(
            self, cluster, monkeypatch):
        """The lost continue: the probe action only *requests* the stop,
        so a tool woken by wait_hit used to race the scheduler — about
        1 continue in 100 hit a still-RUNNABLE process, was refused, and
        left the rank parked at its breakpoint.  A waiter released by
        wait_hit must always find the process STOPPED(BREAKPOINT)."""
        rounds = 300
        proc = cluster.host("node1").create_process(
            "phases", [str(rounds), "0.001"], paused=True)
        engine = DyninstEngine(proc)
        # Widen the window the race needs: the scheduler thread naps
        # between the probe firing and the stop request being filed.
        request_stop = proc.request_stop

        def slow_request_stop(reason):
            time.sleep(0.001)
            request_stop(reason)

        monkeypatch.setattr(proc, "request_stop", slow_request_stop)
        for _ in range(rounds):
            bp = engine.insert_breakpoint("compute_b")
            proc.continue_process()  # the hand-off: never refused
            assert bp.wait_hit(timeout=10.0)
            with proc.lock:  # stop_reason's guard
                assert proc.state is ProcessState.STOPPED
                assert proc.stop_reason is StopReason.BREAKPOINT
            engine.remove(bp)
        proc.continue_process()
        assert proc.wait_for_exit(timeout=20.0) == 0


class TestRemoval:
    def test_remove_all(self, cluster, paused_phases):
        engine = DyninstEngine(paused_phases)
        engine.insert_counter("compute_a")
        engine.insert_timer("compute_b")
        assert engine.active_probe_count == 3
        engine.remove_all()
        assert engine.active_probe_count == 0
        assert paused_phases.probes == {}
        paused_phases.continue_process()
        paused_phases.wait_for_exit(timeout=20.0)

    def test_removed_counter_stops_counting(self, cluster):
        proc = cluster.host("node1").create_process("phases", ["6"], paused=True)
        engine = DyninstEngine(proc)
        counter = engine.insert_counter("compute_b")
        bp = engine.insert_breakpoint("write_output")
        proc.continue_process()
        assert bp.wait_hit(timeout=20.0)
        proc.wait_for_state(ProcessState.STOPPED, timeout=5.0)
        engine.remove(bp)
        engine.remove(counter)
        count_at_removal = counter.count
        proc.continue_process()
        proc.wait_for_exit(timeout=20.0)
        assert counter.count == count_at_removal == 1
