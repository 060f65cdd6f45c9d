"""TraceRecorder tests (the figure-regeneration substrate)."""

import threading

import pytest

from repro.util.clock import VirtualClock
from repro.util.log import TraceRecorder


class TestTraceRecorder:
    def test_sequence_numbers_monotonic(self):
        trace = TraceRecorder()
        events = [trace.record("a", f"act{i}") for i in range(5)]
        assert [e.seq for e in events] == [1, 2, 3, 4, 5]

    def test_filter_by_actor_and_action(self):
        trace = TraceRecorder()
        trace.record("rm", "init")
        trace.record("rt", "init")
        trace.record("rm", "create")
        assert len(trace.events(actor="rm")) == 2
        assert len(trace.events(action="init")) == 2
        assert len(trace.events(actor="rm", action="init")) == 1

    def test_actions_in_order(self):
        trace = TraceRecorder()
        for action in ["a", "b", "c"]:
            trace.record("x", action)
        assert trace.actions() == ["a", "b", "c"]

    def test_assert_order_passes_with_interleaving(self):
        trace = TraceRecorder()
        for action in ["a", "noise", "b", "more", "c"]:
            trace.record("x", action)
        trace.assert_order("a", "b", "c")

    def test_assert_order_fails_when_reversed(self):
        trace = TraceRecorder()
        trace.record("x", "b")
        trace.record("x", "a")
        with pytest.raises(AssertionError, match="out of order"):
            trace.assert_order("a", "b")

    def test_assert_order_fails_when_missing(self):
        trace = TraceRecorder()
        trace.record("x", "a")
        with pytest.raises(AssertionError, match="never occurred"):
            trace.assert_order("a", "ghost")

    def test_first_and_index_of(self):
        trace = TraceRecorder()
        trace.record("x", "a", k=1)
        trace.record("y", "a", k=2)
        assert trace.first("a").details["k"] == 1
        assert trace.index_of("a", actor="y") == 2
        assert trace.index_of("missing") == -1

    def test_virtual_clock_timestamps(self):
        clock = VirtualClock()
        trace = TraceRecorder(clock=clock)
        trace.record("x", "a")
        clock.advance(5.0)
        trace.record("x", "b")
        events = trace.events()
        assert events[1].time - events[0].time == 5.0

    def test_format_contains_details(self):
        trace = TraceRecorder()
        trace.record("starter", "tdp_put", attribute="pid", value="7")
        text = trace.format("Title")
        assert "Title" in text and "tdp_put" in text and "attribute=pid" in text

    def test_thread_safety(self):
        trace = TraceRecorder()

        def spam(tag):
            for i in range(200):
                trace.record(tag, f"e{i}")

        threads = [threading.Thread(target=spam, args=(f"t{j}",)) for j in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        events = trace.events()
        assert len(events) == 800
        assert sorted(e.seq for e in events) == list(range(1, 801))
