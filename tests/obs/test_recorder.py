"""Flight recorder: bounded ring, filtering, disabled no-op."""

import json

from repro import obs
from repro.parador.run import ParadorScenario
from repro.util.log import TraceRecorder


class TestRecording:
    def test_record_assigns_sequence_and_fields(self, obs_on):
        ev = obs.record("session.lost", actor="client", attempt=1)
        assert ev.seq >= 1
        assert ev.action == "session.lost" and ev.actor == "client"
        assert ev.details == {"attempt": 1}

    def test_events_filter_by_kind_and_actor(self, obs_on):
        ring = TraceRecorder(capacity=16)
        ring.record("x", "a")
        ring.record("x", "b")
        ring.record("y", "a")
        assert len(ring.events(action="a")) == 2
        assert len(ring.events(action="a", actor="y")) == 1

    def test_tail_returns_most_recent(self, obs_on):
        ring = TraceRecorder(capacity=16)
        for i in range(10):
            ring.record("t", "tick", i=i)
        assert [e.details["i"] for e in ring.tail(3)] == [7, 8, 9]

    def test_ring_is_bounded(self, obs_on):
        ring = TraceRecorder(capacity=8)
        for i in range(12):
            ring.record("", "e", i=i)
        assert len(ring) == 8
        assert ring.events()[0].details["i"] == 4   # oldest four evicted
        assert ring.events()[-1].seq == 12          # seq keeps counting

    def test_disabled_recording_is_noop(self, obs_off):
        assert obs.record("e", actor="x") is None
        assert len(obs.recorder()) == 0


class TestEventShape:
    def test_to_dict_flattens_fields(self, obs_on):
        ev = obs.record("fault.injected", actor="faultinject", action="sever")
        d = ev.to_dict()
        assert d["kind"] == "fault.injected" and d["action"] == "sever"
        json.dumps(d)  # must be JSON-serializable

    def test_str_is_one_line(self, obs_on):
        ev = obs.record("lease.expired", actor="lass@node1", member="m")
        text = str(ev)
        assert "lease.expired" in text and "member=m" in text
        assert "\n" not in text


class TestPilotInRing:
    def test_ring_sees_a_pilot_that_keeps_no_trace(self, obs_on):
        # What ``obs dump --run-pilot`` shows: the scenario keeps no
        # trace, and its protocol events reach the ring all the same.
        with ParadorScenario(execute_hosts=["node1"]) as scenario:
            assert scenario.trace is None
            run = scenario.submit_monitored("foo", "3 0.05")
            run.job.wait_terminal(timeout=60.0)
            run.session.wait_state("exited", timeout=30.0)
        steps = [
            ("starter", "tdp_init"),
            ("starter", "tdp_create_process"),
            ("paradynd", "tdp_get_returned"),
            ("paradynd", "tdp_attach"),
            ("paradynd", "tdp_continue_process"),
        ]
        seqs = [obs.recorder().events(actor=actor, action=action)[0].seq
                for actor, action in steps]
        assert seqs == sorted(seqs), list(zip(steps, seqs))
