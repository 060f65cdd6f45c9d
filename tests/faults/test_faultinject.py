"""The fault-injection transport itself: plans, determinism, activation."""

import pytest

from repro.errors import ChannelClosedError, GetTimeoutError, ProtocolError
from repro.net.topology import flat_network
from repro.transport.faultinject import (
    FaultInjectChannel,
    FaultInjectTransport,
    FaultPlan,
    from_env,
)
from repro.transport.inmem import InMemoryTransport
from tests.served import ServedListener


def make_transport():
    return InMemoryTransport(flat_network(["a", "b"]))


class TestPlanParsing:
    def test_full_spec(self):
        plan = FaultPlan.parse("seed:7,sever:0.1,drop:0.2,dup:0.05,delay:0.2@0.005,scope:both")
        assert plan.seed == 7
        assert plan.sever_rate == 0.1
        assert plan.drop_rate == 0.2
        assert plan.dup_rate == 0.05
        assert plan.delay_rate == 0.2
        assert plan.delay_seconds == 0.005
        assert plan.scope == "both"

    def test_bare_seed_gets_default_chaos_mix(self):
        plan = FaultPlan.parse("seed:42")
        assert plan.seed == 42
        assert plan.sever_rate == 0.04
        assert plan.delay_rate == 0.05
        assert plan.drop_rate == 0.0 and plan.dup_rate == 0.0

    @pytest.mark.parametrize("spec", ["nonsense", "seed:xyz", "frobnicate:1", "drop:lots"])
    def test_rejects_garbage(self, spec):
        with pytest.raises(ProtocolError):
            FaultPlan.parse(spec)

    def test_rejects_bad_scope(self):
        with pytest.raises(ValueError):
            FaultPlan(scope="everywhere")

    def test_rejects_bad_scripted_action(self):
        with pytest.raises(ValueError):
            FaultPlan(script={(0, 0): "explode"})


class _RecordingChannel:
    """Duck-typed inner channel that records every delivered send."""

    def __init__(self):
        self.sent = []
        self.closed = False
        self.local_host = "a"
        self.remote_host = "b"

    def send(self, message):
        self.sent.append(message)

    def recv(self, timeout=None):
        raise GetTimeoutError("nothing to receive")

    def close(self):
        self.closed = True


class TestDeterminism:
    def _decisions(self, plan, seq, n=200):
        channel = FaultInjectChannel(_RecordingChannel(), plan, seq, {})
        return [channel._decide() for _ in range(n)]

    def test_same_seed_same_schedule(self):
        plan = FaultPlan(seed=9, drop_rate=0.1, dup_rate=0.1, sever_rate=0.1, delay_rate=0.1)
        assert self._decisions(plan, seq=0) == self._decisions(plan, seq=0)

    def test_channels_get_independent_streams(self):
        plan = FaultPlan(seed=9, drop_rate=0.25, dup_rate=0.25, sever_rate=0.25, delay_rate=0.25)
        assert self._decisions(plan, seq=0) != self._decisions(plan, seq=1)

    def test_no_rates_means_no_faults(self):
        assert set(self._decisions(FaultPlan(seed=1), seq=0)) == {None}


class TestScriptedFaults:
    def test_drop_dup_sever(self):
        inner = _RecordingChannel()
        plan = FaultPlan(script={(3, 0): "drop", (3, 1): "dup", (3, 3): "sever"})
        channel = FaultInjectChannel(inner, plan, seq=3, counters={})

        channel.send({"n": 0})  # dropped
        channel.send({"n": 1})  # duplicated
        channel.send({"n": 2})  # clean
        assert inner.sent == [{"n": 1}, {"n": 1}, {"n": 2}]

        with pytest.raises(ChannelClosedError):
            channel.send({"n": 3})  # severed: lost and the channel dies
        assert inner.closed
        assert inner.sent == [{"n": 1}, {"n": 1}, {"n": 2}]

    def test_script_only_hits_its_channel(self):
        inner = _RecordingChannel()
        plan = FaultPlan(script={(0, 0): "drop"})
        other = FaultInjectChannel(inner, plan, seq=1, counters={})
        other.send({"n": 0})
        assert inner.sent == [{"n": 0}]


class TestTransportWrapper:
    def test_end_to_end_over_inmem(self):
        base = make_transport()
        plan = FaultPlan(script={(0, 0): "dup"})
        ft = FaultInjectTransport(base, plan)
        listener = ServedListener(ft.listen("a"))
        client = ft.connect("b", listener.endpoint)
        server_side = listener.next_end(timeout=2.0)

        client.send({"hello": 1})
        assert server_side.recv(timeout=2.0) == {"hello": 1}
        assert server_side.recv(timeout=2.0) == {"hello": 1}  # the dup

        # Accept side is untouched under the default "connect" scope.
        server_side.send({"reply": 1})
        assert client.recv(timeout=2.0) == {"reply": 1}
        assert ft.fault_counts["dup"].value == 1
        assert ft.injected_total() == 1
        client.close()
        server_side.close()
        listener.close()

    def test_scope_accept_wraps_server_side(self):
        base = make_transport()
        ft = FaultInjectTransport(base, FaultPlan(scope="accept"))
        listener = ServedListener(ft.listen("a"))
        client = ft.connect("b", listener.endpoint)
        server_side = listener.next_end(timeout=2.0).channel
        assert isinstance(server_side, FaultInjectChannel)
        assert not isinstance(client, FaultInjectChannel)
        client.close()
        listener.close()

    def test_delegates_backend_surface(self):
        base = make_transport()
        ft = FaultInjectTransport(base, FaultPlan())
        assert ft.inner is base
        assert ft.network is base.network  # __getattr__ passthrough


class TestEnvActivation:
    def test_unset_is_passthrough(self, monkeypatch):
        monkeypatch.delenv("TDP_FAULTPLAN", raising=False)
        base = make_transport()
        assert from_env(base) is base

    def test_set_wraps(self, monkeypatch):
        monkeypatch.setenv("TDP_FAULTPLAN", "seed:3,sever:0.5")
        base = make_transport()
        wrapped = from_env(base)
        assert isinstance(wrapped, FaultInjectTransport)
        assert wrapped.plan.seed == 3
        assert wrapped.plan.sever_rate == 0.5
