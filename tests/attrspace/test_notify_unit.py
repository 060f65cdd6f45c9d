"""Unit tests for the subscription registry and notification records."""

import fnmatch

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attrspace.notify import Notification, SubscriptionRegistry


def make_registry_with_sink():
    registry = SubscriptionRegistry()
    delivered = []
    deliver = lambda sub_id, n: delivered.append((sub_id, n))  # noqa: E731
    return registry, delivered, deliver


class TestSubscriptionRegistry:
    def test_exact_match_delivery(self):
        registry, delivered, deliver = make_registry_with_sink()
        registry.subscribe("ctx", "pid", deliver)
        n = Notification(context="ctx", attribute="pid", value="1", kind="put")
        assert registry.publish(n) == 1
        assert delivered == [(1, n)]

    def test_pattern_match(self):
        registry, delivered, deliver = make_registry_with_sink()
        registry.subscribe("ctx", "proc.*.status", deliver)
        hit = Notification("ctx", "proc.7.status", "running", "put")
        miss = Notification("ctx", "proc.7.exit_code", "0", "put")
        assert registry.publish(hit) == 1
        assert registry.publish(miss) == 0

    def test_context_isolation(self):
        registry, delivered, deliver = make_registry_with_sink()
        registry.subscribe("ctx-a", "*", deliver)
        n = Notification("ctx-b", "k", "v", "put")
        assert registry.publish(n) == 0

    def test_unsubscribe(self):
        registry, delivered, deliver = make_registry_with_sink()
        sub = registry.subscribe("ctx", "*", deliver)
        assert registry.unsubscribe(sub) is True
        assert registry.unsubscribe(sub) is False
        assert registry.publish(Notification("ctx", "k", "v", "put")) == 0

    def test_drop_context_removes_all(self):
        registry, delivered, deliver = make_registry_with_sink()
        registry.subscribe("ctx", "a*", deliver)
        registry.subscribe("ctx", "b*", deliver)
        registry.subscribe("other", "*", deliver)
        assert registry.drop_context("ctx") == 2
        assert len(registry) == 1

    def test_multiple_subscribers_fanout(self):
        registry, delivered, deliver = make_registry_with_sink()
        for _ in range(3):
            registry.subscribe("ctx", "k", deliver)
        assert registry.publish(Notification("ctx", "k", "v", "put")) == 3
        assert len(delivered) == 3


CONTEXTS = ["c1", "c2", "c3"]
PATTERNS = ["a", "a.b", "*", "a.*", "a.b*"]
GROUPS = [None, "g1", "g2"]
EVENTS = [Notification(c, a, "v", "put")
          for c in CONTEXTS for a in ("a", "a.b", "a.bc", "a.x", "b", "ab")]

_op = st.one_of(
    st.tuples(st.just("subscribe"), st.sampled_from(CONTEXTS),
              st.sampled_from(PATTERNS), st.sampled_from(GROUPS)),
    st.tuples(st.just("unsubscribe"), st.integers(0, 40)),
    st.tuples(st.just("unsubscribe_many"), st.lists(st.integers(0, 40), max_size=6)),
    st.tuples(st.just("drop_context"), st.sampled_from(CONTEXTS)),
)


class Reference:
    """The registry as a linear scan: every subscription tested against
    every event, in subscription order, the first of a group delivered."""

    def __init__(self):
        self.subs = []  # (sub_id, context, pattern, group)

    def remove(self, sub_ids):
        gone = [s for s in self.subs if s[0] in sub_ids]
        self.subs = [s for s in self.subs if s[0] not in sub_ids]
        return [s[0] for s in gone]

    def publish(self, n):
        out, seen = [], set()
        for sub_id, context, pattern, group in self.subs:
            if context != n.context or not fnmatch.fnmatchcase(n.attribute, pattern):
                continue
            if group is not None:
                if group in seen:
                    continue
                seen.add(group)
            out.append(sub_id)
        return out


class TestRegistryIndexAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_op, max_size=40))
    def test_publish_matches_a_linear_scan(self, ops):
        registry, delivered, deliver = make_registry_with_sink()
        ref = Reference()

        def check():
            for event in EVENTS:
                delivered.clear()
                assert registry.publish(event) == len(delivered)
                assert [sub_id for sub_id, _ in delivered] == ref.publish(event)
            assert len(registry) == len(ref.subs)

        for op in ops:
            if op[0] == "subscribe":
                _, context, pattern, group = op
                sub_id = registry.subscribe(context, pattern, deliver, group=group)
                ref.subs.append((sub_id, context, pattern, group))
            elif op[0] == "unsubscribe":
                assert registry.unsubscribe(op[1]) == bool(ref.remove({op[1]}))
            elif op[0] == "unsubscribe_many":
                ids = list(dict.fromkeys(op[1]))
                assert sorted(registry.unsubscribe_many(ids)) == sorted(
                    ref.remove(set(ids)))
            else:
                dropped = [s[0] for s in ref.subs if s[1] == op[1]]
                assert registry.drop_context(op[1]) == len(ref.remove(set(dropped)))
            check()

        # Removal check: take everything out, one way or another.
        remaining = [s[0] for s in ref.subs]
        half = len(remaining) // 2
        assert sorted(registry.unsubscribe_many(remaining[:half])) == sorted(
            remaining[:half])
        for sub_id in remaining[half:]:
            assert registry.unsubscribe(sub_id) is True
        with registry._lock:  # no empty pattern or context left behind
            assert registry._index == {}
        for context in CONTEXTS:
            assert registry.drop_context(context) == 0
        for event in EVENTS:
            assert registry.publish(event) == 0
        assert len(registry) == 0


class TestNotificationWire:
    def test_roundtrip(self):
        n = Notification("ctx", "attr", "value", "put")
        assert Notification.from_wire(n.to_wire()) == n

    def test_remove_has_none_value(self):
        n = Notification("ctx", "attr", None, "remove")
        wire = n.to_wire()
        assert wire["value"] is None
        assert Notification.from_wire(wire) == n
