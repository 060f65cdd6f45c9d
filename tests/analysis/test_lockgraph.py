"""Seeded fixtures for the static half of the concurrency sanitizer.

Builds small programs with known lock-acquisition shapes, swaps in a
fixture hierarchy via :func:`lockorder.activated`, and asserts the
``undeclared-lock-edge`` program rule fires (and suppresses) exactly
where expected.  Ranks are strict, so a lock-order cycle always holds an
edge that rule reports: the AB/BA inversion below is one.
"""

import textwrap

from repro.analysis import lockorder
from repro.analysis.core import ModuleSource, get_rule
from repro.analysis.engine import lint_modules
from repro.analysis.lockgraph import build_lock_graph
from repro.analysis.lockorder import RLOCK, LockDecl, LockHierarchy

LOCK_RULES = ("undeclared-lock-edge",)


def parse_fixture(tmp_path, name, code, *, modname):
    path = tmp_path / f"{name}.py"
    path.write_text(textwrap.dedent(code), encoding="utf-8")
    return ModuleSource.parse(path, modname=modname)


def lint_lock_rules(modules):
    return lint_modules(modules, rules=[get_rule(r) for r in LOCK_RULES])


#: two locks, one thread nesting A->B, another nesting B->A
AB_BA = """
    import threading

    class A:
        def __init__(self):
            self._lock = threading.Lock()

    class B:
        def __init__(self):
            self._lock = threading.Lock()

    class Worker:
        def __init__(self, a: A, b: B):
            self._a = a
            self._b = b

        def forward(self):
            with self._a._lock:
                with self._b._lock:
                    pass

        def backward(self):
            with self._b._lock:
                with self._a._lock:
                    pass
    """

AB_HIERARCHY = LockHierarchy([
    LockDecl("fix.A._lock", 10),
    LockDecl("fix.B._lock", 20),
])


class TestGraphExtraction:
    def test_edges_and_cycle_extracted(self, tmp_path):
        module = parse_fixture(tmp_path, "fix", AB_BA, modname="repro.fix")
        graph = build_lock_graph([module])
        assert set(graph.edges) == {
            ("fix.A._lock", "fix.B._lock"),
            ("fix.B._lock", "fix.A._lock"),
        }

    def test_via_call_edge_extracted(self, tmp_path):
        code = """
            import threading

            class Inner:
                def __init__(self):
                    self._lock = threading.Lock()

                def bump(self):
                    with self._lock:
                        pass

            class Outer:
                def __init__(self, inner: Inner):
                    self._lock = threading.Lock()
                    self._inner = inner

                def work(self):
                    with self._lock:
                        self._inner.bump()
            """
        module = parse_fixture(tmp_path, "fix", code, modname="repro.fix")
        graph = build_lock_graph([module])
        assert set(graph.edges) == {("fix.Outer._lock", "fix.Inner._lock")}


class TestLockOrderCycle:
    def test_ab_ba_inversion_fires_both_rules(self, tmp_path):
        """The cycle's inverted edge is the one finding: no cycle search
        is needed beside the rank check."""
        module = parse_fixture(tmp_path, "fix", AB_BA, modname="repro.fix")
        with lockorder.activated(AB_HIERARCHY):
            findings = lint_lock_rules([module])
        # the B->A direction is the rank inversion; A->B is sanctioned
        (edge,) = findings
        assert edge.rule == "undeclared-lock-edge"
        assert "rank inversion" in edge.message
        assert "fix.B._lock" in edge.message and "fix.A._lock" in edge.message

    def test_clean_hierarchy_passes(self, tmp_path):
        code = """
            import threading

            class A:
                def __init__(self):
                    self._lock = threading.Lock()

            class B:
                def __init__(self):
                    self._lock = threading.Lock()

            class Worker:
                def __init__(self, a: A, b: B):
                    self._a = a
                    self._b = b

                def forward(self):
                    with self._a._lock:
                        with self._b._lock:
                            pass

                def also_forward(self):
                    with self._a._lock:
                        with self._b._lock:
                            pass
            """
        module = parse_fixture(tmp_path, "fix", code, modname="repro.fix")
        with lockorder.activated(AB_HIERARCHY):
            assert lint_lock_rules([module]) == []

    def test_suppression_silences_both_rules(self, tmp_path):
        """One directive silences the cycle's one finding."""
        code = AB_BA + "\n    # tdp-lint: off(undeclared-lock-edge)\n"
        module = parse_fixture(tmp_path, "fix", code, modname="repro.fix")
        with lockorder.activated(AB_HIERARCHY):
            assert lint_lock_rules([module]) == []


class TestUndeclaredLockEdge:
    def test_undeclared_key_reported_once(self, tmp_path):
        code = """
            import threading

            class Rogue:
                def __init__(self):
                    self._lock = threading.Lock()

                def a(self):
                    with self._lock:
                        pass

                def b(self):
                    with self._lock:
                        pass
            """
        module = parse_fixture(tmp_path, "fix", code, modname="repro.fix")
        with lockorder.activated(LockHierarchy([])):
            findings = lint_lock_rules([module])
        assert len(findings) == 1
        assert findings[0].rule == "undeclared-lock-edge"
        assert "fix.Rogue._lock is not declared" in findings[0].message

    def test_nonreentrant_self_edge_fires(self, tmp_path):
        code = """
            import threading

            class S:
                def __init__(self):
                    self._lock = threading.Lock()

                def outer(self):
                    with self._lock:
                        self.inner()

                def inner(self):
                    with self._lock:
                        pass
            """
        module = parse_fixture(tmp_path, "fix", code, modname="repro.fix")
        with lockorder.activated(
            LockHierarchy([LockDecl("fix.S._lock", 10)])
        ):
            findings = lint_lock_rules([module])
        assert any("re-acquiring a non-reentrant lock" in f.message for f in findings)

    def test_reentrant_self_edge_allowed(self, tmp_path):
        code = """
            import threading

            class S:
                def __init__(self):
                    self._lock = threading.RLock()

                def outer(self):
                    with self._lock:
                        self.inner()

                def inner(self):
                    with self._lock:
                        pass
            """
        module = parse_fixture(tmp_path, "fix", code, modname="repro.fix")
        with lockorder.activated(
            LockHierarchy([LockDecl("fix.S._lock", 10, RLOCK)])
        ):
            assert lint_lock_rules([module]) == []


class TestRealHierarchy:
    def test_default_hierarchy_ranks_are_consistent(self):
        active = lockorder.active()
        # re-entrant store lock may self-nest; plain locks may not
        assert active.may_acquire(
            "attrspace.store.AttributeStore._lock",
            "attrspace.store.AttributeStore._lock",
        )
        assert not active.may_acquire(
            "sim.cluster.SimCluster._lock", "sim.cluster.SimCluster._lock"
        )
        # store -> notify is the sanctioned detach path; reverse is not
        assert active.may_acquire(
            "attrspace.store.AttributeStore._lock",
            "attrspace.notify.SubscriptionRegistry._lock",
        )
        assert not active.may_acquire(
            "attrspace.notify.SubscriptionRegistry._lock",
            "attrspace.store.AttributeStore._lock",
        )
        # undeclared keys are never sanctioned
        assert not active.may_acquire(
            "attrspace.store.AttributeStore._lock", "nowhere.Nothing._lock"
        )
