"""Seeded fixtures for the guarded-by program rules.

Each of the four guard rules (plus the lockorder reverse-direction
``lock-manifest-stale``) must fire on a fixture that exhibits exactly
its target defect, and go quiet under a ``# tdp-lint: off(rule)``
directive — the non-vacuity half of the repo-clean gate.
"""

import textwrap

from repro.analysis import lockorder
from repro.analysis.core import ModuleSource, get_rule
from repro.analysis.engine import lint_modules
from repro.analysis.lockorder import LockDecl, LockHierarchy


def lint_program(tmp_path, sources, rule):
    """Write ``sources`` ({modname: code}) as modules and run one rule."""
    modules = []
    for modname, code in sources.items():
        path = tmp_path / (modname.replace(".", "_") + ".py")
        path.write_text(textwrap.dedent(code), encoding="utf-8")
        modules.append(ModuleSource.parse(path, modname=modname))
    return lint_modules(modules, [get_rule(rule)])


WORKER = """
    import threading

    class Worker:
        def __init__(self):
            self._lock = threading.Lock()
            self.jobs = 0

        def start(self):
            spawn(self._loop, name="worker")

        def _loop(self):
            with self._lock:
                self.jobs += 1

        def add(self):
            with self._lock:
                self.jobs += 1

        def peek(self):
            return self.jobs
    """


class TestGuardedFieldUnlocked:
    def test_fires_on_minority_bare_access(self, tmp_path):
        findings = lint_program(
            tmp_path, {"fix.worker": WORKER}, "guarded-field-unlocked"
        )
        assert len(findings) == 1
        f = findings[0]
        assert "fix.worker.Worker.jobs" in f.message
        assert "fix.worker.Worker._lock" in f.message
        assert "waiver" in f.message  # the fix instructions name the key

    def test_suppressed_by_directive(self, tmp_path):
        code = WORKER.replace(
            "return self.jobs",
            "return self.jobs  # tdp-lint: off(guarded-field-unlocked)",
        )
        findings = lint_program(
            tmp_path, {"fix.worker": code}, "guarded-field-unlocked"
        )
        assert findings == []

    def test_file_scope_suppression_covers_program_findings(self, tmp_path):
        # A standalone directive line disables the rule for the whole
        # file — program-rule findings included, same as per-module ones.
        code = "# tdp-lint: off(guarded-field-unlocked)\n" + textwrap.dedent(
            WORKER
        )
        path = tmp_path / "fix_worker.py"
        path.write_text(code, encoding="utf-8")
        modules = [ModuleSource.parse(path, modname="fix.worker")]
        findings = lint_modules(modules, [get_rule("guarded-field-unlocked")])
        assert findings == []

    def test_unanimous_discipline_is_clean(self, tmp_path):
        code = WORKER.replace(
            "def peek(self):\n            return self.jobs",
            "def peek(self):\n            with self._lock:\n"
            "                return self.jobs",
        )
        findings = lint_program(
            tmp_path, {"fix.worker": code}, "guarded-field-unlocked"
        )
        assert findings == []


class TestGuardAmbiguous:
    FIXTURE = """
        import threading

        class Mixed:
            def __init__(self):
                self._lock = threading.Lock()
                self.flag = False

            def start(self):
                spawn(self._loop, name="mixed")

            def _loop(self):
                self.flag = True

            def read(self):
                with self._lock:
                    return self.flag
        """

    def test_fires_without_supermajority(self, tmp_path):
        findings = lint_program(
            tmp_path, {"fix.mixed": self.FIXTURE}, "guard-ambiguous"
        )
        assert len(findings) == 1
        assert "fix.mixed.Mixed.flag" in findings[0].message
        assert "tdp-guard" in findings[0].message  # tells you the fix

    def test_declaration_resolves_ambiguity(self, tmp_path):
        code = self.FIXTURE.replace(
            "self.flag = False",
            "self.flag = False  # tdp-guard: flag -> volatile",
        )
        findings = lint_program(
            tmp_path, {"fix.mixed": code}, "guard-ambiguous"
        )
        assert findings == []


class TestThreadConfinedEscape:
    FIXTURE = """
        class Pump:
            def __init__(self):
                # tdp-guard: level -> confined:fix.pump.Pump._loop
                self.level = 0

            def start(self):
                spawn(self._loop, name="pump")

            def _loop(self):
                self.level += 1

            def poke(self):
                self.level = 5
        """

    def test_fires_on_cross_root_access(self, tmp_path):
        findings = lint_program(
            tmp_path, {"fix.pump": self.FIXTURE}, "thread-confined-escape"
        )
        assert len(findings) == 1
        f = findings[0]
        assert "fix.pump.Pump.level" in f.message
        assert "confined to fix.pump.Pump._loop" in f.message

    def test_owner_thread_access_is_clean(self, tmp_path):
        code = self.FIXTURE.replace(
            "def poke(self):\n                self.level = 5",
            "def poke(self):\n                pass",
        )
        findings = lint_program(
            tmp_path, {"fix.pump": code}, "thread-confined-escape"
        )
        assert findings == []

    def test_suppressed_by_directive(self, tmp_path):
        code = self.FIXTURE.replace(
            "self.level = 5",
            "self.level = 5  # tdp-lint: off(thread-confined-escape)",
        )
        findings = lint_program(
            tmp_path, {"fix.pump": code}, "thread-confined-escape"
        )
        assert findings == []


class TestGuardManifestStale:
    def test_fires_on_unknown_field_declaration(self, tmp_path):
        code = """
            class Empty:
                def __init__(self):
                    # tdp-guard: ghost -> volatile
                    self.real = 1
            """
        findings = lint_program(
            tmp_path, {"fix.empty": code}, "guard-manifest-stale"
        )
        assert len(findings) == 1
        assert "ghost" in findings[0].message

    def test_fires_on_unknown_guard(self, tmp_path):
        code = """
            class Holder:
                def __init__(self):
                    # tdp-guard: value -> NoSuchClass._lock
                    self.value = 1
            """
        findings = lint_program(
            tmp_path, {"fix.holder": code}, "guard-manifest-stale"
        )
        assert len(findings) == 1
        assert "unknown guard" in findings[0].message

    def test_valid_declaration_is_clean(self, tmp_path):
        code = """
            import threading

            class Holder:
                def __init__(self):
                    self._lock = threading.Lock()
                    # tdp-guard: value -> volatile
                    self.value = 1

                def read(self):
                    return self.value
            """
        findings = lint_program(
            tmp_path, {"fix.holder": code}, "guard-manifest-stale"
        )
        assert findings == []


class TestLockManifestStale:
    ACQ = """
        import threading

        class Real:
            def __init__(self):
                self._lock = threading.Lock()

            def use(self):
                with self._lock:
                    pass
        """

    def _hierarchy(self, *extra):
        return LockHierarchy(
            [LockDecl("fix.acq.Real._lock", 10), *extra]
        )

    def test_fires_on_dead_declaration(self, tmp_path):
        manifest = "# ranks: fix.Ghost._lock was rank 20 once\n"
        sources = {"fix.acq": self.ACQ}
        modules = []
        for modname, code in sources.items():
            path = tmp_path / "acq.py"
            path.write_text(textwrap.dedent(code), encoding="utf-8")
            modules.append(ModuleSource.parse(path, modname=modname))
        mpath = tmp_path / "lockorder.py"
        mpath.write_text(manifest, encoding="utf-8")
        modules.append(ModuleSource.parse(mpath, modname="fix.analysis.lockorder"))
        with lockorder.activated(
            self._hierarchy(LockDecl("fix.Ghost._lock", 20))
        ):
            findings = lint_modules(modules, [get_rule("lock-manifest-stale")])
        assert len(findings) == 1
        f = findings[0]
        assert "fix.Ghost._lock" in f.message
        assert f.line == 1  # pinned to the line mentioning the key

    def test_quiet_when_every_key_has_a_site(self, tmp_path):
        path = tmp_path / "acq.py"
        path.write_text(textwrap.dedent(self.ACQ), encoding="utf-8")
        mpath = tmp_path / "lockorder.py"
        mpath.write_text("# manifest\n", encoding="utf-8")
        modules = [
            ModuleSource.parse(path, modname="fix.acq"),
            ModuleSource.parse(mpath, modname="fix.analysis.lockorder"),
        ]
        with lockorder.activated(self._hierarchy()):
            findings = lint_modules(modules, [get_rule("lock-manifest-stale")])
        assert findings == []

    def test_quiet_without_manifest_module_in_scope(self, tmp_path):
        # A scoped lint (e.g. `lint src/repro/attrspace`) must not conclude
        # every other daemon's lock is gone.
        path = tmp_path / "acq.py"
        path.write_text(textwrap.dedent(self.ACQ), encoding="utf-8")
        modules = [ModuleSource.parse(path, modname="fix.acq")]
        with lockorder.activated(
            self._hierarchy(LockDecl("fix.Ghost._lock", 20))
        ):
            findings = lint_modules(modules, [get_rule("lock-manifest-stale")])
        assert findings == []
