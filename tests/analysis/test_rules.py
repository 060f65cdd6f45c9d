"""Seeded-violation fixtures: every rule must fire on its target pattern
and go quiet under a ``# tdp-lint: off(rule)`` directive."""

import textwrap

import pytest

from repro.analysis import lint_modules
from repro.analysis.core import ModuleSource, Rule, all_rules, get_rule


def lint_snippet(tmp_path, code, *, modname=None, rule=None):
    """Write ``code`` to a temp module and lint it with one rule, or
    with every per-module rule (one module is not a program)."""
    path = tmp_path / "fixture.py"
    path.write_text(textwrap.dedent(code), encoding="utf-8")
    module = ModuleSource.parse(path, modname=modname)
    rules = [get_rule(rule)] if rule else [r for r in all_rules() if isinstance(r, Rule)]
    return lint_modules([module], rules)


class TestCallbackUnderLock:
    FIXTURE = """
        import threading

        class Store:
            def __init__(self):
                self._lock = threading.Lock()
                self.subscriptions = Registry()

            def put(self, attribute, value):
                with self._lock:
                    self.data[attribute] = value
                    for _wid, cb in self.waiters.pop(attribute, []):
                        cb(value)
                    self.subscriptions.publish(value)
        """

    def test_fires_on_callback_and_publish(self, tmp_path):
        findings = lint_snippet(tmp_path, self.FIXTURE, rule="callback-under-lock")
        assert len(findings) == 2
        assert {f.line for f in findings} == {13, 14}

    def test_suppressed_by_directive(self, tmp_path):
        code = self.FIXTURE.replace(
            "cb(value)", "cb(value)  # tdp-lint: off(callback-under-lock)"
        ).replace(
            "self.subscriptions.publish(value)",
            "self.subscriptions.publish(value)  # tdp-lint: off(callback-under-lock)",
        )
        assert lint_snippet(tmp_path, code, rule="callback-under-lock") == []

    def test_clean_pattern_passes(self, tmp_path):
        code = """
            import threading

            class Store:
                def put(self, attribute, value):
                    with self._lock:
                        callbacks = self.waiters.pop(attribute, [])
                    for _wid, cb in callbacks:
                        cb(value)
                    self.subscriptions.publish(value)
            """
        assert lint_snippet(tmp_path, code, rule="callback-under-lock") == []

    def test_method_shaped_callback_flagged(self, tmp_path):
        code = """
            class S:
                def fire(self):
                    with self._lock:
                        self.on_done_cb(1)
            """
        findings = lint_snippet(tmp_path, code, rule="callback-under-lock")
        assert len(findings) == 1

    def test_nested_def_under_lock_not_flagged(self, tmp_path):
        code = """
            class S:
                def arm(self):
                    with self._lock:
                        def later():
                            cb(1)
                        self.hooks.append(later)
            """
        assert lint_snippet(tmp_path, code, rule="callback-under-lock") == []


class TestBlockingCallUnderLock:
    def test_fires_on_wait_sleep_send(self, tmp_path):
        code = """
            import threading, time

            class S:
                def bad(self):
                    with self._lock:
                        self._event.wait(1.0)
                        time.sleep(0.1)
                        self.channel.send({"op": "x"})
            """
        findings = lint_snippet(tmp_path, code, rule="blocking-call-under-lock")
        assert len(findings) == 3

    def test_condition_idiom_exempt(self, tmp_path):
        code = """
            class Q:
                def get(self):
                    with self._cond:
                        self._cond.wait_for(lambda: self._items)
                        return self._items.popleft()
            """
        assert lint_snippet(tmp_path, code, rule="blocking-call-under-lock") == []

    def test_str_join_not_flagged(self, tmp_path):
        code = """
            class S:
                def names(self):
                    with self._lock:
                        return ", ".join(self._names)
            """
        assert lint_snippet(tmp_path, code, rule="blocking-call-under-lock") == []

    def test_suppressed_by_directive(self, tmp_path):
        code = """
            class S:
                def send(self, m):
                    with self.send_lock:
                        self.channel.send(m)  # tdp-lint: off(blocking-call-under-lock)
            """
        assert lint_snippet(tmp_path, code, rule="blocking-call-under-lock") == []


class TestWallClockInSim:
    FIXTURE = """
        import time

        def tick():
            t0 = time.monotonic()
            time.sleep(0.1)
            return time.time() - t0
        """

    def test_fires_in_sim_package(self, tmp_path):
        findings = lint_snippet(
            tmp_path, self.FIXTURE, modname="repro.sim.fake", rule="wall-clock-in-sim"
        )
        assert len(findings) == 3

    def test_fires_in_condor_package(self, tmp_path):
        findings = lint_snippet(
            tmp_path, self.FIXTURE, modname="repro.condor.fake",
            rule="wall-clock-in-sim",
        )
        assert len(findings) == 3

    def test_silent_outside_scoped_packages(self, tmp_path):
        findings = lint_snippet(
            tmp_path, self.FIXTURE, modname="repro.osproc.fake",
            rule="wall-clock-in-sim",
        )
        assert findings == []

    def test_from_import_flagged(self, tmp_path):
        code = "from time import sleep, monotonic\n"
        findings = lint_snippet(
            tmp_path, code, modname="repro.sim.fake", rule="wall-clock-in-sim"
        )
        assert len(findings) == 1

    def test_suppressed_by_directive(self, tmp_path):
        code = "import time\nt = time.time()  # tdp-lint: off(wall-clock-in-sim)\n"
        findings = lint_snippet(
            tmp_path, code, modname="repro.sim.fake", rule="wall-clock-in-sim"
        )
        assert findings == []


class TestRawAttributeLiteral:
    def test_fires_on_dotted_literal(self, tmp_path):
        code = 'status = attrs.try_get("proc.17.status")\n'
        findings = lint_snippet(
            tmp_path, code, modname="repro.condor.fake", rule="raw-attribute-literal"
        )
        assert len(findings) == 1

    def test_fires_on_fstring_prefix(self, tmp_path):
        code = 'name = f"proc.{pid}.status"\n'
        findings = lint_snippet(
            tmp_path, code, modname="repro.tdp.fake", rule="raw-attribute-literal"
        )
        assert len(findings) == 1

    def test_fires_on_short_name_in_attr_call(self, tmp_path):
        code = 'tdp_put(handle, "pid", str(info.pid))\n'
        findings = lint_snippet(
            tmp_path, code, modname="repro.condor.fake", rule="raw-attribute-literal"
        )
        assert len(findings) == 1

    def test_short_name_as_dict_key_not_flagged(self, tmp_path):
        code = 'payload = {"pid": 1}\np = message.get("pid", -1)\n'
        findings = lint_snippet(
            tmp_path, code, modname="repro.condor.fake", rule="raw-attribute-literal"
        )
        assert findings == []

    def test_docstring_not_flagged(self, tmp_path):
        code = '"""Uses tdp_get("pid") and proc.1.status in prose."""\n'
        findings = lint_snippet(
            tmp_path, code, modname="repro.condor.fake", rule="raw-attribute-literal"
        )
        assert findings == []

    def test_wellknown_module_exempt(self, tmp_path):
        code = 'PREFIX = "ctl.req."\n'
        findings = lint_snippet(
            tmp_path, code, modname="repro.tdp.wellknown", rule="raw-attribute-literal"
        )
        assert findings == []

    def test_non_daemon_package_exempt(self, tmp_path):
        code = 'x = "proc.1.status"\n'
        findings = lint_snippet(
            tmp_path, code, modname="repro.attrspace.fake",
            rule="raw-attribute-literal",
        )
        assert findings == []

    def test_suppressed_by_directive(self, tmp_path):
        code = 'x = attrs.put("rt.frontend", ep)  # tdp-lint: off(raw-attribute-literal)\n'
        findings = lint_snippet(
            tmp_path, code, modname="repro.condor.fake", rule="raw-attribute-literal"
        )
        assert findings == []


class TestMissingHandleCheck:
    def test_fires_on_unchecked_function(self, tmp_path):
        code = """
            def tdp_frob(handle, x):
                return handle.attrs.frob(x)
            """
        findings = lint_snippet(
            tmp_path, code, modname="repro.tdp.api", rule="missing-handle-check"
        )
        assert len(findings) == 1
        assert "tdp_frob" in findings[0].message

    def test_check_open_satisfies(self, tmp_path):
        code = """
            def tdp_frob(handle, x):
                handle._check_open()
                return handle.attrs.frob(x)
            """
        findings = lint_snippet(
            tmp_path, code, modname="repro.tdp.api", rule="missing-handle-check"
        )
        assert findings == []

    def test_delegation_to_tdp_function_satisfies(self, tmp_path):
        code = """
            def tdp_frob(handle, x):
                return tdp_put(handle, x, "1")
            """
        findings = lint_snippet(
            tmp_path, code, modname="repro.tdp.api", rule="missing-handle-check"
        )
        assert findings == []

    def test_open_and_close_satisfy(self, tmp_path):
        code = """
            def tdp_init(transport):
                return open_handle(transport)

            def tdp_exit(handle):
                handle.close()
            """
        findings = lint_snippet(
            tmp_path, code, modname="repro.tdp.api", rule="missing-handle-check"
        )
        assert findings == []

    def test_other_modules_exempt(self, tmp_path):
        code = """
            def tdp_frob(handle):
                return 1
            """
        findings = lint_snippet(
            tmp_path, code, modname="repro.tdp.helpers", rule="missing-handle-check"
        )
        assert findings == []

    def test_suppressed_by_directive(self, tmp_path):
        code = """
            def tdp_frob(handle):  # tdp-lint: off(missing-handle-check)
                return 1
            """
        findings = lint_snippet(
            tmp_path, code, modname="repro.tdp.api", rule="missing-handle-check"
        )
        assert findings == []


class TestBareThread:
    def test_fires_on_threading_thread(self, tmp_path):
        code = """
            import threading
            t = threading.Thread(target=f, daemon=True)
            t.start()
            """
        findings = lint_snippet(tmp_path, code, rule="bare-thread")
        assert len(findings) == 1

    def test_fires_on_direct_import(self, tmp_path):
        code = """
            from threading import Thread
            Thread(target=f).start()
            """
        findings = lint_snippet(tmp_path, code, rule="bare-thread")
        assert len(findings) == 1

    def test_sanctioned_module_exempt(self, tmp_path):
        code = """
            import threading
            t = threading.Thread(target=f)
            """
        findings = lint_snippet(
            tmp_path, code, modname="repro.util.threads", rule="bare-thread"
        )
        assert findings == []

    def test_annotation_not_flagged(self, tmp_path):
        code = """
            import threading
            class S:
                def __init__(self):
                    self._thread: threading.Thread | None = None
            """
        assert lint_snippet(tmp_path, code, rule="bare-thread") == []

    def test_suppressed_by_directive(self, tmp_path):
        code = """
            import threading
            t = threading.Thread(target=f)  # tdp-lint: off(bare-thread)
            """
        assert lint_snippet(tmp_path, code, rule="bare-thread") == []


class TestCallSiteAliases:
    """Every import alias of a funnelled or banned name resolves to its
    origin, so renaming it at the import does not hide the call."""

    @pytest.mark.parametrize("rule,code", [
        ("bare-thread", "from threading import Thread as T\nT(target=f)\n"),
        ("bare-thread", "import threading as th\nth.Thread(target=f)\n"),
        ("raw-timer", "from threading import Timer as Tm\nTm(1.0, f)\n"),
        ("raw-timer", "import threading as th\nth.Timer(1.0, f)\n"),
    ])
    def test_aliased_thread_and_timer_fire(self, tmp_path, rule, code):
        findings = lint_snippet(tmp_path, code, rule=rule)
        assert [f.line for f in findings] == [2]

    def test_aliased_time_module_fires_in_sim(self, tmp_path):
        code = "import time as t\nt.sleep(1)\n"
        findings = lint_snippet(
            tmp_path, code, modname="repro.sim.fake", rule="wall-clock-in-sim"
        )
        assert len(findings) == 1
        assert "time.sleep" in findings[0].message

    def test_a_local_named_like_the_module_is_not_the_module(self, tmp_path):
        code = """
            from repro.util import clock as time
            time.monotonic()
            from repro.util.threads import spawn as Thread
            Thread(f)
            """
        assert lint_snippet(
            tmp_path, code, modname="repro.sim.fake", rule="wall-clock-in-sim"
        ) == []
        assert lint_snippet(tmp_path, code, rule="bare-thread") == []


class TestRawTimer:
    def test_fires_on_threading_timer(self, tmp_path):
        code = """
            import threading
            t = threading.Timer(1.0, callback)
            t.start()
            """
        findings = lint_snippet(tmp_path, code, rule="raw-timer")
        assert len(findings) == 1
        assert "call_later" in findings[0].message

    def test_fires_on_direct_import(self, tmp_path):
        code = """
            from threading import Timer
            Timer(0.5, callback).start()
            """
        findings = lint_snippet(tmp_path, code, rule="raw-timer")
        assert len(findings) == 1

    def test_clock_module_not_exempt(self, tmp_path):
        code = """
            import threading
            t = threading.Timer(1.0, callback)
            """
        findings = lint_snippet(
            tmp_path, code, modname="repro.util.clock", rule="raw-timer"
        )
        assert len(findings) == 1

    def test_other_timer_classes_not_flagged(self, tmp_path):
        code = """
            from repro.util.clock import TimerHandle
            h = TimerHandle(lambda: True)
            """
        assert lint_snippet(tmp_path, code, rule="raw-timer") == []

    def test_suppressed_by_directive(self, tmp_path):
        code = """
            import threading
            t = threading.Timer(1.0, callback)  # tdp-lint: off(raw-timer)
            """
        assert lint_snippet(tmp_path, code, rule="raw-timer") == []


class TestAdHocCounter:
    def test_fires_on_atomic_counter_dict(self, tmp_path):
        code = """
            from repro.util.sync import AtomicCounter

            class Server:
                def __init__(self):
                    self.stats = {
                        "puts": AtomicCounter(),
                        "gets": AtomicCounter(),
                    }
            """
        findings = lint_snippet(
            tmp_path, code, modname="repro.attrspace.fake", rule="ad-hoc-counter"
        )
        assert len(findings) == 1
        assert "hand-rolled stats table" in findings[0].message

    def test_fires_on_atomic_counter_dict_comprehension(self, tmp_path):
        code = """
            from repro.util import sync

            STATS = {k: sync.AtomicCounter() for k in ("puts", "gets")}
            """
        findings = lint_snippet(
            tmp_path, code, modname="repro.condor.fake", rule="ad-hoc-counter"
        )
        assert len(findings) == 1

    def test_single_atomic_counter_allocator_ok(self, tmp_path):
        code = """
            from repro.util.sync import AtomicCounter

            class Server:
                def __init__(self):
                    self._conn_ids = AtomicCounter()
            """
        assert lint_snippet(
            tmp_path, code, modname="repro.attrspace.fake", rule="ad-hoc-counter"
        ) == []

    def test_fires_on_direct_metric_construction(self, tmp_path):
        code = """
            from repro import obs

            c = obs.Counter("my.count")
            h = obs.Histogram("my.latency")
            """
        findings = lint_snippet(
            tmp_path, code, modname="repro.transport.fake", rule="ad-hoc-counter"
        )
        assert len(findings) == 2
        assert all("direct" in f.message for f in findings)

    def test_collections_counter_not_flagged(self, tmp_path):
        code = """
            import collections

            tally = collections.Counter()
            """
        assert lint_snippet(
            tmp_path, code, modname="repro.paradyn.fake", rule="ad-hoc-counter"
        ) == []

    def test_fires_on_bad_literal_metric_name(self, tmp_path):
        code = """
            from repro import obs

            obs.registry().counter("Puts-Total")
            """
        findings = lint_snippet(
            tmp_path, code, modname="repro.condor.fake", rule="ad-hoc-counter"
        )
        assert len(findings) == 1
        assert "outside [a-z0-9_.]" in findings[0].message

    def test_fires_on_bad_fstring_segment(self, tmp_path):
        code = """
            from repro import obs

            def bump(server, key):
                obs.registry().counter(f"Server:{server}.{key}").increment()
            """
        findings = lint_snippet(
            tmp_path, code, modname="repro.condor.fake", rule="ad-hoc-counter"
        )
        assert len(findings) == 1

    def test_valid_registry_usage_passes(self, tmp_path):
        code = """
            from repro import obs

            reg = obs.MetricsRegistry("lass@node1")
            reg.counter("attrspace.server.puts").increment()
            reg.histogram(f"attrspace.client.rpc.{'put'}").observe(0.1)
            """
        assert lint_snippet(
            tmp_path, code, modname="repro.attrspace.fake", rule="ad-hoc-counter"
        ) == []

    def test_obs_package_exempt(self, tmp_path):
        code = """
            class Counter:
                pass

            def make():
                return Counter("x")
            """
        assert lint_snippet(
            tmp_path, code, modname="repro.obs.metrics", rule="ad-hoc-counter"
        ) == []

    def test_outside_repro_not_scoped(self, tmp_path):
        code = """
            from repro.util.sync import AtomicCounter

            stats = {"hits": AtomicCounter()}
            """
        assert lint_snippet(tmp_path, code, rule="ad-hoc-counter") == []

    def test_suppressed_by_directive(self, tmp_path):
        code = """
            from repro.util.sync import AtomicCounter

            stats = {"hits": AtomicCounter()}  # tdp-lint: off(ad-hoc-counter)
            """
        assert lint_snippet(
            tmp_path, code, modname="repro.condor.fake", rule="ad-hoc-counter"
        ) == []


class TestRegistry:
    EXPECTED = {
        "callback-under-lock",
        "blocking-call-under-lock",
        "wall-clock-in-sim",
        "raw-attribute-literal",
        "missing-handle-check",
        "bare-thread",
        "ad-hoc-counter",
    }

    def test_full_battery_registered(self):
        assert {r.name for r in all_rules()} >= self.EXPECTED

    def test_unknown_rule_raises(self):
        with pytest.raises(KeyError):
            get_rule("no-such-rule")

    def test_file_wide_directive_spans_whole_file(self, tmp_path):
        code = """
            # tdp-lint: off(bare-thread)
            import threading
            a = threading.Thread(target=f)
            b = threading.Thread(target=g)
            """
        assert lint_snippet(tmp_path, code, rule="bare-thread") == []
