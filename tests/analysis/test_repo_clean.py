"""Tier-1 gate: the shipped tree must pass its own static analysis.

Runs the full tdp-lint battery over ``src/repro`` and asserts zero
findings, then (when the tool is installed) runs ruff against the
``[tool.ruff]`` baseline in pyproject.toml.  Any new violation of the
lock-discipline / sim-clock / attribute-hygiene invariants fails the
suite, not just the lint CLI.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"


def test_source_tree_is_lint_clean():
    findings = lint_paths([SRC])
    report = "\n".join(f.format() for f in findings)
    assert not findings, f"tdp-lint findings in src/repro:\n{report}"


def test_whole_program_passes_are_clean():
    """The program rules alone must hold on src/repro.

    Separate from the full battery so a lock-order regression is named
    by this test, not buried in a generic lint failure.
    """
    from repro.analysis.core import get_rule

    rules = [
        get_rule("undeclared-lock-edge"),
        get_rule("lock-manifest-stale"),
        get_rule("guarded-field-unlocked"),
        get_rule("guard-ambiguous"),
        get_rule("thread-confined-escape"),
        get_rule("guard-manifest-stale"),
        get_rule("protocol-exhaustiveness"),
        get_rule("frame-field-unread"),
        get_rule("frame-field-phantom"),
        get_rule("frame-field-type-mismatch"),
        get_rule("error-code-unmapped"),
    ]
    findings = lint_paths([SRC], rules=rules)
    report = "\n".join(f.format() for f in findings)
    assert not findings, f"whole-program findings in src/repro:\n{report}"


def test_lock_graph_is_not_vacuous():
    """Guard against the analysis silently resolving nothing.

    A refactor that breaks lock-key resolution would make the lock-order
    rules pass trivially; pin minimum coverage so that shows up here.
    """
    from repro.analysis.core import ModuleSource
    from repro.analysis.engine import discover_files
    from repro.analysis.lockgraph import build_lock_graph
    from repro.analysis.lockorder import active

    modules = [ModuleSource.parse(p) for p in discover_files([SRC])]
    graph = build_lock_graph(modules)
    keys = {key for key, _, _ in graph.acquisitions}
    assert len(graph.acquisitions) > 100, "acquisition extraction collapsed"
    assert len(keys) > 30, "lock-key resolution collapsed"
    assert len(graph.edges) >= 5, "nesting-edge extraction collapsed"
    # the sanctioned store -> notify detach edge must be visible
    assert (
        "attrspace.store.AttributeStore._lock",
        "attrspace.notify.SubscriptionRegistry._lock",
    ) in graph.edges
    # every observed key must be declared (same invariant the rule checks,
    # asserted directly on the graph)
    undeclared = sorted(k for k in keys if not active().declared(k))
    assert not undeclared, f"undeclared lock keys: {undeclared}"


def test_wire_inference_is_not_vacuous():
    """Same guard for the wire-schema pass: pin minimum coverage so a
    refactor that blinds the inference shows up as a failure here, not
    as the symmetry rules passing trivially."""
    from repro.analysis import wireschema

    schema = wireschema.infer_from_tree()
    assert len(schema.op_constants) == 13
    assert len([op for op in schema.ops if op != "error"]) == 12
    assert set(schema.sub_ops) == {"get", "put", "remove"}
    assert schema.notify.reply_writes.fields, "notify writes collapsed"
    assert schema.notify.reply_reads.fields, "notify reads collapsed"
    assert len(schema.errors.decode_map) >= 7
    assert schema.errors.raised, "raised-error inventory collapsed"
    # every op must show construction evidence on the client side (ping's
    # request is legitimately empty of fields, but it still has a site)
    for op, entry in schema.ops.items():
        if op == "error":
            continue
        assert entry.request_writes.sites > 0, \
            f"op {op!r} has no client construction site"


def test_only_the_server_defines_op_handlers():
    """One kind of server: federation is a collaborator the server calls
    out to, never a subclass re-implementing its ``_op_*`` handlers."""
    import ast

    handlers: dict[str, list[str]] = {}
    for path in sorted((SRC / "attrspace").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                handlers.setdefault(node.name, []).extend(
                    f.name for f in node.body
                    if isinstance(f, ast.FunctionDef) and f.name.startswith("_op_")
                )
    assert len(handlers.pop("AttributeSpaceServer")) >= 12
    assert not any(handlers.values()), {k: v for k, v in handlers.items() if v}


def test_one_notify_frame_definition():
    """One notify frame: a single literal keyed ``"op": OP_NOTIFY`` (the
    server's ``_notify_frame``), which the shared-body and the traced
    deliveries both build from — so the bytes a fan-out splices, the
    frames a trace stamps and the schema ``wireschema`` infers from that
    literal are one definition."""
    import ast

    def is_notify(node):
        return (
            isinstance(node, ast.Attribute) and node.attr == "OP_NOTIFY"
            or isinstance(node, ast.Name) and node.id == "OP_NOTIFY"
            or isinstance(node, ast.Constant) and node.value == "notify"
        )

    literals, builds = [], []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Dict) and any(
                isinstance(k, ast.Constant) and k.value == "op" and is_notify(v)
                for k, v in zip(node.keys, node.values)
            ):
                literals.append(f"{path.relative_to(SRC)}:{node.lineno}")
            if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "_notify_frame":
                builds.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert len(literals) == 1 and literals[0].startswith("attrspace/server.py:"), literals
    assert len(builds) == 2 and all(b.startswith("attrspace/server.py:") for b in builds), builds


def test_one_rank_launch():
    """One launch path: every rank of every job — a vanilla job's one
    process, MPI rank 0, each worker rank — is started, tooled and
    published by the same code, so a rank cannot drift from the others."""
    import ast

    calls: dict[str, list[str]] = {
        "tdp_init": [], "tdp_create_process": [], "ToolLaunchContext": [],
    }
    for path in sorted((SRC / "condor").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                if name in calls:
                    calls[name].append(f"{path.name}:{node.lineno}")
    assert {name: len(sites) for name, sites in calls.items()} == {
        name: 1 for name in calls
    }, calls


def test_a_starter_runs_one_rank():
    """One starter per claimed machine: each rank's starter is spawned by
    its own machine's startd, so the rank launch starts no thread of its
    own and nothing hands a starter other machines or a CASS reader."""
    import ast

    gone = {"MachineSlot", "extra_machines", "machine_slots_from_wire",
            "read_cass", "_read_cass"}
    found, spawns, starters = [], [], []
    for path in sorted(SRC.rglob("*.py")):
        rel = str(path.relative_to(SRC))
        for node in ast.walk(ast.parse(path.read_text())):
            names = {
                getattr(node, field, None)
                for field in ("id", "attr", "name", "arg")
            }
            if isinstance(node, ast.Constant):
                names.add(node.value)
            found.extend(f"{rel}:{node.lineno}" for name in names & gone)
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                if called == "spawn" and rel == "condor/mpi_universe.py":
                    spawns.append(f"{rel}:{node.lineno}")
                if called == "Starter":
                    starters.append(rel)
    assert found == [], found
    assert spawns == [], spawns
    assert starters == ["condor/startd.py"], starters


def test_only_the_session_layer_touches_the_channel():
    """One session layer: above ``_Session`` nothing sends or receives on
    a channel or reads the outage flags, and a request enters the one
    pending table in one place."""
    import ast

    outage_state = {"_channel", "_reconnecting", "_conn_lost"}
    client = ast.parse((SRC / "attrspace" / "client.py").read_text())
    session = next(
        n for n in client.body
        if isinstance(n, ast.ClassDef) and n.name == "_Session"
    )
    above = [n for n in client.body if n is not session] + [
        ast.parse((SRC / rel).read_text())
        for rel in ("attrspace/federation.py", "attrspace/lass.py",
                    "tdp/handle.py", "tdp/api.py")
    ]
    offenders = [
        (node.lineno, node.attr)
        for tree in above for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and (node.attr in outage_state or (
            node.attr in ("send", "recv") and isinstance(node.ctx, ast.Load)
        ))
    ]
    assert not offenders, offenders

    tables = {
        node.attr
        for node in ast.walk(client)
        if isinstance(node, ast.Attribute) and node.attr.startswith("_pending")
    }
    assert tables == {"_pending"}
    registrations = [
        fn.name
        for fn in ast.walk(session) if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Attribute) and node.value.attr == "_pending"
    ]
    assert registrations == ["submit"]


def test_sessions_route_on_the_senders_thread():
    """A session owns no thread: its channel delivers each frame to it
    (in memory, on the sender's thread), and paradynd's front-end
    channel likewise.  No receive loop is left, and the one ``spawn`` in
    the client is the outage's recovery thread."""
    import ast

    def functions(rel):
        return {
            node.name: node
            for node in ast.walk(ast.parse((SRC / rel).read_text()))
            if isinstance(node, ast.FunctionDef)
        }

    def spawns(node):
        return [
            call.lineno for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and getattr(call.func, "id", getattr(call.func, "attr", "")) == "spawn"
        ]

    client = ast.parse((SRC / "attrspace" / "client.py").read_text())
    session = next(
        n for n in client.body
        if isinstance(n, ast.ClassDef) and n.name == "_Session"
    )
    methods = {n.name: n for n in session.body if isinstance(n, ast.FunctionDef)}
    assert spawns(methods["__init__"]) == []
    assert "_recv_loop" not in functions("attrspace/client.py")
    assert "_command_loop" not in functions("paradyn/daemon.py")
    assert spawns(client) == spawns(methods["_lost"]) != []


def test_one_cass_no_sharded_tier():
    """One CASS: outside ``ShardMap`` and its two helpers — importable
    only because ``benchmarks/tdpbench/layers.py`` still times ``owner``
    — no name, attribute, parameter, keyword, import or string constant
    under ``src/repro`` mentions a shard or an epoch, so nothing refers
    to ``ShardMap`` either.  Docstrings are prose and do not count."""
    import ast
    import re

    word = re.compile("shard|epoch", re.IGNORECASE)
    pinned = {"ShardMap", "_ring_point", "attribute_prefix"}
    definitions = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    exempted: set[str] = set()

    def spellings(path, node):
        """Every (line, text) the gate judges at or below ``node``."""
        body = getattr(node, "body", None)
        docstring = None
        if isinstance(node, (ast.Module, *definitions)) and body:
            first = body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                docstring = first
        for child in ast.iter_child_nodes(node):
            if child is docstring:
                continue
            if (
                isinstance(child, definitions) and child.name in pinned
                and isinstance(node, ast.Module) and path.name == "federation.py"
            ):
                exempted.add(child.name)
                continue
            texts = [
                getattr(child, field, None)
                for field in ("id", "attr", "arg", "name", "asname")
            ]
            if isinstance(child, ast.Constant):
                texts.append(child.value)
            line = getattr(child, "lineno", getattr(node, "lineno", 0))
            yield from ((line, t) for t in texts if isinstance(t, str))
            yield from spellings(path, child)

    offenders = [
        f"{path.relative_to(SRC)}:{line}: {text!r}"
        for path in sorted(SRC.rglob("*.py"))
        for line, text in spellings(path, ast.parse(path.read_text()))
        if word.search(text)
    ]
    assert not offenders, "\n".join(offenders)
    assert exempted == pinned, "the exemption outlived what it exempts"


def test_one_serving_contract():
    """One serving contract: a listener's channels are served by
    ``serve_loop`` alone.  ``Listener`` declares no ``accept``; nothing
    in ``src/repro`` calls one (the loop's own non-blocking socket
    accept is not a listener's); and no test or benchmark calls
    ``.accept(`` — ``benchmarks/tdpbench/`` aside, which still times the
    in-memory listener's."""
    import ast

    def accept_calls(path):
        return [
            (node.lineno, ast.unparse(node.func))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "accept"
        ]

    base = ast.parse((SRC / "transport" / "base.py").read_text())
    (listener,) = [
        n for n in base.body if isinstance(n, ast.ClassDef) and n.name == "Listener"
    ]
    assert "accept" not in {
        f.name for f in listener.body if isinstance(f, ast.FunctionDef)
    }

    exempt = (SRC / "transport" / "eventloop.py", "self._sock.accept")
    in_src = [
        f"{path.relative_to(SRC)}:{line}: {call}"
        for path in sorted(SRC.rglob("*.py"))
        for line, call in accept_calls(path)
        if (path, call) != exempt
    ]
    assert not in_src, "\n".join(in_src)

    bench = REPO_ROOT / "benchmarks" / "tdpbench"
    in_tests = [
        f"{path.relative_to(REPO_ROOT)}:{line}: {call}"
        for tree in ("tests", "benchmarks")
        for path in sorted((REPO_ROOT / tree).rglob("*.py"))
        if bench not in path.parents
        for line, call in accept_calls(path)
    ]
    assert not in_tests, "\n".join(in_tests)


#: The ``while`` loops in src/repro that may wake on a fixed period, by
#: (module, function), each with its reason.  Everything else learns of
#: an event from whoever causes it.
TIMED_WAIT_ALLOWED = {
    ("paradyn.daemon", "_sample_until_exit"): (
        "sampling period: a tool's metric period is its work, not a re-check"
    ),
}


def timed_waits(source):
    """``(function, line, call)`` for each timed wait inside a ``while``.

    A timed wait is a ``.wait(t)``, ``.get(timeout=t)``, ``poll(t)``,
    ``tdp_poll(h, t)`` or ``sleep(t)`` whose ``t`` is a literal or a
    named value (``0.02``, ``interval``, ``self.SAMPLE_INTERVAL``): a
    period, after which the loop re-checks whatever happened.  A timeout
    computed from a deadline ends the wait once, and does not count.
    """
    import ast

    def timeout_of(call):
        keyword = next((k.value for k in call.keywords if k.arg == "timeout"), None)
        func = call.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if name == "get":
            return keyword
        if name not in ("wait", "poll", "tdp_poll", "sleep"):
            return None
        return keyword if keyword is not None or not call.args else call.args[-1]

    def is_period(node):
        if isinstance(node, ast.UnaryOp):
            node = node.operand
        if isinstance(node, ast.Constant):
            return isinstance(node.value, (int, float))
        while isinstance(node, ast.Attribute):
            node = node.value
        return isinstance(node, ast.Name)

    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.While):
                found.extend(
                    (function, call.lineno, ast.unparse(call))
                    for call in ast.walk(child)
                    if isinstance(call, ast.Call)
                    and is_period(timeout_of(call))
                )
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return sorted(set(found), key=lambda site: site[1])


def test_no_timed_poll_loops():
    """Push, not poll: no ``while`` loop in src/repro wakes on a fixed
    period to re-check a flag or re-read an attribute it could be told
    about, outside ``TIMED_WAIT_ALLOWED``; and no entry there is stale."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for function, line, call in timed_waits(path.read_text()):
            found.setdefault((module, function), []).append(
                f"{path.relative_to(SRC)}:{line}: {call}"
            )
    unlisted = [
        site for key, sites in found.items()
        if key not in TIMED_WAIT_ALLOWED for site in sites
    ]
    assert not unlisted, "\n".join(unlisted)
    assert not set(TIMED_WAIT_ALLOWED) - set(found), "stale allow-list entries"


def test_failures_are_pushed():
    """A failure reaches the RM from the daemon's parent, which already
    knows of it: no fault watcher module, a master configured by nothing
    and waiting on nothing but its daemons' exit notices."""
    import ast

    assert not (SRC / "tdp" / "faults.py").exists()
    watchers = [
        str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
        if "FaultMonitor" in path.read_text()
    ]
    assert not watchers, watchers
    master = (SRC / "condor" / "master.py").read_text()
    [init] = [
        node for node in ast.walk(ast.parse(master))
        if isinstance(node, ast.FunctionDef) and node.name == "__init__"
    ]
    params = init.args
    assert [a.arg for a in params.posonlyargs + params.args] == ["self"]
    assert not (params.kwonlyargs or params.vararg or params.kwarg)
    timed = [
        f"{function}:{line}: {call}"
        for function, line, call in timed_waits(master)
    ]
    assert not timed, timed


def test_timed_poll_gate_is_not_vacuous():
    """The shapes the gate exists to catch — the loops push-not-poll
    deleted, as they were written — are found; untimed waits and
    deadline-bounded ones are not."""
    polls = '''
def _service_loop(self, interval):
    while not self._service_stop.is_set():
        if not self.service_events():
            self.poll(timeout=interval)
def _run_inner(self, handle, stop_event):
    while not self.run_command.wait(timeout=0.02):
        handle.service_events()
    while not stop_event.is_set():
        stop_event.wait(self.SAMPLE_INTERVAL)
def _loop(self):
    while not self._stop:
        self._wake.wait(timeout=0.02)
def search(self, session):
    while session.app_state != "exited":
        time.sleep(0.01)
def _wait_state(self, pid, state):
    while time.monotonic() < deadline:
        time.sleep(self.STOP_POLL_INTERVAL)
def watch(handle, queue):
    while True:
        tdp_poll(handle, 0.5)
        queue.get(timeout=POLL)
'''
    untimed = '''
def park(self, handle, deadline):
    while True:
        self._cond.wait()
        handle.poll(None)
        handle.poll(deadline - time.monotonic())
        self._ready.get()
        attempts.get(job, 0)
        self._popen.poll()
'''
    assert [(f, c) for f, _line, c in timed_waits(polls)] == [
        ("_service_loop", "self.poll(timeout=interval)"),
        ("_run_inner", "self.run_command.wait(timeout=0.02)"),
        ("_run_inner", "stop_event.wait(self.SAMPLE_INTERVAL)"),
        ("_loop", "self._wake.wait(timeout=0.02)"),
        ("search", "time.sleep(0.01)"),
        ("_wait_state", "time.sleep(self.STOP_POLL_INTERVAL)"),
        ("watch", "tdp_poll(handle, 0.5)"),
        ("watch", "queue.get(timeout=POLL)"),
    ]
    assert timed_waits(untimed) == []


def test_handoffs_block_in_c():
    """The in-memory path's hand-offs park in one C-level wait (a raw
    lock's ``acquire`` or ``SimpleQueue.get``): ``Latch``,
    ``WaitableQueue`` and the inmem dispatcher name no
    ``threading.Condition``, ``threading.Event`` or ``tracked_condition``,
    whose bookkeeping runs in Python on every wait and wake."""
    import ast

    banned = {"Condition", "Event", "tracked_condition"}
    classes = {
        SRC / "util" / "sync.py": {"Latch", "WaitableQueue"},
        SRC / "transport" / "inmem.py": {"_InMemDispatcher"},
    }
    found, named = [], set()
    for path, names in classes.items():
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and node.name in names:
                named.add(node.name)
                found.extend(
                    f"{node.name}:{ref.lineno}: {ast.unparse(ref)}"
                    for ref in ast.walk(node)
                    if (isinstance(ref, ast.Name) and ref.id in banned)
                    or (isinstance(ref, ast.Attribute) and ref.attr in banned)
                )
    assert named == set().union(*classes.values())
    assert not found, "\n".join(found)


def test_inmem_frames_are_copied_not_framed():
    """An in-memory message is copied as its round trip would leave it
    (``framing.copy_frame``), not encoded to a frame and parsed back,
    and nothing is offered to it as bytes: ``_InMemChannel.offer`` calls
    no ``encode_frame``, ``decode_frame`` or ``roundtrip``."""
    import ast

    tree = ast.parse((SRC / "transport" / "inmem.py").read_text())
    (offer,) = [
        node
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name == "_InMemChannel"
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name == "offer"
    ]
    calls = {
        call.func.attr if isinstance(call.func, ast.Attribute)
        else getattr(call.func, "id", ""): call
        for call in ast.walk(offer)
        if isinstance(call, ast.Call)
    }
    framed = [
        f"{offer.lineno}+: {ast.unparse(call)}"
        for name, call in calls.items()
        if name in ("encode_frame", "decode_frame", "roundtrip")
    ]
    assert not framed, "\n".join(framed)
    assert "copy_frame" in calls


#: Ceiling on the test suite's sleeps and polls, which load can outrun.
#: Only falls: a change that replaces polls with event waits lowers it.
TEST_POLL_CEILING = 179


def test_test_polls_only_fall():
    """The count of ``time.sleep`` and ``wait_until`` calls under tests/
    may not rise: a new test waits on the event it means (a ``Latch``,
    a subscription, ``JobRecord.wait_for``), not on a poll."""
    import re

    poll = re.compile(r"\btime\.sleep\(|\bwait_until\(")
    count = sum(
        len(poll.findall(path.read_text()))
        for path in (REPO_ROOT / "tests").rglob("*.py")
    )
    assert count <= TEST_POLL_CEILING, (
        f"{count} sleeps/polls under tests/, ceiling {TEST_POLL_CEILING}"
    )


def test_lint_cli_exits_zero():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", str(SRC)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 findings" in proc.stdout


def test_ruff_baseline():
    ruff = shutil.which("ruff")
    if ruff is None:
        pytest.skip("ruff not installed in this environment")
    proc = subprocess.run(
        [ruff, "check", str(SRC)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
