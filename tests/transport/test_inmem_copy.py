"""An in-memory message is copied, not framed.

``framing.copy_frame`` must return exactly what
``framing.decode_frame(framing.encode_frame(m))`` returns, refuse exactly
what that refuses, and share no mutable container with ``m``.  The cases:
every frame a warm monitored launch and a warm 2-rank gang offer to an
in-memory channel (each a dict: none arrives pre-encoded as bytes), an
edge-case table, the refusals (each flat oversized case is one that only
the flat shortcut's size bound keeps from being copied), and the JSON
body codec's bytes against ``json.dumps``.
"""

import collections
import enum
import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.attrspace import protocol
from repro.condor.job import JobStatus
from repro.errors import ProtocolError
from repro.parador.run import ParadorScenario
from repro.transport import framing
from repro.transport.inmem import _InMemChannel
from tests.attrspace.test_wire_roundtrip import SAMPLES
from tests.condor.test_launch_ledger import run_monitored, settled

MAX = framing.MAX_FRAME_BYTES


def same(a, b) -> bool:
    """Equal values of the same types, NaN equal to NaN and -0.0 not
    equal to 0.0, dict keys in the same order."""
    if type(a) is not type(b):
        return False
    if type(a) is dict:
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    if type(a) is list:
        return len(a) == len(b) and all(map(same, a, b))
    if type(a) is float:
        if math.isnan(a):
            return math.isnan(b)
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    return a == b


def containers(obj, found=None) -> set[int]:
    """Ids of every dict and list reachable from ``obj``."""
    found = set() if found is None else found
    if isinstance(obj, (dict, list)) and id(obj) not in found:
        found.add(id(obj))
        for item in (obj.values() if isinstance(obj, dict) else obj):
            containers(item, found)
    return found


def copied(message):
    return framing.copy_frame(message)[0]


# -- every frame of a warm launch -------------------------------------------


class Offered:
    """Each dict an in-memory channel was offered, checked as it was
    sent: (message, copy, byte-path copy, sized length, frame length,
    containers the copy shares with the message)."""

    def __init__(self):
        self.on = False
        self.checked = []
        self.encoded = 0  # offers of a pre-encoded ``bytes`` frame


@pytest.fixture
def offered(monkeypatch):
    book = Offered()
    offer = _InMemChannel.offer

    def tapped(self, message, maxsize):
        if book.on and type(message) is bytes:
            book.encoded += 1
        elif book.on:
            frame = framing.encode_frame(message)
            book.checked.append((
                json.loads(json.dumps(message)), copied(message),
                framing.decode_frame(frame), framing.copy_frame(message, True)[1],
                len(frame), containers(copied(message)) & containers(message),
            ))
        return offer(self, message, maxsize)

    monkeypatch.setattr(_InMemChannel, "offer", tapped)
    return book


def submit_gang(scenario, size):
    frontend = scenario.frontend
    seen = len(frontend.daemons())
    job = scenario.pool.submit_file(
        f"universe = MPI\nexecutable = mpi_ring\narguments = 1\n"
        f"machine_count = {size}\n+SuspendJobAtExec = True\n"
        f'+ToolDaemonCmd = "paradynd"\n'
        f'+ToolDaemonArgs = "-zunix -l3 -m{scenario.submit_host} '
        f'-p{scenario.port1} -P{scenario.port2} -a%pid"\nqueue\n'
    )[0]
    sessions = frontend.wait_for_daemons(seen + size, timeout=60.0)[seen:]
    assert job.wait_terminal(timeout=60.0) is JobStatus.COMPLETED
    for session in sessions:
        session.wait_state("exited", timeout=30.0)
    assert settled(scenario.pool)


def assert_copies_match(book):
    """Every frame was a dict, copied as it would have been framed."""
    assert book.encoded == 0
    checked = book.checked
    assert checked
    for message, copy, framed, sized, frame_len, shared in checked:
        assert same(copy, framed), message
        assert sized == frame_len, message
        assert not shared, message
    nested = [c for c in checked if containers(c[0]) != {id(c[0])}]
    assert nested and len(nested) < len(checked)  # both paths ran


def test_a_warm_monitored_launch_copies_every_frame_as_framed(offered):
    with ParadorScenario(execute_hosts=["node1"]) as scenario:
        run_monitored(scenario)
        offered.on = True
        run_monitored(scenario)
        offered.on = False
    assert_copies_match(offered)


def test_a_warm_two_rank_gang_copies_every_frame_as_framed(offered):
    with ParadorScenario(execute_hosts=["node0", "node1"]) as scenario:
        submit_gang(scenario, 2)
        offered.on = True
        submit_gang(scenario, 2)
        offered.on = False
    assert_copies_match(offered)


# -- edge cases -------------------------------------------------------------


class Colour(enum.IntEnum):
    RED = 1


class Text(str):
    pass


cycle_list: list = []
cycle_list.append(cycle_list)

EDGES = [
    {"t": (1, (2, "x"))},
    {1: "a", 2.5: "b", True: "c", None: "d"},
    collections.OrderedDict([("b", 1), ("a", 2)]),
    collections.defaultdict(list, {"a": 1}),
    {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "z": -0.0},
    {"s": "é", "astral": "\U0001F600", "lone": "\ud800", "low": "\ude00"},
    {"pair": "\ud83d\ude00"},  # two code points; JSON joins them into one
    {"\ud83d\ude00": "a pair as a key"},
    {"é": "key", "😀": 1},
    {"control": "\x00\x1f\x7f\"\\/"},
    {"b": True, "i": 1, "f": 1.0, "n": None},
    {"hi": 2**63, "lo": -(2**63), "over": 2**63 + 1, "under": -(2**63) - 1},
    {"l": [{"a": [1, {"b": None}]}, []], "d": {}},
    {},
    {"e": Colour.RED, "s": Text("x"), Text("k"): "v"},
    {"big": 10**4000},
]


@pytest.mark.parametrize("message", EDGES, ids=range(len(EDGES)))
def test_the_copy_is_the_framed_copy(message):
    copy, framed = copied(message), framing.roundtrip(message)
    assert same(copy, framed)
    assert not containers(copy) & containers(message)
    size = framing.copy_frame(message, True)[1]
    assert size == len(framing.encode_frame(message))


def test_a_flat_message_keeps_its_scalars():
    message = {"b": True, "i": 1, "z": -0.0}
    copy = copied(message)
    assert type(copy["b"]) is bool and type(copy["i"]) is int
    assert math.copysign(1.0, copy["z"]) == -1.0
    assert copy == message and copy is not message


#: Built per case: the oversized ones are megabytes each.
REFUSED = {
    "object": lambda: {"x": object()},
    "set": lambda: {"x": {1, 2}},
    "bytes": lambda: {"x": b"bytes"},
    "circular list": lambda: {"x": cycle_list},
    "tuple key": lambda: {(1, 2): "tuple key"},
    "5000-digit int": lambda: {"x": 10**5000},
    # flat: the shortcut's size bound must send each to the JSON pass
    "flat, one byte over": lambda: {"x": "a" * (MAX + 1)},
    "flat, escaped six-fold": lambda: {"x": "\x1f" * (MAX // 6 + 1)},
    "flat, escaped two-fold": lambda: {"x": '"' * (MAX // 2 + 1)},
    # nested: the JSON pass's own limit
    "nested, over by its brackets": lambda: {"x": ["a" * MAX]},
}


@pytest.mark.parametrize("build", REFUSED.values(), ids=REFUSED.keys())
def test_the_copy_refuses_what_framing_refuses(build):
    message = build()
    with pytest.raises(ProtocolError):
        framing.encode_frame(message)
    with pytest.raises(ProtocolError):
        copied(message)
    with pytest.raises(ProtocolError):
        framing.copy_frame(message, True)


@pytest.mark.parametrize("message", [["not", "a", "dict"], "text", None, 3])
def test_the_copy_refuses_a_non_dict(message):
    with pytest.raises(ProtocolError):
        framing.encode_frame(message)
    with pytest.raises(ProtocolError, match="must be a dict"):
        copied(message)


def test_a_message_just_under_the_limit_is_copied():
    # '{"x":"' + body + '"}' is exactly MAX bytes: the JSON pass, since
    # the flat bound cannot prove it, and accepted as framing accepts it.
    message = {"x": "a" * (MAX - 8)}
    assert len(framing.encode_frame(message)) == MAX + 4
    assert copied(message) == message


alphabet = st.sampled_from(
    ["a", '"', "\\", "\x00", "é", "\U0001F600", "\ud83d", "\ude00"])
text = st.text(alphabet, max_size=6)
scalars = (st.none() | st.booleans() | st.integers()
           | st.floats(allow_nan=True, allow_infinity=True) | text)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.tuples(inner, inner)
    | st.dictionaries(text, inner, max_size=3),
    max_leaves=8,
)


@given(st.dictionaries(text | st.integers() | st.booleans(), values, max_size=5))
def test_any_message_copies_as_it_frames(message):
    assert same(copied(message), framing.roundtrip(message))


# -- the JSON body codec ----------------------------------------------------


def test_json_bodies_are_the_bytes_json_dumps_writes(offered):
    messages = [frame for _kind, frame in SAMPLES] + EDGES
    with ParadorScenario(execute_hosts=["node1"]) as scenario:
        offered.on = True
        run_monitored(scenario)
        offered.on = False
    messages += [checked[0] for checked in offered.checked]
    for message in messages:
        assert protocol.encode_body(message) == json.dumps(
            message, separators=(",", ":")).encode()
