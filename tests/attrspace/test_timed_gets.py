"""Timed blocking gets at scale: a parked get with a deadline costs the
server a heap entry on its clock, not a thread.
"""

import threading
import time

import pytest

from repro.errors import GetTimeoutError
from repro.attrspace.client import AttributeSpaceClient
from repro.attrspace.server import AttributeSpaceServer, ServerRole
from repro.net.topology import flat_network
from repro.transport.inmem import InMemoryTransport
from repro.transport.tcp import TcpTransport

PARKED = 10_000


@pytest.fixture(params=["inmem", "tcp"])
def transport(request):
    if request.param == "inmem":
        return InMemoryTransport(flat_network(["node1", "submit"]))
    return TcpTransport()


@pytest.fixture
def server(transport):
    srv = AttributeSpaceServer(transport, "node1", role=ServerRole.LASS)
    yield srv
    srv.stop()


def drain(client, outcomes, count, timeout=10.0):
    """Service completion events until ``count`` outcomes have arrived."""
    deadline = time.monotonic() + timeout
    while len(outcomes) < count and time.monotonic() < deadline:
        if client.wait_event(timeout=deadline - time.monotonic()):
            client.service_events()
    return len(outcomes) >= count


def test_parked_timed_gets_cost_no_threads(transport, server):
    channel = transport.connect("submit", server.endpoint, timeout=5.0)
    with AttributeSpaceClient(channel, context="job", member="getter") as client:
        client.ping()
        threads_before = threading.active_count()
        outcomes = []

        def record(value, error, name):
            outcomes.append((name, value, type(error) if error else None))

        for i in range(PARKED):
            client.async_get(f"never.{i}", record, f"never.{i}", timeout=30.0)
        # Short deadlines issued out of order, and timed gets a put
        # satisfies before their deadline.
        for name, timeout in (("short.3", 0.3), ("short.1", 0.1), ("short.2", 0.2)):
            client.async_get(name, record, name, timeout=timeout)
        for i in range(3):
            client.async_get(f"sat.{i}", record, f"sat.{i}", timeout=0.5)
        client.ping()  # every get above has reached the server
        for i in range(3):
            client.put(f"sat.{i}", str(i))

        assert drain(client, outcomes, 6)
        time.sleep(0.6)  # past every satisfied get's deadline
        client.service_events()

        assert threading.active_count() - threads_before <= 2
        assert server.stats["blocked_gets"].value == PARKED + 6
        timed_out = [name for name, _, error in outcomes if error is GetTimeoutError]
        assert timed_out == ["short.1", "short.2", "short.3"]
        satisfied = sorted((name, value) for name, value, error in outcomes
                           if error is None)
        assert satisfied == [("sat.0", "0"), ("sat.1", "1"), ("sat.2", "2")]
        assert len(outcomes) == 6
        # Only the parked gets still hold a deadline.
        (conn,) = list(server._connections.values())
        assert len(conn.timers) == PARKED
