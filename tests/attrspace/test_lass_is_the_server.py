"""A LASS is the stock server: the client/server suite, re-run on one.

The star import re-collects every ``Test*`` class of
``test_client_server`` (plus its ``transport`` fixture and helpers) under
this module's ids; the only thing that changes is the ``server`` fixture,
which here is a :class:`LassServer` fronting an idle CASS.  No test body
is copied — if a LASS diverged from the server it is built from, the
same assertions fail here and pass there.
"""

import os

import pytest

from repro.attrspace.client import ReconnectPolicy
from repro.attrspace.lass import LassServer
from repro.attrspace.server import AttributeSpaceServer, ServerRole

from tests.attrspace.test_client_server import *  # noqa: F401,F403


@pytest.fixture
def server(transport):  # noqa: F811 — the override is the point
    cass = AttributeSpaceServer(transport, "submit", role=ServerRole.CASS)
    reconnect = (
        ReconnectPolicy(base_delay=0.02, max_delay=0.2, deadline=5.0, seed=7)
        if os.environ.get("TDP_FAULTPLAN")
        else None
    )
    lass = LassServer(
        transport, "node1", upstream=cass.endpoint, reconnect=reconnect
    )
    yield lass
    lass.stop()
    cass.stop()
