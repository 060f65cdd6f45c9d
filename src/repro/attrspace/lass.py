"""The Local Attribute Space Server: a per-host caching front for a CASS.

Paper Section 2.2 runs one LASS per execution host; local processes talk
only to it, and it maintains the host's slice of the space against the
Central Attribute Space Server.  There is one kind of server:
:class:`LassServer` *is* the stock
:class:`~repro.attrspace.server.AttributeSpaceServer`, constructed with
an upstream — it defines no handler of its own (see the server module
for the four call-outs that federate it).
"""

from __future__ import annotations

from repro.attrspace.client import ReconnectPolicy
from repro.attrspace.federation import LassFederation
from repro.attrspace.server import AttributeSpaceServer, ServerRole
from repro.net.address import Endpoint
from repro.transport.base import Transport
from repro.util.clock import Clock


class LassServer(AttributeSpaceServer):
    """One host's LASS: terminates local sessions, federates upstream."""

    federation: LassFederation

    def __init__(
        self,
        transport: Transport,
        host: str,
        *,
        upstream: Endpoint,
        port: int = 0,
        name: str | None = None,
        clock: Clock | None = None,
        local_only: bool = False,
        reconnect: ReconnectPolicy | None = None,
        lease_ttl: float | None = 30.0,
    ):
        super().__init__(
            transport,
            host,
            port=port,
            role=ServerRole.LASS,
            name=name,
            local_only=local_only,
            clock=clock,
            upstream=upstream,
            reconnect=reconnect,
            lease_ttl=lease_ttl,
        )
